"""REP007 corpus: the helper-indirection escape, closed by layering.

``stamp`` looks harmless at this call site, and linting this file
**alone** is clean: the per-file REP002 only bans direct calls to known
nondeterminism sources.  ``timeutil`` hides a ``time.time()`` read, but
nothing has to look inside it — ``sim`` may import only its allow-list
and ``timeutil`` is not on it, so when the corpus is linted as one
project the import itself is the finding.  Expected: 1 REP007
violation, from the directory run only.
"""

from timeutil import stamp


def record_round(log):
    log.append(stamp())
    return log
