"""Corpus support for ``sim/rep002_interproc_bad.py``: a helper module
*outside* every layering unit hiding a wall-clock read behind one level
of indirection.  The per-file REP002 never looks at this file (no
deterministic unit on its path); what keeps deterministic code away
from it is REP007 — no constrained unit lists ``timeutil``.
"""

import time


def stamp():
    return _now()


def _now():
    return time.time()
