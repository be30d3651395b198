"""REP007 corpus: a relative import written in a package ``__init__``.

The corpus root stands where ``repro/`` stands in the real tree, so from
this package (``sim.rep007_init_bad``) three dots name the root and the
import below is ``sim -> obs`` — the same breach as ``from .. import
obs`` in ``repro/sim/__init__.py``.  Resolving it against this module's
*parent* instead of the package itself lands one level too high
(``sim.obs``, which does not exist) and the breach goes unseen.
Expected: 1 REP007 violation.
"""

from ...obs import metrics

ROUND_LOG = metrics.RoundLog
