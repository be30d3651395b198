"""Block-drawn uniform sampling for per-round random choices.

Hot protocol loops draw a handful of random numbers per round — gossip
destinations, the value to push, batch subsets, partial views.  Drawing
them one ``Generator`` call at a time costs more in call overhead than
in actual bit generation, and ``Generator.choice(..., replace=False)``
additionally consumes the underlying bit stream in a data-dependent,
numpy-version-dependent way, which makes seeded runs fragile.

:class:`BlockedSampler` fixes both: it consumes the stream exclusively
through ``Generator.random``, in blocks, and builds every primitive the
protocols need from those uniform doubles:

* ``uniform()``          — the next double in [0, 1);
* ``index(n)``           — one uniform index in [0, n);
* ``pick_distinct(n, k)``— a uniform k-subset of range(n) via Floyd's
  algorithm, consuming exactly ``k`` doubles.

**Stream-compatibility guarantee** — ``Generator.random(n)`` draws the
same doubles in the same order as ``n`` scalar calls (the PR 1 network
loss blocks rely on the same fact), so the sequence of values a sampler
produces for a fixed seed is *independent of the block size*, including
the unvectorized scalar path (``block=0``).  Seeded results therefore
never depend on batching internals; the regression tests pin blocked ==
scalar across block sizes, and the integration goldens pin the absolute
numbers.

Floyd's algorithm (uniform k-subsets, k draws, no rejection)::

    for j in range(n - k, n):
        t = floor(u * (j + 1))        # u = next uniform double
        pick (j if t already picked else t)

Every k-subset is produced with probability 1/C(n, k); the insertion
order is deterministic given the consumed doubles, which is all the
simulator needs (gossip sends are unordered within a round).
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = ["BlockedSampler", "SamplerBank", "DEFAULT_BLOCK", "BANK_BLOCK"]

#: Doubles drawn per refill.  Large enough to amortize the Generator
#: call across many rounds (a gossip round consumes ~3 doubles), small
#: enough that per-member samplers stay cheap at N >= 8192.  The value
#: never affects results (see the stream-compatibility guarantee);
#: tests monkeypatch it to pin that.
DEFAULT_BLOCK = 128


class BlockedSampler:
    """Uniform-double sampler over a ``numpy.random.Generator``.

    ``block=0`` selects the unvectorized scalar path (one
    ``rng.random()`` call per double) — same values, same stream
    consumption, used as the reference in regression tests.
    """

    __slots__ = ("_rng", "_block", "_buf", "_pos", "consumed")

    def __init__(self, rng: Any, block: int | None = None):
        if block is None:
            block = DEFAULT_BLOCK
        if block < 0:
            raise ValueError(f"block must be >= 0, got {block}")
        self._rng = rng
        self._block = block
        self._buf: Any = None
        self._pos = 0
        #: Total doubles consumed from the stream (draw accounting for
        #: stream-compatibility tests).
        self.consumed = 0

    def uniform(self) -> float:
        """The next uniform double in [0, 1)."""
        self.consumed += 1
        block = self._block
        if block == 0:
            return self._rng.random()
        buf = self._buf
        pos = self._pos
        if buf is None or pos >= block:
            buf = self._buf = self._rng.random(block)
            pos = 0
        self._pos = pos + 1
        return buf[pos]

    def index(self, n: int) -> int:
        """One uniform index in [0, n)."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        return int(self.uniform() * n)

    def pick_distinct(self, n: int, k: int) -> list[int]:
        """A uniform ``k``-subset of ``range(n)`` (Floyd's algorithm).

        Consumes exactly ``k`` doubles regardless of ``n``.  The order
        of the returned indices is deterministic given the stream but
        is *not* a uniform permutation — callers that need order
        randomness must shuffle separately (none here do: gossip sends
        within a round are unordered).
        """
        if not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
        picked: list[int] = []
        for j in range(n - k, n):
            t = int(self.uniform() * (j + 1))
            picked.append(j if t in picked else t)
        return picked


#: Doubles per :class:`SamplerBank` row refill.  Smaller than
#: :data:`DEFAULT_BLOCK` because a bank holds one buffer row per member
#: (N rows at N >= 10^6); like every block size here it never affects
#: the values drawn (stream-compatibility guarantee above).
BANK_BLOCK = 64


class SamplerBank:
    """Block-drawn uniform doubles over *many* per-member streams at once.

    One row per member, each backed by its own ``Generator`` (the
    registry's ``process/<id>/gossip`` stream).  A row's value sequence
    is exactly what a per-member :class:`BlockedSampler` would produce —
    refills preserve undrawn leftovers and consume the stream through
    ``Generator.random`` only, so the stream-compatibility guarantee
    makes the values independent of how refills are batched.  The array
    engine draws gossip-target and batch-subset matrices for whole
    member blocks via :meth:`draw_matrix`.
    """

    __slots__ = ("_rngs", "_block", "_buf", "_pos")

    def __init__(self, generators, block: int = BANK_BLOCK):
        if block < 1:
            raise ValueError(f"block must be >= 1, got {block}")
        self._rngs = list(generators)
        self._block = block
        rows = len(self._rngs)
        self._buf = np.empty((rows, block), dtype=np.float64)
        # Every row starts exhausted; the first draw refills it.
        self._pos = np.full(rows, block, dtype=np.int64)

    def _refill(self, row: int) -> None:
        """Top the row's buffer back up to ``block`` undrawn doubles."""
        buf, block = self._buf, self._block
        pos = int(self._pos[row])
        remaining = block - pos
        if remaining:
            # Undrawn leftovers stay at the front: every double the
            # generator produced is eventually served in order.
            buf[row, :remaining] = buf[row, pos:]
        buf[row, remaining:] = self._rngs[row].random(pos)
        self._pos[row] = 0

    def draw_matrix(self, rows: np.ndarray, k: int) -> np.ndarray:
        """The next ``k`` doubles of each (distinct) row, as ``(m, k)``.

        Row ``i`` of the result holds ``rows[i]``'s next ``k`` stream
        values in draw order — exactly the doubles ``k`` scalar
        ``uniform()`` calls on that member's sampler would return.
        """
        if k > self._block:
            raise ValueError(
                f"k={k} exceeds the bank block size {self._block}"
            )
        pos = self._pos
        if k == 0 or len(rows) == 0:
            return np.empty((len(rows), k), dtype=np.float64)
        for row in rows[pos[rows] + k > self._block]:
            self._refill(int(row))
        starts = pos[rows]
        out = self._buf[rows[:, None], starts[:, None] + np.arange(k)]
        pos[rows] = starts + k
        return out
