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

:class:`SamplerBank` serves the same doubles for a whole member group
with no ``Generator`` at all: each member's stream is its PCG64 state
and increment as four uint64 columns, seeded and stepped by the column
kernel in :mod:`repro.sim.rng` bit for bit as ``Generator.random``
would.  The array engine claims its members' gossip streams from the
registry for the bank, so each stream has one owner — the bank on the
array engine, a process's ``BlockedSampler`` on the object engine.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.sim.rng import pcg64_columns, pcg64_step

__all__ = ["BlockedSampler", "SamplerBank", "DEFAULT_BLOCK"]

_MASK64 = (1 << 64) - 1

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


_U11, _U58, _U63 = np.uint64(11), np.uint64(58), np.uint64(63)


class SamplerBank:
    """Uniform doubles over *many* per-member PCG64 streams at once.

    One row per member; a row is its stream's PCG64 state and increment
    as four uint64 columns (32 bytes, no ``Generator``).  A row serves
    exactly the doubles ``Generator.random`` would: each draw steps the
    128-bit LCG (:func:`~repro.sim.rng.pcg64_step`), takes the XSL-RR
    output word and scales its top 53 bits by ``2**-53``.  The array
    engine draws gossip-target and batch-subset matrices for whole
    member blocks via :meth:`draw_matrix`.

    :meth:`seeded` builds the bank from seeds (the array engine claims
    its members' ``process/<id>/gossip`` seeds from the registry, so the
    bank is their one owner); ``SamplerBank(generators)`` copies each
    generator's PCG64 state instead, after which the bank and the
    generator draw the same values independently.
    """

    __slots__ = ("_hi", "_lo", "_inc_hi", "_inc_lo")

    def __init__(self, generators):
        states = [g.bit_generator.state["state"] for g in generators]

        def column(key: str, shift: int) -> np.ndarray:
            return np.fromiter(
                (state[key] >> shift & _MASK64 for state in states),
                dtype=np.uint64, count=len(states),
            )

        self._hi, self._lo = column("state", 64), column("state", 0)
        self._inc_hi, self._inc_lo = column("inc", 64), column("inc", 0)

    @classmethod
    def seeded(cls, seeds) -> "SamplerBank":
        """The bank whose row ``i`` serves ``default_rng(seeds[i])``."""
        bank = cls.__new__(cls)
        bank._hi, bank._lo, bank._inc_hi, bank._inc_lo = pcg64_columns(seeds)
        return bank

    def draw_matrix(self, rows: np.ndarray, k: int) -> np.ndarray:
        """The next ``k`` doubles of each (distinct) row, as ``(m, k)``.

        Row ``i`` of the result holds ``rows[i]``'s next ``k`` stream
        values in draw order — exactly the doubles ``k`` scalar
        ``uniform()`` calls on that member's sampler would return.  Only
        the requested rows advance.
        """
        out = np.empty((len(rows), k), dtype=np.float64)
        hi, lo = self._hi[rows], self._lo[rows]
        inc_hi, inc_lo = self._inc_hi[rows], self._inc_lo[rows]
        for step in range(k):
            hi, lo = pcg64_step(hi, lo, inc_hi, inc_lo)
            # XSL-RR: the halves xored, rotated right by the top 6 bits.
            word = hi ^ lo
            rot = hi >> _U58
            word = word >> rot | word << (-rot & _U63)
            out[:, step] = word >> _U11
        out *= 2.0 ** -53
        self._hi[rows], self._lo[rows] = hi, lo
        return out
