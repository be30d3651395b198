"""Deterministic, named random-number streams for reproducible simulation.

Every stochastic decision in the simulator (message loss, crash draws,
gossipee selection, vote generation, ...) draws from its own named stream.
Streams are derived from a single experiment seed, so

* the same seed always reproduces the same run, event for event, and
* adding draws to one subsystem (e.g. a new failure model) never perturbs
  the sequence seen by another subsystem.

This is the standard "stream splitting" discipline used by discrete-event
simulators; without it, seemingly unrelated code changes silently change
experiment outcomes and make regressions impossible to bisect.

A stream has exactly one owner.  Most are ``numpy.random.Generator``
objects that :meth:`RngRegistry.stream` builds and caches.  The array
engine instead claims (:meth:`RngRegistry.claim`) every member's
``("process", id, "gossip")`` stream as a seed and keeps it as columns:
:func:`pcg64_columns` seeds PCG64 exactly as ``default_rng(seed)``
does (numpy's ``SeedSequence`` mixing, then ``srandom``), vectorised
over all members, and :func:`pcg64_step` is the generator's 128-bit LCG
step on those columns.  ``stream()`` refuses a claimed path, so no
``Generator`` can fork it.
"""

from __future__ import annotations

import hashlib
from itertools import pairwise

import numpy as np

__all__ = ["RngRegistry", "derive_seed", "pcg64_columns", "pcg64_step"]

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

# numpy's SeedSequence hash constants (``numpy/random/bit_generator.pyx``).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
#: SeedSequence's default pool size, in uint32 words.
_POOL = 4

# PCG64's 128-bit multiplier (``PCG_DEFAULT_MULTIPLIER_128``) as 64-bit
# halves, and its low half as 32-bit limbs for the high product word.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M_HI = np.uint64(_PCG_MULT >> 64)
_M_LO = np.uint64(_PCG_MULT & _MASK64)
_M_LO0 = np.uint64(_PCG_MULT & _MASK32)
_M_LO1 = np.uint64(_PCG_MULT >> 32 & _MASK32)
_LOW32 = np.uint64(_MASK32)
_U1, _U32, _U63 = np.uint64(1), np.uint64(32), np.uint64(63)


def derive_seed(root_seed: int, *names: str | int) -> int:
    """Derive a child seed from ``root_seed`` and a path of names.

    Uses SHA-256 over the root seed and the name path, so derived seeds are
    well-mixed even for adjacent root seeds (numpy's default seeding of
    nearby integers is already fine, but hashing also lets us use
    arbitrary string paths such as ``("network", "loss")``).
    """
    return _seed_of(_hasher(root_seed, names))


def _path(names) -> bytes:
    return b"".join(b"/" + str(name).encode() for name in names)


def _hasher(root_seed: int, names):
    """SHA-256 fed the root seed and the name path (``derive_seed``'s)."""
    return hashlib.sha256(str(int(root_seed)).encode() + _path(names))


def _seed_of(hasher) -> int:
    return int.from_bytes(hasher.digest()[:8], "big") & _MASK64


def _hashes(init: int, mult: int, count: int):
    """SeedSequence's running hash constant, as (xor, multiply) pairs
    for ``count`` consecutive hash steps (it does not depend on data)."""
    constants = [init]
    for _ in range(count):
        constants.append(constants[-1] * mult & _MASK32)
    return ((np.uint32(a), np.uint32(b)) for a, b in pairwise(constants))


def pcg64_columns(seeds) -> tuple[np.ndarray, ...]:
    """The PCG64 state of ``default_rng(seed)`` for every seed, as four
    uint64 columns: state high, state low, increment high, increment low.

    ``seeds`` are integers in ``[0, 2**64)``.  Column for column this is
    ``SeedSequence(seed).generate_state(4, uint64)`` fed to PCG64's
    ``srandom``, so a stream stepped with :func:`pcg64_step` serves the
    generator's own values.  A seed below ``2**32`` is one entropy word
    and a larger one two; the second word of a small seed is 0, which
    mixes exactly like the zero padding of a one-word pool.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    words = [
        (seeds & _LOW32).astype(np.uint32),
        (seeds >> _U32).astype(np.uint32),
    ]
    words += [np.zeros_like(words[0]) for _ in range(_POOL - len(words))]
    steps = _hashes(_INIT_A, _MULT_A, _POOL * _POOL)

    def hashmix(value):
        xor, mult = next(steps)
        value = (value ^ xor) * mult
        return value ^ value >> _XSHIFT

    pool = [hashmix(word) for word in words]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                mixed = (
                    _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src])
                )
                pool[dst] = mixed ^ mixed >> _XSHIFT
    # generate_state(4, uint64): eight uint32 words cycled off the pool,
    # paired little-endian into uint64s.
    state = []
    for index, (xor, mult) in enumerate(_hashes(_INIT_B, _MULT_B, 8)):
        word = (pool[index % _POOL] ^ xor) * mult
        state.append((word ^ word >> _XSHIFT).astype(np.uint64))
    init_hi, init_lo, seq_hi, seq_lo = (
        low | high << _U32 for low, high in zip(state[::2], state[1::2])
    )
    # srandom: inc = seq << 1 | 1; state = inc; state += init; step.
    inc_hi = seq_hi << _U1 | seq_lo >> _U63
    inc_lo = seq_lo << _U1 | _U1
    lo = inc_lo + init_lo
    hi = inc_hi + init_hi + (lo < inc_lo)
    hi, lo = pcg64_step(hi, lo, inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


def pcg64_step(hi, lo, inc_hi, inc_lo) -> tuple[np.ndarray, np.ndarray]:
    """One PCG64 LCG step, ``state * MULT + inc`` mod ``2**128``, on
    uint64 column halves.  The high word of ``lo * MULT_lo`` is built
    from 32-bit limbs; every other product wraps mod ``2**64``."""
    a0 = lo & _LOW32
    a1 = lo >> _U32
    p01 = a0 * _M_LO1
    p10 = a1 * _M_LO0
    mid = (a0 * _M_LO0 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    lo_high = a1 * _M_LO1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
    new_lo = lo * _M_LO + inc_lo
    new_hi = hi * _M_LO + lo * _M_HI + lo_high + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


class RngRegistry:
    """A family of named ``numpy.random.Generator`` streams under one seed.

    >>> rngs = RngRegistry(seed=42)
    >>> loss = rngs.stream("network", "loss")
    >>> crash = rngs.stream("failures")
    >>> loss is rngs.stream("network", "loss")   # streams are cached
    True

    The registry is the single source of randomness for a simulation run.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._streams: dict[tuple[str | int, ...], np.random.Generator] = {}
        #: Per ``names`` suffix, the sorted process ids whose
        #: ``("process", id, *names)`` streams were claimed.
        self._claimed: dict[tuple[str | int, ...], np.ndarray] = {}

    def stream(self, *names: str | int) -> np.random.Generator:
        """Return (creating on first use) the generator for a name path.

        Memoized: the SHA-256 seed derivation and generator construction
        run once per name path; later calls are a dict lookup.  Hot paths
        may additionally cache the returned generator object — it is
        stable for the registry's lifetime and stream state lives inside
        it, so holding a reference never forks the stream.  A claimed
        path (:meth:`claim`) raises ``ValueError``: its owner draws it.
        """
        generator = self._streams.get(names)
        if generator is None:
            if self._is_claimed(names):
                raise ValueError(f"stream {names} is claimed by its owner")
            generator = np.random.default_rng(derive_seed(self.seed, *names))
            self._streams[names] = generator
        return generator

    def _is_claimed(self, names: tuple) -> bool:
        if len(names) < 2 or names[0] != "process":
            return False
        claimed = self._claimed.get(names[2:])
        if claimed is None or not isinstance(names[1], (int, np.integer)):
            return False
        index = int(np.searchsorted(claimed, names[1]))
        return index < len(claimed) and bool(claimed[index] == names[1])

    def claim(self, ids, *names: str | int) -> np.ndarray:
        """The seeds of streams ``("process", id, *names)``, one per id,
        handed to the caller for good (a uint64 array in ``ids`` order).

        The caller draws them itself (:func:`pcg64_columns`) and
        :meth:`stream` refuses them from now on, so each stream keeps one
        owner.  Claiming a path that already has a generator or an owner
        raises ``ValueError``.
        """
        ids = np.asarray(ids, dtype=np.int64)
        claimed = self._claimed.get(names, np.empty(0, dtype=np.int64))
        built = [
            key[1] for key in self._streams
            if key[:1] == ("process",) and key[2:] == names
        ]
        unique = np.unique(ids)
        if (
            len(unique) < len(ids)
            or np.isin(ids, claimed).any()
            or np.isin(ids, built).any()
        ):
            raise ValueError(f"streams {names} already have an owner")
        self._claimed[names] = np.union1d(claimed, unique)
        # derive_seed(seed, "process", id, *names), the shared prefix
        # hashed once.
        head, tail = _hasher(self.seed, ("process",)), _path(names)

        def seed_of(node_id: int) -> int:
            hasher = head.copy()
            hasher.update(b"/%d%s" % (node_id, tail))
            return _seed_of(hasher)

        return np.fromiter(
            map(seed_of, ids.tolist()), dtype=np.uint64, count=len(ids)
        )

    def __repr__(self) -> str:
        return f"RngRegistry(seed={self.seed}, streams={len(self._streams)})"
