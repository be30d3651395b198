"""Proof-of-work admission gate for Sybil join storms.

A join-time puzzle is the classic Sybil dampener (Gambs et al.,
"Scalable and Secure Aggregation in Distributed Networks", PAPERS.md):
minting one identity is free, but exhibiting a nonce whose hash clears a
difficulty target costs real work per identity, so an attacker's
identity supply becomes linear in compute instead of free.

The gate here is deliberately simulator-shaped: the "work" is a bounded
nonce search (``budget`` attempts), so admission is a *deterministic
pure function* of ``(identity, bits, salt)`` — no RNG streams involved,
no wall clock.  The
expected admitted fraction is ``1 - (1 - 2**-bits)**budget``; with the
defaults (``bits=4``, ``budget=64``) roughly 98% of identities clear the
gate, and every extra bit halves the per-nonce success probability.
"""

from __future__ import annotations

import hashlib

__all__ = ["pow_digest", "pow_admitted", "admitted_identities"]


def pow_digest(identity: int, nonce: int, salt: int = 0) -> bytes:
    """SHA-256 digest an identity must present for one nonce attempt."""
    material = f"repro-pow:{salt}:{identity}:{nonce}".encode()
    return hashlib.sha256(material).digest()


def _leading_zero_bits(digest: bytes) -> int:
    bits = 0
    for byte in digest:
        if byte == 0:
            bits += 8
            continue
        while byte < 0x80:
            bits += 1
            byte <<= 1
        break
    return bits


def pow_admitted(
    identity: int, bits: int, salt: int = 0, budget: int = 64
) -> bool:
    """Whether ``identity`` finds a qualifying nonce within ``budget``.

    ``bits`` is the required count of leading zero bits in the SHA-256
    digest; ``bits=0`` admits unconditionally (open door).  The search
    scans nonces ``0..budget-1`` in order, so the result is a pure
    function of the arguments.
    """
    if bits < 0:
        raise ValueError(f"bits must be >= 0, got {bits}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if bits == 0:
        return True
    for nonce in range(budget):
        if _leading_zero_bits(pow_digest(identity, nonce, salt)) >= bits:
            return True
    return False


def admitted_identities(
    identities: list[int], bits: int, salt: int = 0, budget: int = 64
) -> list[int]:
    """Filter ``identities`` through the admission gate, order preserved."""
    return [
        identity
        for identity in identities
        if pow_admitted(identity, bits, salt=salt, budget=budget)
    ]
