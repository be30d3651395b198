"""The runtime contract between protocols and the substrate hosting them.

Every aggregation protocol in this repository — Hierarchical Gossiping
and the baselines — is written against exactly five runtime services
plus three lifecycle callbacks.  This module names that contract
explicitly, as :class:`typing.Protocol` interfaces, so the *same*
protocol object can run on either substrate:

* the discrete-event simulator (:class:`repro.sim.engine.Context` /
  :class:`repro.sim.engine.SimulationEngine`), where a "round" is a
  synchronous engine step and message loss is a seeded model; or
* the asyncio/UDP runtime (:mod:`repro.net`), where a "round" is a
  wall-clock tick and loss is the real network's.

The contract is deliberately *structural* (``typing.Protocol``), not
nominal: the simulator is the bottom layer of the architecture and must
not import anything above itself (lint rule REP007), so its ``Context``
conforms by shape rather than by inheritance.  A conformance test
(``tests/unit/test_runtime_contract.py``) pins both substrates against
these interfaces with ``isinstance`` checks.

Contract fine print protocols may rely on:

* ``round`` is monotonically non-decreasing and starts at 0.
* ``rng_for(*names)`` returns the acting process's deterministic named
  stream — the same seed must yield the same draw sequence on every
  substrate (the cross-runtime golden suite pins this for the gossip
  stream).
* ``send`` is fire-and-forget: it returns nothing, and the message may
  be lost, or refused by a local bandwidth cap (the simulator counts
  that in ``NetworkStats.rejected_bandwidth``).
* ``is_alive`` is an **oracle for metrics and experiments only**.  A
  real network cannot answer it, so protocol code must never consult it
  — lint rule REP010 enforces that mechanically.
* ``terminate`` is idempotent and marks only the acting process.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

__all__ = ["Context", "GroupProcess"]


@runtime_checkable
class Context(Protocol):
    """The face a protocol process sees of its runtime.

    One context instance may be shared by many processes (the simulator
    rebinds it around each callback) or owned by a single node (the UDP
    runtime); protocols cannot tell the difference and must not try.
    """

    @property
    def round(self) -> int:
        """The current round (simulator step or wall-clock tick count)."""
        ...

    def rng_for(self, *names: str | int) -> Any:
        """The acting process's named deterministic random stream."""
        ...

    def send(self, dest: int, payload: Any, size: int = 1) -> None:
        """Fire-and-forget unicast."""
        ...

    def is_alive(self, node_id: int) -> bool:
        """Oracle liveness view — metrics/experiments only (REP010)."""
        ...

    def terminate(self) -> None:
        """Mark the acting process as finished with its protocol."""
        ...


@runtime_checkable
class GroupProcess(Protocol):
    """What a runtime requires of a protocol process it hosts.

    Matches :class:`repro.sim.engine.Process` structurally; any object
    with this shape can be driven by either substrate.
    """

    node_id: int
    alive: bool
    terminated: bool

    def on_start(self, ctx: Context) -> None:
        """Called once, before any round step."""
        ...

    def on_round(self, ctx: Context) -> None:
        """Called once per round while the process is live and active."""
        ...

    def on_message(self, ctx: Context, message: Any) -> None:
        """Called for each message delivered to this (live) process."""
        ...
