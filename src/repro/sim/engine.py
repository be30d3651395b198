"""Round-based discrete-event simulation engine.

The paper's evaluation (Section 7) simulates a group of processes that
communicate by unreliable unicast and proceed in *gossip rounds*.  This
engine reproduces that model:

* Time advances in integer rounds, starting at round 0.
* Each round, the engine (1) applies the failure model, (2) delivers the
  messages whose latency expires this round to live processes, and
  (3) lets every live, unterminated process take a step (``on_round``),
  during which it may send messages through the network model.
* Messages in flight live in one store, ``_pending[delivery round]``,
  appended in send order and popped whole when the round begins: under
  every latency model arrivals are ordered by (delivery round, send
  order).  Both round engines use it.
* Message loss, latency, partitions and per-sender bandwidth caps are
  delegated to the :class:`~repro.sim.network.Network`.
* Crash injection is delegated to a
  :class:`~repro.sim.failures.FailureModel`.

The engine is deterministic given an :class:`~repro.sim.rng.RngRegistry`
seed: processes must draw all randomness from the streams handed to them.

Processes subclass :class:`Process` and interact with the world only
through the :class:`Context` passed to their callbacks — they never touch
the engine or each other directly, which is what makes fault injection and
message-level accounting trustworthy.
"""

from __future__ import annotations

import gc
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Any

from repro.sim.events import RoundBus
from repro.sim.failures import FailureModel, NoFailures
from repro.sim.network import Message, Network
from repro.sim.rng import RngRegistry
from repro.sim.metrics import RoundMetrics
from repro.sim.trace import TraceEvent, Tracer

__all__ = ["Context", "Process", "SimulationEngine", "EngineStats"]


class Process:
    """Base class for a simulated group member.

    Subclasses override the ``on_*`` callbacks.  A process is *live* until
    it crashes (decided by the failure model) and *active* until it calls
    :meth:`Context.terminate`; terminated processes stop taking rounds but
    still receive (and by default ignore) late messages.

    Once registered with an engine, liveness/termination transitions must
    go through the engine (the failure model and :meth:`Context.terminate`)
    — the engine maintains O(1) live/active counters on those paths, so
    flipping ``alive``/``terminated`` behind its back desynchronizes them.
    """

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.alive = True
        self.terminated = False

    # -- callbacks -----------------------------------------------------
    def on_start(self, ctx: "Context") -> None:
        """Called once, in round 0, before any round step."""

    def on_round(self, ctx: "Context") -> None:
        """Called once per round while the process is live and active."""

    def on_message(self, ctx: "Context", message: Message) -> None:
        """Called for each message delivered to this (live) process."""


@dataclass
class EngineStats:
    """Aggregate counters for one simulation run."""

    rounds_executed: int = 0
    messages_delivered: int = 0
    crashes: int = 0
    recoveries: int = 0


class Context:
    """The face a :class:`Process` sees of the simulation.

    A single context is shared by all processes; ``current`` is rebound to
    the acting process around each callback so sends are attributed to the
    right sender.
    """

    def __init__(self, engine: "SimulationEngine"):
        self._engine = engine
        self.current: Process | None = None
        self._rng_cache: dict[tuple, Any] = {}

    @property
    def round(self) -> int:
        """The current round number."""
        return self._engine.round

    @property
    def rngs(self) -> RngRegistry:
        """The run's random stream registry."""
        return self._engine.rngs

    def rng_for(self, *names: str | int):
        """Shorthand for a per-process random stream.

        Generators are memoized here (on top of the registry's own
        cache) so the per-round hot path skips re-deriving the stream
        key; the returned generator is the registry's, so stream state
        is shared with direct :meth:`RngRegistry.stream` lookups.
        """
        assert self.current is not None
        key = (self.current.node_id, names)
        generator = self._rng_cache.get(key)
        if generator is None:
            generator = self._engine.rngs.stream("process", key[0], *names)
            self._rng_cache[key] = generator
        return generator

    def send(self, dest: int, payload: Any, size: int = 1) -> bool:
        """Send ``payload`` to process ``dest``.

        Returns ``True`` if the network accepted the message (it may still
        be lost in transit); ``False`` if the sender's per-round bandwidth
        cap rejected it.  ``size`` is the abstract byte-size used for the
        constant-message-size check.
        """
        assert self.current is not None, "send() outside a process callback"
        return self._engine._submit(self.current.node_id, dest, payload, size)

    def is_alive(self, node_id: int) -> bool:
        """Whether ``node_id`` is currently live (oracle view, for metrics)."""
        return self._engine.processes[node_id].alive

    def terminate(self) -> None:
        """Mark the acting process as finished with its protocol."""
        assert self.current is not None
        if not self.current.terminated:
            self.current.terminated = True
            self._engine._note_terminate(self.current)


class SimulationEngine:
    """Drives processes, network and failures through synchronous rounds."""

    def __init__(
        self,
        network: Network,
        failure_model: FailureModel | None = None,
        rngs: RngRegistry | None = None,
        max_rounds: int = 100_000,
        tracer: Tracer | None = None,
        metrics: RoundMetrics | None = None,
        round_bus: RoundBus | None = None,
    ):
        self.network = network
        self.failure_model = (
            failure_model if failure_model is not None else NoFailures()
        )
        self.rngs = rngs if rngs is not None else RngRegistry(seed=0)
        self.max_rounds = max_rounds
        self.tracer = tracer
        self.metrics = metrics
        #: Begin-round event bus.  The network's per-round reset is the
        #: first subscriber; chaos campaign controllers (and any other
        #: round-boundary probe) subscribe after it and therefore run
        #: after it, in a fixed, reproducible order.
        # `is not None`, not `or`: an empty RoundBus has len() 0 and
        # would be falsy, silently replacing a caller-provided bus.
        self.round_bus = round_bus if round_bus is not None else RoundBus()
        self.round_bus.subscribe(network.begin_round)
        self.round = 0
        self.processes: dict[int, Process] = {}
        self.stats = EngineStats()
        # O(1) liveness bookkeeping, updated by add_process /
        # _apply_failures / Context.terminate (see the Process docstring):
        # replaces the per-round full scans in _all_done and the metrics
        # snapshot, which dominate at N >= 8192.
        self._alive_count = 0
        self._terminated_count = 0
        self._active_count = 0  # alive and not terminated
        #: Cached round-step iteration order (registration order, same as
        #: the previous per-round ``list(...)`` copy); invalidated by
        #: add_process.
        self._round_order: tuple[Process, ...] | None = None
        #: The one store of messages in flight: delivery round -> items
        #: in send order.  A bucket is popped whole when its round
        #: begins, so arrival order is (delivery round, send order) for
        #: every latency model.
        self._pending: dict[int, list] = {}
        self._ctx = Context(self)

    # -- setup ---------------------------------------------------------
    def add_process(self, process: Process) -> None:
        """Register a process; node ids must be unique."""
        if process.node_id in self.processes:
            raise ValueError(f"duplicate node id {process.node_id}")
        self.processes[process.node_id] = process
        if process.alive:
            self._alive_count += 1
            if not process.terminated:
                self._active_count += 1
        if process.terminated:
            self._terminated_count += 1
        self._round_order = None

    def add_processes(self, processes: Iterable[Process]) -> None:
        for process in processes:
            self.add_process(process)

    # -- internals -----------------------------------------------------
    def _trace(self, kind: str, node: int, peer: int | None = None,
               detail: Any = None) -> None:
        if self.tracer is not None:
            self.tracer.record(
                TraceEvent(self.round, kind, node, peer, detail)
            )

    def _submit(self, src: int, dest: int, payload: Any, size: int) -> bool:
        message = Message(src=src, dest=dest, payload=payload, size=size,
                          sent_round=self.round)
        delivery_round = self.network.plan_delivery(message, self.rngs)
        if delivery_round is Network.REJECTED:
            # Counted by the network (``NetworkStats.rejected_bandwidth``).
            self._trace("send_rejected", src, dest)
            return False
        if delivery_round is not None:
            if self.tracer is not None:
                self._trace("send", src, dest)
            self._enqueue(delivery_round, message)
        else:
            self._trace("send_lost", src, dest)
        return True

    def _enqueue(self, delivery_round: int, item: Any) -> None:
        """Queue ``item`` (in send order) for the start of ``delivery_round``."""
        if delivery_round <= self.round:
            raise ValueError(
                f"delivery round {delivery_round} is not in the future "
                f"(current round {self.round})"
            )
        self._pending.setdefault(delivery_round, []).append(item)

    def _dispatch(self, message: Message) -> None:
        receiver = self.processes.get(message.dest)
        if receiver is None or not receiver.alive:
            return  # paper model: messages to crashed members vanish
        self.stats.messages_delivered += 1
        if self.tracer is not None:
            self._trace("deliver", message.dest, message.src)
        self._receive(receiver, message)

    def _receive(self, receiver: Process, message: Message) -> None:
        """Hand one arrived message to its live receiver."""
        self._ctx.current = receiver
        receiver.on_message(self._ctx, message)
        self._ctx.current = None

    def _drain_injected(self) -> None:
        """Queue messages a fault injector placed on the wire.

        Runs right after the round bus (where chaos controllers craft
        their injections), so a message injected for ``round + 1`` is
        enqueued *before* this round's protocol step submits genuine
        traffic — injected messages deliver at the head of their round,
        in both engines.
        """
        for delivery_round, message in self.network.take_injected():
            self._enqueue(delivery_round, message)

    def _deliver_due(self) -> None:
        # A send from inside on_message lands in a later round's bucket
        # (see _enqueue), never in the one being drained.
        for message in self._pending.pop(self.round, ()):
            self._dispatch(message)

    def _apply_failures(self) -> None:
        if self.failure_model.is_null:
            return  # draws nothing, crashes nobody: skip the scans
        crashed, recovered = self.failure_model.step(
            self.round, *self._liveness_ids(), self.rngs.stream("failures"),
        )
        # The failure model returns *sets*; apply them in sorted id order
        # so crash/recovery bookkeeping and trace events never depend on
        # hash-iteration order (REP003 discipline).
        for node_id in sorted(crashed):
            process = self.processes[node_id]
            if process.alive:
                self._crash(process)
        for node_id in sorted(recovered):
            process = self.processes[node_id]
            if not process.alive:
                self._recover(process)

    def _liveness_ids(self) -> tuple[list[int], list[int]]:
        """(alive ids, crashed ids) in registration order."""
        processes = self.processes.values()
        return ([p.node_id for p in processes if p.alive],
                [p.node_id for p in processes if not p.alive])

    # -- liveness transition hooks (subclasses mirror them into their
    # own bookkeeping, e.g. the array engine's per-member masks) --------
    def _crash(self, process: Process) -> None:
        process.alive = False
        self._alive_count -= 1
        if not process.terminated:
            self._active_count -= 1
        self.stats.crashes += 1
        self._trace("crash", process.node_id)

    def _recover(self, process: Process) -> None:
        process.alive = True
        self._alive_count += 1
        if not process.terminated:
            self._active_count += 1
        self.stats.recoveries += 1
        self._trace("recover", process.node_id)

    def _note_terminate(self, process: Process) -> None:
        """Bookkeeping for a process that just terminated (see Context)."""
        self._terminated_count += 1
        if process.alive:
            self._active_count -= 1
        self._trace("terminate", process.node_id)

    # -- liveness queries (O(1); see the Process docstring) -------------
    @property
    def live_count(self) -> int:
        """Processes currently alive."""
        return self._alive_count

    @property
    def active_count(self) -> int:
        """Processes alive and not yet terminated."""
        return self._active_count

    @property
    def terminated_count(self) -> int:
        """Processes that called :meth:`Context.terminate`."""
        return self._terminated_count

    def _step_processes(self) -> None:
        """One ``on_round`` step for every live, unterminated process.

        Subclasses (the array-stepped engine) replace this with a batch
        step; everything else about the round loop is shared.
        """
        order = self._round_order
        if order is None:
            order = self._round_order = tuple(self.processes.values())
        for process in order:
            if process.alive and not process.terminated:
                self._ctx.current = process
                process.on_round(self._ctx)
                self._ctx.current = None

    def _all_done(self) -> bool:
        if self.failure_model.may_recover:
            # Crashed processes may come back; only termination counts.
            return self._terminated_count == len(self.processes)
        return self._active_count == 0

    # -- run -----------------------------------------------------------
    def run(self, until: Callable[[], bool] | None = None) -> EngineStats:
        """Run rounds until every live process terminated (or ``until``).

        ``until``, when given, is checked at each round boundary and stops
        the run early when it returns True.

        The cyclic collector is paused for the run and the caller's
        setting restored on the way out: a run allocates no reference
        cycles (``test_run_leaves_no_cyclic_garbage`` guards that), so a
        collection frees nothing and only re-walks the members' state.
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            for process in self.processes.values():
                self._ctx.current = process
                process.on_start(self._ctx)
                self._ctx.current = None
            while self.round < self.max_rounds:
                if (until() if until is not None else self._all_done()):
                    break
                self._apply_failures()
                self._deliver_due()
                self.round_bus.emit(self.round)
                self._drain_injected()
                self._step_processes()
                if self.metrics is not None:
                    self.metrics.snapshot(self)
                self.round += 1
                self.stats.rounds_executed = self.round
        finally:
            if collecting:
                gc.enable()
        return self.stats
