"""Round-based discrete-event simulation engine.

The paper's evaluation (Section 7) simulates a group of processes that
communicate by unreliable unicast and proceed in *gossip rounds*.  This
engine reproduces that model:

* Time advances in integer rounds, starting at round 0.
* Each round, the engine (1) applies the failure model, (2) delivers the
  messages whose latency expires this round to live processes, and
  (3) lets every live, unterminated process take a step (``on_round``),
  during which it may send messages through the network model.
* A send goes to an *outbox*; each stage that can send (``on_start``,
  delivery, the step) ends by planning it as one block
  (:meth:`~repro.sim.network.Network.plan_delivery_block`), so the
  loss and latency streams are consumed in send order.
* Messages in flight live in one store, ``_pending[delivery round]``,
  appended in send order and popped whole when the round begins: under
  every latency model arrivals are ordered by (delivery round, send
  order).  Both round engines use it.
* Between delivery and the step the engine emits its round bus, where
  every fault that changes over time (a chaos campaign) rewrites the
  network's state and injects messages (:meth:`SimulationEngine.inject`).
* Message loss, latency, partitions and per-sender bandwidth caps are
  planned by the :class:`~repro.sim.network.Network`, which does no more.
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
from itertools import compress
from typing import Any

import numpy as np

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

    @property
    def round(self) -> int:
        """The current round number."""
        return self._engine.round

    def rng_for(self, *names: str | int):
        """The acting process's named stream: the registry's own
        generator for ``("process", node_id, *names)``."""
        assert self.current is not None
        return self._engine.rngs.stream(
            "process", self.current.node_id, *names
        )

    def send(self, dest: int, payload: Any, size: int = 1) -> None:
        """Send ``payload`` to process ``dest``; fire-and-forget.

        The message may be lost in transit, or refused by the sender's
        per-round bandwidth cap (counted in
        ``NetworkStats.rejected_bandwidth``).  ``size`` is the abstract
        byte-size used for the constant-message-size check.
        """
        assert self.current is not None, "send() outside a process callback"
        self._engine._submit(self.current.node_id, dest, payload, size)

    def terminate(self) -> None:
        """Mark the acting process as finished with its protocol."""
        assert self.current is not None
        if not self.current.terminated:
            self.current.terminated = True
            self._engine._note_terminate(self.current)


class SimulationEngine:
    """Drives processes, network and failures through synchronous rounds."""

    #: The processes' shared context, only for the length of a run: it
    #: points back at the engine, so a finished run drops it and is freed
    #: by reference counting, not left to the cyclic collector.
    _ctx: Context

    def __init__(
        self,
        network: Network,
        failure_model: FailureModel | None = None,
        rngs: RngRegistry | None = None,
        max_rounds: int = 100_000,
        tracer: Tracer | None = None,
        metrics: RoundMetrics | None = None,
    ):
        self.network = network
        self.failure_model = (
            failure_model if failure_model is not None else NoFailures()
        )
        self.rngs = rngs if rngs is not None else RngRegistry(seed=0)
        self.max_rounds = max_rounds
        self.tracer = tracer
        self.metrics = metrics
        #: Begin-round event bus, empty until a chaos campaign
        #: controller (or another round-boundary probe) subscribes;
        #: subscribers run in subscription order.
        self.round_bus = RoundBus()
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
        #: This stage's sends with their bandwidth slots and (traced
        #: runs) the trace positions of their send events.
        self._outbox: list[Message] = []
        self._slots: list[int] = []
        self._traced: list[int] = []
        #: Per row (registration order), sends since the round boundary
        #: (which comes after delivery): a send's bandwidth slot.
        self.window_sends = np.zeros(0, dtype=np.int64)
        self._rows: dict[int, int] = {}
        #: Sees every submitted message before it is planned.
        self.send_tap: Callable[[Message], None] | None = None

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
        """Register processes in order.  A member spec that only describes
        its processes (one with ``materialize()``, e.g. a
        ``GossipGroup``) registers the processes it builds."""
        materialize = getattr(processes, "materialize", None)
        for process in materialize() if materialize else processes:
            self.add_process(process)

    # -- internals -----------------------------------------------------
    def _trace(self, kind: str, node: int, peer: int | None = None,
               detail: Any = None) -> None:
        if self.tracer is not None:
            self.tracer.record(
                TraceEvent(self.round, kind, node, peer, detail)
            )

    def _submit(self, src: int, dest: int, payload: Any, size: int) -> None:
        """Put one send in the outbox, at its sender's next slot."""
        window = self.window_sends
        row = self._rows[src]
        slot = int(window[row])
        window[row] = slot + 1
        self._outbox.append(Message(src, dest, payload, size, self.round))
        self._slots.append(slot)
        if self.tracer is not None:
            # Recorded now, in send order; its kind is fixed at the flush.
            self._traced.append(len(self.tracer.events))
            self._trace("send", src, dest)

    def _flush(self) -> None:
        """Plan the outbox as one block and queue what survives."""
        outbox = self._outbox
        if not outbox:
            return
        slots = self._slots
        self._outbox, self._slots = [], []
        if self.send_tap is not None:
            for message in outbox:
                self.send_tap(message)
        count = len(outbox)
        delivered, rounds = self.network.plan_delivery_block(
            np.fromiter((m.src for m in outbox), np.int64, count),
            np.fromiter((m.dest for m in outbox), np.int64, count),
            np.fromiter((m.size for m in outbox), np.int64, count),
            np.array(slots, dtype=np.int64), self.round, self.rngs,
        )
        sent = delivered.tolist()
        if self.tracer is not None:  # fix each send event's kind
            cap = self.network.max_sends_per_round
            for position, slot, kept in zip(self._traced, slots, sent):
                if not kept:
                    self.tracer.retag(position, "send_lost" if cap is None
                                      or slot < cap else "send_rejected")
            self._traced = []
        survivors = compress(outbox, sent)
        if isinstance(rounds, np.ndarray):
            for delivery_round, message in zip(rounds.tolist(), survivors):
                self._enqueue(delivery_round, message)
        else:
            self._enqueue(rounds, *survivors)

    def _enqueue(self, delivery_round: int, *items: Any) -> None:
        """Queue ``items`` (in send order) for the start of
        ``delivery_round``."""
        if delivery_round <= self.round:
            raise ValueError(
                f"delivery round {delivery_round} is not in the future "
                f"(current round {self.round})"
            )
        self._pending.setdefault(delivery_round, []).extend(items)

    def inject(self, delivery_round: int, message: Message) -> None:
        """Queue an out-of-band message for ``delivery_round``, behind
        what that round already holds (fault injection: an adversary
        writing onto the medium, past loss, latency and bandwidth, and
        never counted by the network).  Injected from round ``r``'s
        round bus for ``r + 1``, it arrives after ``r``'s delivery-time
        sends and before its step's sends."""
        self._enqueue(delivery_round, message)

    def _dispatch(self, message: Message) -> None:
        receiver = self.processes.get(message.dest)
        if receiver is None or not receiver.alive:
            return  # paper model: messages to crashed members vanish
        self.stats.messages_delivered += 1
        if self.tracer is not None:
            self._trace("deliver", message.dest, message.src)
        self._ctx.current = receiver
        receiver.on_message(self._ctx, message)
        self._ctx.current = None

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

    # -- liveness transitions --------------------------------------------
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

    def _bind(self) -> None:
        """Per-run setup before any ``on_start``: number the members in
        registration order (their *rows*), open an empty window."""
        self._rows = {
            node_id: row for row, node_id in enumerate(self.processes)
        }
        self.window_sends = np.zeros(len(self._rows), dtype=np.int64)

    def _start(self) -> None:
        """Round 0's ``on_start`` for every process, in registration order."""
        for process in self.processes.values():
            self._ctx.current = process
            process.on_start(self._ctx)
            self._ctx.current = None

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
        self._ctx = Context(self)
        try:
            self._bind()
            self._start()
            self._flush()
            while self.round < self.max_rounds:
                if (until() if until is not None else self._all_done()):
                    break
                self._apply_failures()
                self._deliver_due()
                self._flush()
                self.round_bus.emit(self.round)
                self.window_sends[:] = 0
                self._step_processes()
                self._flush()
                if self.metrics is not None:
                    self.metrics.snapshot(self)
                self.round += 1
                self.stats.rounds_executed = self.round
        finally:
            del self._ctx
            if collecting:
                gc.enable()
        return self.stats
