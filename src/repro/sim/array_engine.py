"""Array-stepped round engine: whole rounds as numpy block operations.

:class:`ArraySteppedEngine` keeps :class:`~repro.sim.engine.SimulationEngine`'s
round structure — failures, deliveries, round bus, metrics — but replaces
the two O(N·messages) Python loops of the object-stepped engine with
batched array paths:

* **Sends** — a duck-typed *stepper* (e.g.
  ``repro.core.array_stepper.HierarchicalArrayStepper``) computes one
  round's sends for *all* members as (member × destination) index blocks
  and hands them to :meth:`submit_block`, which plans the whole block
  through :meth:`~repro.sim.network.Network.plan_delivery_block` — one
  vectorized loss/latency/bandwidth decision instead of one
  ``plan_delivery`` call per message.  Models that cannot block-plan
  (per-message latency, opaque loss hooks) get the block submitted
  through the base engine's scalar ``_submit``, *in send order*, which
  consumes the loss stream identically.
* **Deliveries** — a planned block is queued in the base engine's one
  message store as a single record chunk (destination ids, sender rows,
  payload table), in send order among the scalar messages the store
  also holds (injections, per-message-planned sends);
  :meth:`_deliver_due` masks a chunk's dead receivers, groups by
  receiver with a stable sort, and applies each receiver's arrivals
  with one ``absorb_payloads`` call — the admission routine
  ``on_message`` itself runs — instead of one dispatch per message.
* **Answers** — a receiver may answer an arrival (push-pull gossip):
  ``absorb_payloads`` appends ``(position, answer)`` pairs, and the
  chunk's answers are put back into the arrival order of their
  requests and sent as one more :meth:`submit_block`, right after the
  chunk.  That is where per-message dispatch sends them, so the loss
  stream, the next round's bucket order (answers before the step's
  sends) and the per-message fallback see the same sequence; under a
  bandwidth cap they count against the window the previous step's
  sends opened (``window_sends``), which ``begin_round`` closes only
  after delivery.  A scalar arrival is answered by a scalar
  ``_submit``, exactly as ``on_message`` does it.

**Equivalence contract** — for the protocol configurations the stepper
accepts, a run on this engine is *bit-identical* to the object-stepped
engine under the same seed: same RNG stream consumption (per-member
gossip streams are independent, the shared loss stream is consumed in
send order), same network stats, same protocol decisions, same phase
events.  The cross-engine golden suite pins this.

The stepper contract is two methods::

    stepper.bind(engine)                 # once, before round 0
    stepper.step(engine, changed_rows)   # one round's sends + advances

where ``changed_rows`` lists the member rows whose protocol state
changed during this round's deliveries (the stepper's advance-candidate
signal).  Processes are identified by *row* — their position in
registration order (``row_procs``); ``row_ids[row]`` maps back to node
ids.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.sim.engine import Process, SimulationEngine
from repro.sim.network import Message

__all__ = ["ArraySteppedEngine"]


class ArraySteppedEngine(SimulationEngine):
    """A :class:`SimulationEngine` whose round step is array-batched.

    ``stepper`` drives the per-round protocol step (sends + phase
    advances) over all members at once; everything else — failure
    application, round bus, termination bookkeeping, ``run()`` — is the
    base engine's, round ``metrics`` included.  Tracing is unsupported
    (the block paths do not emit per-message trace events); attach a
    tracer to the object-stepped engine instead.
    """

    def __init__(self, stepper: Any, **kwargs):
        if kwargs.get("tracer") is not None:
            raise ValueError(
                "ArraySteppedEngine does not emit per-message traces; "
                "use the object-stepped SimulationEngine for traced runs"
            )
        super().__init__(**kwargs)
        self._stepper = stepper
        #: Members in registration order; ``row`` indexes these arrays.
        self.row_procs: list[Process] = []
        self.row_ids: np.ndarray | None = None
        self.alive_rows: np.ndarray | None = None
        self.terminated_rows: np.ndarray | None = None
        self._dense_rows = False
        self._sorted_ids: np.ndarray | None = None
        self._id_order: np.ndarray | None = None
        #: Rows whose process state changed in this round's deliveries.
        self._changed_rows: list[int] = []
        #: Per row, send attempts since the network's last
        #: ``begin_round`` — the bandwidth window a reply sent during
        #: delivery continues (the stepper records each round's sends).
        self.window_sends = np.zeros(0, dtype=np.int64)

    # -- row bookkeeping ------------------------------------------------
    def _bind_rows(self) -> None:
        procs = list(self.processes.values())
        self.row_procs = procs
        n = len(procs)
        ids = np.fromiter(
            (p.node_id for p in procs), dtype=np.int64, count=n
        )
        self.row_ids = ids
        self._dense_rows = bool(n == 0 or bool((ids == np.arange(n)).all()))
        if not self._dense_rows:
            self._id_order = np.argsort(ids, kind="stable")
            self._sorted_ids = ids[self._id_order]
        self.alive_rows = np.fromiter(
            (p.alive for p in procs), dtype=bool, count=n
        )
        self.terminated_rows = np.fromiter(
            (p.terminated for p in procs), dtype=bool, count=n
        )
        self.window_sends = np.zeros(n, dtype=np.int64)

    def _rows_of(self, node_ids: np.ndarray) -> np.ndarray:
        """Member rows for an array of node ids (vectorized)."""
        if self._dense_rows:
            return node_ids
        positions = np.searchsorted(self._sorted_ids, node_ids)
        return self._id_order[positions]

    def _row_of(self, node_id: int) -> int:
        if self._dense_rows:
            return node_id
        position = int(np.searchsorted(self._sorted_ids, node_id))
        return int(self._id_order[position])

    # -- liveness hooks mirrored into the row masks ---------------------
    def _crash(self, process: Process) -> None:
        super()._crash(process)
        if self.alive_rows is not None:
            self.alive_rows[self._row_of(process.node_id)] = False

    def _recover(self, process: Process) -> None:
        super()._recover(process)
        if self.alive_rows is not None:
            self.alive_rows[self._row_of(process.node_id)] = True

    def _note_terminate(self, process: Process) -> None:
        super()._note_terminate(process)
        if self.terminated_rows is not None:
            self.terminated_rows[self._row_of(process.node_id)] = True

    def _liveness_ids(self) -> tuple[list[int], list[int]]:
        # Mask selections instead of two scans; ``tolist`` hands the
        # failure model plain Python ints (campaign models hash them).
        alive = self.alive_rows
        return self.row_ids[alive].tolist(), self.row_ids[~alive].tolist()

    # -- batched transport ----------------------------------------------
    def submit_block(
        self,
        src_ids: np.ndarray,
        dest_ids: np.ndarray,
        sizes: np.ndarray,
        slots: np.ndarray,
        src_rows: np.ndarray,
        payloads_by_row: list,
    ) -> None:
        """Plan one round's sends (in send order) and queue survivors.

        ``payloads_by_row[src_rows[i]]`` is message ``i``'s payload; the
        per-row table is shared across the block (senders fan one
        payload out to many destinations).  It is snapshotted only when
        delivery happens more than one round out — the stepper rebuilds
        payloads *after* the next round's deliveries, so a one-round
        latency never observes a rebuilt table.
        """
        if len(src_ids) == 0:
            return
        planned = self.network.plan_delivery_block(
            src_ids, dest_ids, sizes, slots, self.round, self.rngs
        )
        if planned is None:
            # Per-message models (jitter latency, opaque loss hooks):
            # the base engine's scalar path, in send order — the loss
            # stream is consumed exactly as the object engine would.
            for src, dest, size, row in zip(
                src_ids.tolist(), dest_ids.tolist(),
                sizes.tolist(), src_rows.tolist(),
            ):
                self._submit(src, dest, payloads_by_row[row], size)
            return
        delivered, delivery_round = planned
        if delivered.any():
            if delivery_round > self.round + 1:
                payloads_by_row = list(payloads_by_row)
            self._enqueue(
                delivery_round,
                (dest_ids[delivered], src_rows[delivered], payloads_by_row),
            )

    def _receive(self, receiver: Process, message: Message) -> None:
        # A scalar arrival (an injection, a per-message-planned send) is
        # a one-payload block: same admission, same changed-row signal —
        # and a scalar answer, sent as ``on_message`` sends it (to a
        # forged sender too: planned, then dropped by ``_dispatch``).
        answers: list = []
        if receiver.absorb_payloads((message.payload,), self.round, answers):
            self._changed_rows.append(self._row_of(message.dest))
        for __, answer in answers:
            self._submit(
                message.dest, message.src, answer, answer.wire_size()
            )

    def _answer(
        self, answers: list, answered: list[tuple[int, int, int]],
        order: np.ndarray, sender_ids: np.ndarray,
    ) -> None:
        """Send what receivers answered to one delivered chunk, as a block.

        ``answers`` holds every receiver's ``(position, answer)`` pairs,
        receiver after receiver; ``answered`` names each such receiver
        as (row, index of its first arrival in the receiver-sorted
        chunk, number of answers).  ``order[i]`` is the chunk index of
        sorted arrival ``i`` and ``sender_ids[i]`` who sent it.  The
        answers go out in the arrival order of their requests — where
        per-message dispatch sends them.
        """
        rows, starts, counts = np.array(answered, dtype=np.int64).T
        total = len(answers)
        positions, payloads = zip(*answers)
        asked = np.repeat(starts, counts) + np.array(positions)
        by_arrival = np.argsort(order[asked])
        # A receiver's k-th answer here is its k-th attempt on top of
        # what it already sent in the open bandwidth window.
        first = np.cumsum(counts) - counts
        slots = (
            np.repeat(self.window_sends[rows] - first, counts)
            + np.arange(total)
        )
        self.window_sends[rows] += counts
        sizes = np.fromiter(
            (payload.wire_size() for payload in payloads),
            dtype=np.int64, count=total,
        )
        self.submit_block(
            self.row_ids[np.repeat(rows, counts)[by_arrival]],
            sender_ids[asked[by_arrival]],
            sizes[by_arrival], slots[by_arrival], by_arrival,
            list(payloads),
        )

    def _deliver_due(self) -> None:
        for item in self._pending.pop(self.round, ()):
            if isinstance(item, Message):
                self._dispatch(item)
            else:
                self._deliver_block(*item)

    def _deliver_block(
        self, dest_ids: np.ndarray, src_rows: np.ndarray,
        payloads_by_row: list,
    ) -> None:
        rows = self._rows_of(dest_ids)
        mask = self.alive_rows[rows]
        if not mask.all():
            # Paper model: messages to crashed members vanish.
            rows = rows[mask]
            src_rows = src_rows[mask]
        count = len(rows)
        if count == 0:
            return
        self.stats.messages_delivered += count
        # Group arrivals by receiver; the stable sort preserves each
        # receiver's arrival (= send) order, which is all that
        # per-message dispatch ordered (receivers never touch each
        # other's state during delivery).
        order = np.argsort(rows, kind="stable")
        rows_sorted = rows[order]
        src_sorted = src_rows[order]
        src_list = src_sorted.tolist()
        starts = np.flatnonzero(
            np.r_[True, rows_sorted[1:] != rows_sorted[:-1]]
        )
        bounds = np.append(starts, count).tolist()
        procs = self.row_procs
        changed = self._changed_rows
        answers: list = []
        #: (row, first sorted index, answer count) per answering receiver.
        answered: list[tuple[int, int, int]] = []
        answer_count = 0
        for i, start in enumerate(starts.tolist()):
            row = int(rows_sorted[start])
            payloads = [
                payloads_by_row[r] for r in src_list[start:bounds[i + 1]]
            ]
            if procs[row].absorb_payloads(payloads, self.round, answers):
                changed.append(row)
            if len(answers) != answer_count:
                answered.append((row, start, len(answers) - answer_count))
                answer_count = len(answers)
        if answers:
            # Only a stepper block is ever answered (an answer is not a
            # request), and its ``src_rows`` are member rows.
            self._answer(answers, answered, order, self.row_ids[src_sorted])

    def _step_processes(self) -> None:
        changed = self._changed_rows
        self._changed_rows = []
        self.window_sends[:] = 0  # ``begin_round`` just fired
        self._stepper.step(self, changed)

    # -- run -------------------------------------------------------------
    def run(self, until=None):
        self._bind_rows()
        self._stepper.bind(self)
        return super().run(until)
