"""Array-stepped round engine: whole rounds as numpy block operations.

:class:`ArraySteppedEngine` keeps :class:`~repro.sim.engine.SimulationEngine`'s
round structure — failures, deliveries, round bus, metrics — but hands
the protocol's side of a round to a duck-typed *stepper* (e.g.
``repro.core.array_stepper.HierarchicalArrayStepper``) that keeps every
member's protocol state as columns, one *row* per member, instead of
calling into one process object per member and message:

* **Sends** — the stepper computes one round's sends for *all* members
  as (member × destination) index blocks and hands them to
  :meth:`submit_block` with a *payload table* of sender row snapshots.
  :meth:`~repro.sim.network.Network.plan_delivery_block` plans it in
  one vectorized loss/latency/bandwidth decision.  Models that cannot
  block-plan (per-message latency, loss hooks without a block form) get
  it through the base engine's scalar ``_submit``, *in send order*, each
  table row built into its payload object — the loss stream is consumed
  identically.
* **Deliveries** — a planned block is queued in the base engine's one
  message store as a single record chunk (destination ids, table rows,
  table), in send order among the scalar messages the store also holds
  (injections, per-message-planned sends).  :meth:`_deliver_block`
  masks a chunk's dead receivers, groups the arrivals by receiver with
  a stable sort, and the stepper admits the chunk in *waves*: wave ``w``
  takes the ``w``-th arrival of every receiver at once, so receivers
  are admitted side by side and each one's arrivals in arrival order —
  the order per-message dispatch gives them.  A scalar arrival goes to
  the stepper one at a time (:meth:`_receive`), which admits it into
  the receiver's row too.  Every adversarial run — the only kind with
  an admission screen armed — plans per message, so its arrivals are
  all scalar and the screen sees each one.
* **Answers** — a receiver may answer an arrival (push-pull gossip).
  The stepper returns a chunk's answers as one more table; they are put
  back into the arrival order of their requests and sent as one more
  :meth:`submit_block`, right after the chunk.  That is where
  per-message dispatch sends them, so the loss stream, the next round's
  bucket order (answers before the step's sends) and the per-message
  fallback see the same sequence; under a bandwidth cap they count
  against the window the previous step's sends opened
  (``window_sends``), which ``begin_round`` closes only after delivery.
  A scalar arrival's answer is the receiver's next attempt in that same
  window, planned and sent as one message.

**Equivalence contract** — for the protocol configurations the stepper
accepts, a run on this engine is *bit-identical* to the object-stepped
engine under the same seed: same RNG stream consumption (per-member
gossip streams are independent, the shared loss stream is consumed in
send order), same network stats, same protocol decisions, same phase
events.  The cross-engine golden suite pins this.

The stepper contract::

    stepper.bind(engine)                       # once, before round 0
    stepper.step(engine)                       # one round's sends + advances
    stepper.admit(engine, rows, table_rows, table)
        # one delivered chunk, grouped by receiver; returns None or
        # (asked, answering rows, answer table)
    stepper.receive(engine, row, payload)
        # one scalar arrival; returns None or its answer payload

A payload table has ``sizes`` (wire size per row), ``owner`` (the
member row each payload came from) and ``payloads(rows)`` (those rows
as payload objects).  A *row* is a process's position in registration
order (``row_procs``); ``row_ids[row]`` is its node id.
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
    advances) and admission over all members at once; everything else —
    failure application, round bus, termination bookkeeping, ``run()``
    — is the base engine's, round ``metrics`` included.  Tracing is
    unsupported (the block paths do not emit per-message trace events);
    attach a tracer to the object-stepped engine instead.
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
        table_rows: np.ndarray,
        table: Any,
    ) -> None:
        """Plan one block of sends (in send order) and queue survivors.

        Message ``i`` carries row ``table_rows[i]`` of the payload
        ``table``; senders fan one row out to many destinations.  A
        table is never changed once submitted, so it is queued as it is
        whatever the delivery round.
        """
        if len(src_ids) == 0:
            return
        planned = self.network.plan_delivery_block(
            src_ids, dest_ids, sizes, slots, self.round, self.rngs
        )
        if planned is None:
            # Per-message models (jitter latency, custom loss hooks):
            # the base engine's scalar path, in send order — the loss
            # stream is consumed exactly as the object engine would.
            for src, dest, size, payload in zip(
                src_ids.tolist(), dest_ids.tolist(),
                sizes.tolist(), table.payloads(table_rows.tolist()),
            ):
                self._submit(src, dest, payload, size)
            return
        delivered, delivery_round = planned
        if delivered.any():
            self._enqueue(
                delivery_round,
                (dest_ids[delivered], table_rows[delivered], table),
            )

    def _receive(self, receiver: Process, message: Message) -> None:
        # A scalar arrival is admitted on its own.  Its answer is the
        # receiver's next attempt in the bandwidth window its sends
        # opened, as a chunk's answers are, and goes out as a message —
        # to a forged sender too: planned, then dropped by ``_dispatch``.
        row = self._row_of(message.dest)
        answer = self._stepper.receive(self, row, message.payload)
        if answer is None:
            return
        size = answer.wire_size()
        slot = self.window_sends[row]
        self.window_sends[row] += 1
        planned = self.network.plan_delivery_block(
            np.array([message.dest]), np.array([message.src]),
            np.array([size]), np.array([slot]), self.round, self.rngs,
        )
        if planned is None:  # a per-message network counts the window
            self._submit(message.dest, message.src, answer, size)
        elif planned[0][0]:
            self._enqueue(planned[1], Message(
                src=message.dest, dest=message.src, payload=answer,
                size=size, sent_round=self.round,
            ))

    def _answer(
        self, asked: np.ndarray, answering: np.ndarray, answers: Any,
        order: np.ndarray, requesters: np.ndarray,
    ) -> None:
        """Send what receivers answered to one delivered chunk, as a block.

        Answer ``i`` (row ``i`` of the ``answers`` table) is from member
        row ``answering[i]`` to row ``requesters[i]``, in reply to
        receiver-sorted arrival ``asked[i]`` (ascending, so a receiver's
        answers are adjacent and in arrival order); ``order[j]`` is the
        chunk index of sorted arrival ``j``.  The answers go out in the
        arrival order of their requests — where per-message dispatch
        sends them.
        """
        total = len(asked)
        firsts = np.flatnonzero(
            np.r_[True, answering[1:] != answering[:-1]]
        )
        counts = np.diff(np.append(firsts, total))
        # A receiver's k-th answer here is its k-th attempt on top of
        # what it already sent in the open bandwidth window.
        slots = (
            self.window_sends[answering]
            + np.arange(total) - np.repeat(firsts, counts)
        )
        self.window_sends[answering[firsts]] += counts
        by_arrival = np.argsort(order[asked])
        self.submit_block(
            self.row_ids[answering[by_arrival]],
            self.row_ids[requesters[by_arrival]],
            answers.sizes[by_arrival], slots[by_arrival], by_arrival,
            answers,
        )

    def _deliver_due(self) -> None:
        for item in self._pending.pop(self.round, ()):
            if isinstance(item, Message):
                self._dispatch(item)
            else:
                self._deliver_block(*item)

    def _deliver_block(
        self, dest_ids: np.ndarray, table_rows: np.ndarray, table: Any,
    ) -> None:
        rows = self._rows_of(dest_ids)
        mask = self.alive_rows[rows]
        if not mask.all():
            # Paper model: messages to crashed members vanish.
            rows = rows[mask]
            table_rows = table_rows[mask]
        count = len(rows)
        if count == 0:
            return
        self.stats.messages_delivered += count
        # Group arrivals by receiver; the stable sort preserves each
        # receiver's arrival (= send) order, which is all that
        # per-message dispatch ordered (receivers never touch each
        # other's state during delivery).
        order = np.argsort(rows, kind="stable")
        sorted_rows = table_rows[order]
        answered = self._stepper.admit(self, rows[order], sorted_rows, table)
        if answered is not None:
            # Only a stepper block is ever answered (an answer is not a
            # request), and its table rows come from member rows.
            asked, answering, answers = answered
            self._answer(
                asked, answering, answers, order,
                table.owner[sorted_rows[asked]],
            )

    def _step_processes(self) -> None:
        self.window_sends[:] = 0  # ``begin_round`` just fired
        self._stepper.step(self)

    # -- run -------------------------------------------------------------
    def run(self, until=None):
        self._bind_rows()
        self._stepper.bind(self)
        return super().run(until)
