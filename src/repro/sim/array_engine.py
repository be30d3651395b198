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
  (per-message latency, opaque loss hooks) fall back to per-message
  planning *in send order*, which consumes the loss stream identically.
* **Deliveries** — pending messages are stored as per-round record
  chunks (destination ids, sender rows, payload table) instead of a
  heap; :meth:`_deliver_due` masks dead receivers, groups by receiver
  with a stable sort, and applies each receiver's arrivals with one
  batched merge call (``absorb_payloads``) instead of one ``on_message``
  dispatch per message.

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
from repro.sim.network import Message, Network

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
        # Keep stray scalar sends (none in supported configurations, but
        # the Context.send path stays functional) on the base heap.
        kwargs.setdefault("fifo_fast_path", False)
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
        #: delivery round -> [(dest ids, sender rows, payload-by-row)].
        self._pending: dict[int, list[tuple]] = {}
        #: Rows whose process state changed in this round's deliveries.
        self._changed_rows: list[int] = []

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

    def _apply_failures(self) -> None:
        # Same semantics as the base loop, with the per-round alive /
        # crashed scans replaced by mask selections.  ``tolist`` hands
        # the failure model plain Python ints (campaign models index and
        # hash them).
        if self.failure_model.is_null:
            return
        alive = self.alive_rows
        alive_ids = self.row_ids[alive].tolist()
        crashed_ids = self.row_ids[~alive].tolist()
        crashed, recovered = self.failure_model.step(
            self.round, alive_ids, crashed_ids,
            self.rngs.stream("failures"),
        )
        for node_id in sorted(crashed):
            process = self.processes[node_id]
            if process.alive:
                self._crash(process)
        for node_id in sorted(recovered):
            process = self.processes[node_id]
            if not process.alive:
                self._recover(process)

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
        if planned is not None:
            delivered, delivery_round = planned
            if delivered.any():
                if delivery_round > self.round + 1:
                    payloads_by_row = list(payloads_by_row)
                self._pending.setdefault(delivery_round, []).append(
                    (dest_ids[delivered], src_rows[delivered],
                     payloads_by_row)
                )
            return
        # Per-message fallback (jitter latency, opaque loss hooks):
        # plan in send order — the loss stream is consumed exactly as
        # the object-stepped engine would.
        network = self.network
        rngs = self.rngs
        per_round: dict[int, tuple[list[int], list[int]]] = {}
        for src, dest, size, row in zip(
            src_ids.tolist(), dest_ids.tolist(),
            sizes.tolist(), src_rows.tolist(),
        ):
            message = Message(
                src=src, dest=dest, payload=payloads_by_row[row],
                size=size, sent_round=self.round,
            )
            outcome = network.plan_delivery(message, rngs)
            if outcome is None or outcome is Network.REJECTED:
                continue
            bucket = per_round.get(outcome)
            if bucket is None:
                bucket = per_round[outcome] = ([], [])
            bucket[0].append(dest)
            bucket[1].append(row)
        for delivery_round in sorted(per_round):
            dests, rows = per_round[delivery_round]
            table = payloads_by_row
            if delivery_round > self.round + 1:
                table = list(table)
            self._pending.setdefault(delivery_round, []).append(
                (np.array(dests, dtype=np.int64),
                 np.array(rows, dtype=np.int64), table)
            )

    def _drain_injected(self) -> None:
        """Queue injected messages as head-of-round delivery chunks.

        The object engine enqueues injections before the round's genuine
        sends; mirroring that here means prepend-by-construction — the
        drain runs before ``stepper.step`` appends genuine chunks for the
        same delivery round, so injected chunks sit first in the list and
        are absorbed first.  Each injection becomes a singleton chunk (its
        payload table is just ``[payload]`` indexed by pseudo-row 0).
        """
        for delivery_round, message in self.network.take_injected():
            if delivery_round <= self.round:
                raise ValueError(
                    f"injected delivery round {delivery_round} is not in "
                    f"the future (current round {self.round})"
                )
            self._pending.setdefault(delivery_round, []).append(
                (np.array([message.dest], dtype=np.int64),
                 np.array([0], dtype=np.int64), [message.payload])
            )

    def _deliver_due(self) -> None:
        chunks = self._pending.pop(self.round, None)
        if chunks:
            alive = self.alive_rows
            procs = self.row_procs
            stats = self.stats
            changed = self._changed_rows
            for dest_ids, src_rows, payloads_by_row in chunks:
                rows = self._rows_of(dest_ids)
                mask = alive[rows]
                if not mask.all():
                    # Paper model: messages to crashed members vanish.
                    rows = rows[mask]
                    src_rows = src_rows[mask]
                count = len(rows)
                if count == 0:
                    continue
                stats.messages_delivered += count
                # Group arrivals by receiver; the stable sort preserves
                # each receiver's arrival (= send) order, which is all
                # that per-message dispatch ordered (receivers never
                # touch each other's state during delivery).
                order = np.argsort(rows, kind="stable")
                rows_sorted = rows[order]
                src_list = src_rows[order].tolist()
                starts = np.flatnonzero(
                    np.r_[True, rows_sorted[1:] != rows_sorted[:-1]]
                )
                bounds = np.append(starts, count).tolist()
                for i, start in enumerate(starts.tolist()):
                    row = int(rows_sorted[start])
                    payloads = [
                        payloads_by_row[r]
                        for r in src_list[start:bounds[i + 1]]
                    ]
                    if procs[row].absorb_payloads(payloads, self.round):
                        changed.append(row)
        # Stray scalar sends (Context.send outside the block path) live
        # on the base heap; drain it too.  No-op when empty.
        super()._deliver_due()

    def _step_processes(self) -> None:
        changed = self._changed_rows
        self._changed_rows = []
        self._stepper.step(self, changed)

    # -- run -------------------------------------------------------------
    def run(self, until=None):
        self._bind_rows()
        self._stepper.bind(self)
        return super().run(until)
