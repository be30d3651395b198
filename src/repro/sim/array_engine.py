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
  one vectorized loss/latency/bandwidth decision, so the loss stream
  is consumed in send order.
* **Deliveries** — a planned block is queued in the base engine's one
  message store as a record chunk per delivery round (destination ids,
  table rows, table), in send order; the store holds nothing else.
  :meth:`_deliver_block` masks a chunk's dead receivers, groups the
  arrivals by receiver with a stable sort, and the stepper admits the
  chunk in *one pass*: every receiver side by side, each one's arrivals
  taken as in arrival order — the order per-message dispatch gives
  them.
* **Answers** — a receiver may answer an arrival (push-pull gossip).
  The stepper returns a chunk's answers as one more table; they are put
  back into the arrival order of their requests and sent as one more
  :meth:`submit_block`, right after the chunk.  That is where
  per-message dispatch sends them, so the loss stream and the next
  round's bucket order (answers before the step's sends) see the same
  sequence; under a bandwidth cap they count against the window the
  previous step's sends opened (``window_sends``), which closes only
  after delivery.

**Refusals** — a block is never a message, so whatever must see single
messages runs on the object engine: this engine raises ``ValueError``
on a tracer (at construction), on a send tap (when it is set) and on an
injected message (:meth:`inject`).  Nothing is silently
untraced, untapped or dropped.

**Equivalence contract** — every run this engine accepts is
*bit-identical* to the object-stepped engine's under the same seed:
same RNG stream consumption (per-member gossip streams are independent,
the shared loss stream is consumed in send order), same network stats,
same protocol decisions, same phase events.  The cross-engine golden suite pins this.

**Members as columns** — the engine takes one member *group* (a spec
such as ``repro.core.hierarchical_gossip.GossipGroup``) and builds no
per-member object: :meth:`add_processes` binds the group's ``alive`` and
``terminated`` columns as the row masks, and crash, recovery and
termination update those masks only.  A *row* is a member's position
in the group; ``row_ids[row]`` is its node id.

The stepper contract::

    stepper.bind(engine)                       # once, per run
    stepper.begin(engine)                      # round 0: every row starts
    stepper.step(engine)                       # one round's sends + advances
    stepper.admit(engine, rows, table_rows, table)
        # one delivered chunk, grouped by receiver; returns None or
        # (asked, answering rows, answer table)

A payload table has ``sizes`` (wire size per row) and ``owner`` (the
member row each payload came from).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.sim.engine import Process, SimulationEngine

__all__ = ["ArraySteppedEngine"]


class ArraySteppedEngine(SimulationEngine):
    """A :class:`SimulationEngine` whose round step is array-batched.

    ``stepper`` drives the per-round protocol step (sends + phase
    advances) and admission over all members at once; everything else —
    failure application, round bus, termination bookkeeping, ``run()``
    — is the base engine's, round ``metrics`` included.  A tracer, a
    send tap and injected messages are refused (see the module
    docstring); they need the object-stepped engine.  ``processes`` is
    the bound group.
    """

    def __init__(self, stepper: Any, **kwargs):
        if kwargs.get("tracer") is not None:
            raise ValueError(
                "ArraySteppedEngine does not emit per-message traces; "
                "use the object-stepped SimulationEngine for traced runs"
            )
        super().__init__(**kwargs)
        self._stepper = stepper
        self.group: Any = None
        self.row_ids = np.zeros(0, dtype=np.int64)
        self.alive_rows = np.zeros(0, dtype=bool)
        self.terminated_rows = np.zeros(0, dtype=bool)
        self._dense_rows = True
        self._sorted_ids = self._id_order = self.row_ids

    @property
    def send_tap(self) -> None:
        return None

    @send_tap.setter
    def send_tap(self, tap: object) -> None:
        if tap is not None:
            raise ValueError(
                "ArraySteppedEngine sends blocks, not messages, and taps "
                "none; use the object-stepped SimulationEngine"
            )

    def inject(self, delivery_round: int, message: Any) -> None:
        raise ValueError(
            "ArraySteppedEngine admits no injected messages; use the "
            "object-stepped SimulationEngine"
        )

    # -- the member group -----------------------------------------------
    def add_process(self, process: Process) -> None:
        raise TypeError(
            "ArraySteppedEngine takes one member group (add_processes), "
            "not processes"
        )

    def add_processes(self, processes: Any) -> None:
        """Bind the member group ``processes``' columns: its members are
        this run's rows."""
        group = processes
        if self.group is not None:
            raise ValueError("ArraySteppedEngine runs one member group")
        if not len(group):
            raise ValueError("no members in the group")
        self.group = self.processes = group
        self.alive_rows = group.alive
        self.terminated_rows = group.terminated
        self._alive_count = int(group.alive.sum())
        self._terminated_count = int(group.terminated.sum())
        self._active_count = int((group.alive & ~group.terminated).sum())

    def _bind(self) -> None:
        if self.group is None:
            raise ValueError("no member group: add_processes(group) first")
        n = len(self.group)
        ids = np.fromiter(self.group.member_ids, dtype=np.int64, count=n)
        self.row_ids = ids
        self._dense_rows = bool((ids == np.arange(n)).all())
        if not self._dense_rows:
            self._id_order = np.argsort(ids, kind="stable")
            self._sorted_ids = ids[self._id_order]
        self.window_sends = np.zeros(n, dtype=np.int64)
        self._stepper.bind(self)

    def _start(self) -> None:
        self._stepper.begin(self)

    def _rows_of(self, node_ids: np.ndarray) -> np.ndarray:
        """Member rows for an array of node ids (vectorized)."""
        if self._dense_rows:
            return node_ids
        positions = np.searchsorted(self._sorted_ids, node_ids)
        return self._id_order[positions]

    # -- liveness on the row masks --------------------------------------
    def _liveness_ids(self) -> tuple[list[int], list[int]]:
        # Mask selections instead of two scans; ``tolist`` hands the
        # failure model plain Python ints (campaign models hash them).
        alive = self.alive_rows
        return self.row_ids[alive].tolist(), self.row_ids[~alive].tolist()

    def _apply_failures(self) -> None:
        if self.failure_model.is_null:
            return  # draws nothing, crashes nobody: skip the scans
        crashed, recovered = self.failure_model.step(
            self.round, *self._liveness_ids(), self.rngs.stream("failures"),
        )
        alive, terminated = self.alive_rows, self.terminated_rows
        if crashed:
            rows = self._rows_of(np.fromiter(crashed, dtype=np.int64))
            rows = rows[alive[rows]]
            alive[rows] = False
            self._alive_count -= len(rows)
            self._active_count -= int((~terminated[rows]).sum())
            self.stats.crashes += len(rows)
        if recovered:
            rows = self._rows_of(np.fromiter(recovered, dtype=np.int64))
            rows = rows[~alive[rows]]
            alive[rows] = True
            self._alive_count += len(rows)
            self._active_count += int((~terminated[rows]).sum())
            self.stats.recoveries += len(rows)

    def terminate_rows(self, rows: np.ndarray) -> None:
        """``rows`` (live, not yet terminated) finished their protocol."""
        self.terminated_rows[rows] = True
        self._terminated_count += len(rows)
        self._active_count -= len(rows)

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
        ``table``; a sender may fan one row out to many destinations.  A
        table is never changed once submitted, so it is queued as it is
        whatever the delivery round.
        """
        if len(src_ids) == 0:
            return
        delivered, rounds = self.network.plan_delivery_block(
            src_ids, dest_ids, sizes, slots, self.round, self.rngs
        )
        dest_ids, table_rows = dest_ids[delivered], table_rows[delivered]
        if not isinstance(rounds, np.ndarray):
            if len(dest_ids):
                self._enqueue(rounds, (dest_ids, table_rows, table))
            return
        for delivery_round in np.unique(rounds).tolist():
            due = rounds == delivery_round
            self._enqueue(
                delivery_round, (dest_ids[due], table_rows[due], table)
            )

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
        begins = np.empty(total, dtype=bool)
        begins[:1] = True
        np.not_equal(answering[1:], answering[:-1], out=begins[1:])
        firsts = np.flatnonzero(begins)
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
        for chunk in self._pending.pop(self.round, ()):
            self._deliver_block(*chunk)

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
        self._stepper.step(self)
