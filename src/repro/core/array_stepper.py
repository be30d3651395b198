"""Vectorized round stepping for :class:`HierarchicalGossipProcess` groups.

:class:`HierarchicalArrayStepper` plugs into
:class:`~repro.sim.array_engine.ArraySteppedEngine` and computes one
gossip round for *all* members as array operations:

* gossip-target selection is Floyd's k-subset algorithm vectorized over
  member blocks grouped by draw count, consuming each member's
  ``process/<id>/gossip`` stream through a shared
  :class:`~repro.sim.sampling.SamplerBank` — the same doubles, in the
  same per-member order, as the object engine's per-member
  :class:`~repro.sim.sampling.BlockedSampler`;
* batch payloads are rebuilt (object-side, via
  ``build_round_payload``) only for members whose ``known`` changed —
  exactly the rounds the object engine rebuilds its batch cache — and
  *after* that member's target draws, preserving within-member draw
  order;
* phase advancement runs the real object-side ``_maybe_advance`` (same
  compose, sanitizer checks and phase events), but only on *candidate*
  members — those whose state could have completed a phase this round:
  deliveries changed their ``known``, their phase timed out, they took
  their first step (singleton boxes complete instantly), or the global
  final-phase deadline arrived.  Everyone else provably cannot advance,
  so skipping them changes nothing.

**Bit-identity argument.**  Per-member gossip streams are independent,
so batching target draws across members never changes any member's
values.  Within a member, the object engine draws targets first, then
any batch-subset doubles — the stepper does the same.  Sends are
assembled in member (row) order with picks in draw order, so the shared
network loss stream is consumed in the object engine's exact send
order.  Running all sends before all advances is order-equivalent
because a member's advance mutates only its own state and sends
nothing: the one send a member makes outside its own gossip step is a
push-pull reply, and on both engines that is planned during *delivery*
— before the round bus, so before any member steps — by
``absorb_payloads`` and the engine, never here.  All the step owes the
replies is ``engine.window_sends``: each sender's attempts this round,
which the next delivery's replies continue under a bandwidth cap.  The
cross-engine golden suite pins all of this.

Supported configurations — enforced by :meth:`bind` and summarized by
:func:`unsupported_reason`: batch-mode hierarchical gossip.  Everything
else (networks, failure models, chaos campaigns, partial views, start
waves, phase sinks, push-pull, partial representation with final-phase
retransmission, adaptive deadlines) is supported: the candidate set
above is a superset of every timeout, extended or not, and
``_maybe_advance`` runs the real ``_maybe_extend``.
"""

from __future__ import annotations

import numpy as np

from repro.core.hierarchical_gossip import (
    GossipParams,
    HierarchicalGossipProcess,
)
from repro.sim.sampling import BANK_BLOCK, SamplerBank

__all__ = ["HierarchicalArrayStepper", "unsupported_reason"]

#: Own-index sentinel for members whose pool already excludes them
#: (partial views): no pick ever reaches it, so no shift is applied.
_NO_SELF = np.iinfo(np.int64).max


def unsupported_reason(params: GossipParams) -> str | None:
    """Why these protocol params cannot run on the array stepper.

    ``None`` means supported.  The one unsupported knob changes what
    happens *inside* the round step in a way the batched path does not
    replicate: single-value gossip draws per-destination values.
    """
    if not params.batch_values:
        return "single-value gossip (batch_values=False)"
    return None


class HierarchicalArrayStepper:
    """One stepper instance drives one engine's member group."""

    def __init__(self) -> None:
        self._procs: list[HierarchicalGossipProcess] = []
        self._ctx = None
        self._bank: SamplerBank | None = None

    # -- binding ---------------------------------------------------------
    def bind(self, engine) -> None:
        procs = engine.row_procs
        if not procs:
            raise ValueError("no processes registered")
        for proc in procs:
            if not isinstance(proc, HierarchicalGossipProcess):
                raise TypeError(
                    f"array stepping requires HierarchicalGossipProcess "
                    f"members, got {type(proc).__name__}"
                )
        first = procs[0]
        reason = unsupported_reason(first.params)
        if reason is not None:
            raise ValueError(f"array engine unsupported: {reason}")
        for proc in procs:
            if (
                proc.params is not first.params
                or proc.rounds_per_phase != first.rounds_per_phase
                or proc.num_phases != first.num_phases
            ):
                raise ValueError(
                    "array stepping requires a homogeneous group "
                    "(shared GossipParams and hierarchy)"
                )
        n = len(procs)
        self._procs = procs
        self._ctx = engine._ctx
        self._fanout = first.params.fanout_m
        self._rpp = first.rounds_per_phase
        self._num_phases = first.num_phases
        self._deadline = self._num_phases * self._rpp
        self._phase = np.fromiter(
            (p.phase for p in procs), dtype=np.int64, count=n
        )
        self._phase_rounds = np.fromiter(
            (p.phase_rounds for p in procs), dtype=np.int64, count=n
        )
        self._start = np.fromiter(
            (p.start_round for p in procs), dtype=np.int64, count=n
        )
        self._spread = bool((self._start > 0).any())
        self._started = np.zeros(n, dtype=bool)
        self._cand = np.zeros(n, dtype=bool)
        #: Per-row ``_is_representative()`` of the current phase, and the
        #: final-phase rounds at which sidelined members send anyway.
        self._all_rep = first.params.representative_fraction >= 1.0
        self._is_rep = np.ones(n, dtype=bool)
        self._retransmit_rounds = sorted(first._retransmit_rounds)
        #: Rows whose cached payload is stale (known changed, phase
        #: changed, or the member is over the batch cap and redraws a
        #: subset every round).
        self._needs_payload = np.ones(n, dtype=bool)
        self._payloads: list = [None] * n
        self._sizes = np.zeros(n, dtype=np.int64)
        # Flattened gossipee pools: members of one subtree share one
        # pool tuple (the assignment caches them), so each distinct
        # tuple is materialized once into ``_pool_data`` and rows point
        # at its segment.  The segment dict pins the tuples, keeping
        # ``id`` keys sound.
        self._pool_offset = np.zeros(n, dtype=np.int64)
        self._pool_size = np.zeros(n, dtype=np.int64)  # excludes self
        self._own_index = np.full(n, _NO_SELF, dtype=np.int64)
        self._pool_data = np.empty(max(1024, 2 * n), dtype=np.int64)
        self._pool_used = 0
        self._segments: dict[int, tuple[int, tuple]] = {}
        for row, proc in enumerate(procs):
            self._refresh_row(row, proc)
        self._needs_payload[:] = True
        rngs = engine.rngs
        self._bank = SamplerBank(
            (rngs.stream("process", p.node_id, "gossip") for p in procs),
            block=max(BANK_BLOCK, self._fanout),
        )

    def _intern_pool(self, pool: tuple) -> int:
        """Segment offset of ``pool`` in the flat table (interned)."""
        segment = self._segments.get(id(pool))
        if segment is not None:
            return segment[0]
        size = len(pool)
        used = self._pool_used
        data = self._pool_data
        if used + size > len(data):
            grown = np.empty(
                max(2 * len(data), used + size), dtype=np.int64
            )
            grown[:used] = data[:used]
            self._pool_data = data = grown
        data[used:used + size] = pool
        self._pool_used = used + size
        self._segments[id(pool)] = (used, pool)
        return used

    def _refresh_row(self, row: int, proc: HierarchicalGossipProcess) -> None:
        """Resync one member's arrays after a phase change (or at bind)."""
        pool, own_index = proc._peers_for_phase(proc.phase)
        self._pool_offset[row] = self._intern_pool(pool)
        if own_index is None:
            self._own_index[row] = _NO_SELF
            self._pool_size[row] = len(pool)
        else:
            self._own_index[row] = own_index
            self._pool_size[row] = len(pool) - 1
        self._phase[row] = proc.phase
        self._phase_rounds[row] = proc.phase_rounds
        self._is_rep[row] = proc._is_representative()
        self._needs_payload[row] = True

    # -- one round -------------------------------------------------------
    def step(self, engine, changed_rows: list[int]) -> None:
        procs = self._procs
        round_number = engine.round
        candidates = self._cand
        candidates[:] = False
        if changed_rows:
            changed = np.asarray(changed_rows, dtype=np.int64)
            candidates[changed] = True
            self._needs_payload[changed] = True
        stepped = engine.alive_rows & ~engine.terminated_rows
        if self._spread:
            stepped &= self._start <= round_number
        # ---- sends: member-major, picks in draw order ----------------
        senders = stepped & (self._pool_size >= 1)
        if not self._all_rep:
            # ``_gossip``'s gate: a representative, or ``_retransmit_due``.
            senders &= self._is_rep | (
                (self._phase >= self._num_phases)
                & np.isin(self._phase_rounds, self._retransmit_rounds)
            )
        rows = np.flatnonzero(senders)
        if len(rows):
            pool_sizes = self._pool_size[rows]
            counts = np.minimum(self._fanout, pool_sizes)
            total = int(counts.sum())
            offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
            dest_flat = np.empty(total, dtype=np.int64)
            drawing = counts < pool_sizes
            for count in np.unique(counts[drawing]).tolist():
                self._pick_targets(
                    rows, drawing & (counts == count), int(count),
                    pool_sizes, offsets, dest_flat, draw=True,
                )
            for count in np.unique(counts[~drawing]).tolist():
                self._pick_targets(
                    rows, ~drawing & (counts == count), int(count),
                    pool_sizes, offsets, dest_flat, draw=False,
                )
            # Payload rebuilds consume each member's stream *after* its
            # target draws — the object engine's order.
            bank = self._bank
            payloads = self._payloads
            sizes = self._sizes
            for row in self._rebuild_rows(rows):
                proc = procs[row]
                payload, size = proc.build_round_payload(
                    bank.row_sampler(row)
                )
                payloads[row] = payload
                sizes[row] = size
                # Over the batch cap the object engine rebuilds (and
                # redraws the subset) every round — mirror that.
                self._needs_payload[row] = proc._batch_cache.push is None
            src_rows = np.repeat(rows, counts)
            engine.window_sends[rows] = counts
            engine.submit_block(
                engine.row_ids[src_rows],
                dest_flat,
                sizes[src_rows],
                np.arange(total) - np.repeat(offsets, counts),
                src_rows,
                payloads,
            )
        # ---- clocks and advance candidates ---------------------------
        self._phase_rounds[stepped] += 1
        candidates |= ~self._started  # first step: singleton boxes
        self._started |= stepped
        phases = self._phase
        candidates |= (
            (self._phase_rounds >= self._rpp)
            & (phases < self._num_phases)
        )
        candidates |= (
            (phases >= self._num_phases)
            & (round_number - self._start + 1 >= self._deadline)
        )
        candidates &= stepped
        ctx = self._ctx
        phase_rounds = self._phase_rounds
        for row in np.flatnonzero(candidates).tolist():
            proc = procs[row]
            proc.phase_rounds = int(phase_rounds[row])
            ctx.current = proc
            proc._maybe_advance(ctx)
            ctx.current = None
            if proc.terminated:
                continue
            if proc.phase != phases[row]:
                self._refresh_row(row, proc)

    def _rebuild_rows(self, sender_rows: np.ndarray) -> list[int]:
        """Sender rows whose payload must be (re)built this round."""
        return sender_rows[self._needs_payload[sender_rows]].tolist()

    def _pick_targets(
        self,
        rows: np.ndarray,
        selector: np.ndarray,
        count: int,
        pool_sizes: np.ndarray,
        offsets: np.ndarray,
        dest_flat: np.ndarray,
        draw: bool,
    ) -> None:
        """Fill ``dest_flat`` for the senders in ``selector``.

        ``draw=True`` runs Floyd's k-subset algorithm vectorized over
        the block (``count`` doubles per member, int64 truncation —
        bit-identical to the scalar ``pick_distinct``); ``draw=False``
        is the full-pool case (``count == pool size``), which consumes
        no randomness and targets every pool slot in order.
        """
        group = rows[selector]
        if len(group) == 0:
            return
        if draw:
            uniforms = self._bank.draw_matrix(group, count)
            sizes = pool_sizes[selector]
            picks = np.empty((len(group), count), dtype=np.int64)
            for step in range(count):
                j = sizes - count + step
                t = (uniforms[:, step] * (j + 1)).astype(np.int64)
                if step:
                    collided = (picks[:, :step] == t[:, None]).any(axis=1)
                    picks[:, step] = np.where(collided, j, t)
                else:
                    picks[:, 0] = t
        else:
            picks = np.broadcast_to(
                np.arange(count, dtype=np.int64), (len(group), count)
            )
        # Map draws over pool-minus-self onto pool indices, then ids.
        indices = picks + (picks >= self._own_index[group][:, None])
        dest = self._pool_data[
            self._pool_offset[group][:, None] + indices
        ]
        positions = offsets[selector][:, None] + np.arange(count)
        dest_flat[positions] = dest
