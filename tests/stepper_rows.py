"""One member row of a ``HierarchicalArrayStepper``, in its process's terms.

The array stepper keeps a member's protocol state as columns and never
writes it into the member's process.  Twin tests put a row into a
chosen state by copying a process's (:func:`seed_row`) and compare the
row with a twin process by reading it back as that process would hold
it (:func:`read_row`).
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np


def seed_row(stepper, row: int, process) -> None:
    """Make ``row`` hold what ``process`` holds: phase, clock, both
    extensions, deliveries this phase, ``known`` (in its insertion
    order) and the future buffer.  Keys must have slots; states need
    not be placed under them."""
    phase = process.phase
    stepper._phase[row] = phase
    stepper._phase_rounds[row] = process.phase_rounds
    stepper._pext[row] = process._phase_extension
    stepper._dext[row] = process._deadline_extension
    stepper._recv[row] = process._phase_received
    stepper._place(np.array([row]))
    base = stepper._base_of(row, phase)
    slots = [stepper._slot_of(phase, base, key) for key in process.known]
    stepper._sid[row] = 0
    stepper._sid[row, slots] = stepper._register(list(process.known.values()))
    stepper._order[row, :len(slots)] = slots
    stepper._held[row] = len(slots)
    stepper._touched[row] = True
    if stepper._future_count[row]:
        stepper._take(stepper._future[:stepper._future_used, 0] == row)
    for later, bucket in process._future.items():
        stepper._buffer(
            np.full(len(bucket), row), np.full(len(bucket), later),
            [stepper._slot_of(later, stepper._base_of(row, later), key)
             for key in bucket],
            stepper._register(list(bucket.values())),
        )


def read_row(stepper, row: int) -> SimpleNamespace:
    """``row`` under its process's attribute names: ``phase``,
    ``phase_rounds``, ``_phase_extension``, ``_deadline_extension``,
    ``_phase_received``, ``known`` and ``_future``.  The buffer is read
    as ``absorb_payloads`` keeps it: per phase and key, in first-arrival
    order, the value its entries resolve to."""
    phase = int(stepper._phase[row])
    held = int(stepper._held[row])
    keys = stepper._keys(phase, int(stepper._base[row]))
    known = {
        keys[slot]: stepper._states[stepper._sid[row, slot]]
        for slot in stepper._order[row, :held].tolist()
    }
    future: dict = {}
    log = stepper._future[:stepper._future_used]
    for later, slot, sid in log[log[:, 0] == row, 1:].tolist():
        key = stepper._keys(later, stepper._base_of(row, later))[slot]
        bucket = future.setdefault(later, {})
        state = stepper._states[sid]
        if stepper._takes(state, bucket.get(key)):
            bucket[key] = state
    return SimpleNamespace(
        phase=phase,
        phase_rounds=int(stepper._phase_rounds[row]),
        _phase_extension=int(stepper._pext[row]),
        _deadline_extension=int(stepper._dext[row]),
        _phase_received=int(stepper._recv[row]),
        known=known,
        _future=future,
    )

