"""One member row of a ``HierarchicalArrayStepper``, in its process's terms.

The array stepper keeps a member's protocol state as columns and builds
no process.  Twin tests put a row into a
chosen state by copying a process's (:func:`seed_row`) and compare the
row with a twin process by reading it back as that process would hold
it (:func:`read_row`).  Values go through the group's state table: a
seeded state gets a new id, and a read builds a new ``AggregateState``
equal to it (never the same object).
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

import repro.sanitize as sanitize


def _base(stepper, row: int, phase: int) -> int:
    """The key base of ``row``'s phase-``phase`` slots: its box's first
    rank in phase 1, later its phase subtree's first child digit."""
    if phase == 1:
        return int(stepper._box_start[row])
    return int(stepper._box[row]) // stepper._k ** (phase - 1) * stepper._k


def _takes(stepper, state, current) -> bool:
    """``absorb_payloads``' take rule: a key not held, or — under
    ``prefer_coverage`` — strictly more coverage than ``current``."""
    return current is None or (
        stepper._prefer and state.members.count > current.members.count
    )


def seed_row(stepper, row: int, process) -> None:
    """Make ``row`` hold what ``process`` holds: phase, clock, both
    extensions, deliveries this phase, ``known`` (in its insertion
    order) and the future buffer.  Keys must have slots; states need
    not be placed under them.  The member's sanitizer phase clock
    restarts at the phase it is put in."""
    phase = process.phase
    sanitize.start_clock([int(stepper._ids[row])])
    stepper._phase[row] = phase
    stepper._phase_rounds[row] = process.phase_rounds
    stepper._pext[row] = process._phase_extension
    stepper._dext[row] = process._deadline_extension
    stepper._recv[row] = process._phase_received
    stepper._place(np.array([row]))
    base = _base(stepper, row, phase)
    slots = [stepper._slot_of(phase, base, key) for key in process.known]
    stepper._sid[row] = 0
    stepper._sid[row, slots] = stepper._states.extend(
        list(process.known.values())
    )
    stepper._order[row, :len(slots)] = slots
    stepper._held[row] = len(slots)
    stepper._touched[row] = True
    if stepper._future_count[row]:
        stepper._take(stepper._future[:stepper._future_used, 0] == row)
    for later, bucket in process._future.items():
        stepper._buffer(
            np.full(len(bucket), row), np.full(len(bucket), later),
            [stepper._slot_of(later, _base(stepper, row, later), key)
             for key in bucket],
            stepper._states.extend(list(bucket.values())),
        )


def read_row(stepper, row: int) -> SimpleNamespace:
    """``row`` under its process's attribute names: ``phase``,
    ``phase_rounds``, ``_phase_extension``, ``_deadline_extension``,
    ``_phase_received``, ``known`` and ``_future``.  The buffer is read
    as ``absorb_payloads`` keeps it: per phase and key, in first-arrival
    order, the value its entries resolve to."""
    phase = int(stepper._phase[row])
    held = int(stepper._held[row])
    # A finalised row is past the last phase and holds that phase's keys.
    keys = stepper._keys(
        min(phase, stepper._num_phases), int(stepper._base[row])
    )
    known = {
        keys[slot]: stepper._states[stepper._sid[row, slot]]
        for slot in stepper._order[row, :held].tolist()
    }
    future: dict = {}
    log = stepper._future[:stepper._future_used]
    for later, slot, sid in log[log[:, 0] == row, 1:].tolist():
        key = stepper._keys(later, _base(stepper, row, later))[slot]
        bucket = future.setdefault(later, {})
        state = stepper._states[sid]
        if _takes(stepper, state, bucket.get(key)):
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

