"""Property: after an array run, the group's member views read what the
object engine's processes hold.

The array engine builds no process: the group's items are views over
the columns the stepper and the engine write (``phase``, ``alive``,
``terminated``, ``result_ids``, ``coverage``).  A forced object run of
the same config materialises one process per member from the same spec.
Over random configs — crash and recovery (the churn campaign, or iid
crashes), start spread, partial views, push-pull, single-value gossip,
the sanitizer on or off — the views equal those processes member for
member, and the measurements taken over the group's columns equal the
ones taken over the processes.
"""

from __future__ import annotations

import math
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sanitize as sanitize
from repro.core.protocol import measure_completeness, measure_estimates
from repro.experiments import runner
from repro.experiments.params import with_params
from tests.engines import forced


def _run(config, engine: str):
    """``run_once(config)`` on ``engine``: (its member group, result)."""
    groups = []
    build = runner._build_processes

    def recording(*args, **kwargs):
        group, horizon = build(*args, **kwargs)
        groups.append(group)
        return group, horizon

    with forced(engine), mock.patch.object(
        runner, "_build_processes", recording
    ):
        result = runner.run_once(config)
    return groups[0], result


def _member(member) -> tuple:
    result = member.result
    return (
        member.node_id,
        None if result is None else (repr(result.payload), result.members),
        member.coverage_fraction, member.phase, member.alive,
        member.terminated,
    )


def _same(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or a == b


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(24, 160),
    seed=st.integers(0, 10_000),
    faults=st.sampled_from(["none", "iid", "churn"]),
    spread=st.sampled_from([0, 0, 3]),
    view=st.sampled_from([None, None, 20]),
    push_pull=st.booleans(),
    single_value=st.booleans(),
    sanitized=st.booleans(),
)
def test_group_views_are_the_object_engines_processes(
    n, seed, faults, spread, view, push_pull, single_value, sanitized,
):
    config = with_params(
        n=n, seed=seed, ucastl=0.2,
        pf=0.01 if faults == "iid" else 0.0,
        campaign="churn" if faults == "churn" else None,
        start_spread=spread, view_size=view, push_pull=push_pull,
        batch_values=not single_value,
    )
    was_active = sanitize.ACTIVE
    (sanitize.enable if sanitized else sanitize.disable)()
    try:
        group, result = _run(config, "array")
        reference, expected = _run(config, "object")
    finally:
        (sanitize.enable if was_active else sanitize.disable)()
    assert group.processes is None  # the array run built no process
    processes = reference.processes
    assert processes is not None and list(reference) == processes
    assert [_member(m) for m in group] == [_member(p) for p in processes]
    assert result.report == expected.report
    assert measure_completeness(group, n) == measure_completeness(
        processes, n
    )
    error, coverage, estimates = measure_estimates(
        group, result.report, result.true_value
    )
    error_p, coverage_p, estimates_p = measure_estimates(
        processes, expected.report, expected.true_value
    )
    assert estimates == estimates_p
    assert _same(error, error_p) and _same(coverage, coverage_p)
