"""Unit tests for the crash-failure models."""

import numpy as np
import pytest

from repro.sim.failures import (
    CrashRecovery,
    CrashWithoutRecovery,
    NoFailures,
    ScheduledFailures,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestNoFailures:
    def test_nothing_happens(self):
        model = NoFailures()
        crash, recover = model.step(0, [1, 2, 3], [], _rng())
        assert crash == set()
        assert recover == set()


class TestCrashWithoutRecovery:
    def test_probability_validated(self):
        with pytest.raises(ValueError):
            CrashWithoutRecovery(pf=-0.1)
        with pytest.raises(ValueError):
            CrashWithoutRecovery(pf=1.01)

    def test_zero_rate_never_crashes(self):
        model = CrashWithoutRecovery(pf=0.0)
        crash, __ = model.step(0, list(range(100)), [], _rng())
        assert crash == set()

    def test_certain_rate_crashes_everyone(self):
        model = CrashWithoutRecovery(pf=1.0)
        crash, __ = model.step(0, [1, 2, 3], [], _rng())
        assert crash == {1, 2, 3}

    def test_rate_statistics(self):
        model = CrashWithoutRecovery(pf=0.1)
        alive = list(range(50_000))
        crash, __ = model.step(0, alive, [], _rng(1))
        assert 0.09 < len(crash) / len(alive) < 0.11

    def test_never_recovers(self):
        model = CrashWithoutRecovery(pf=0.5)
        __, recover = model.step(0, [1], [2, 3], _rng())
        assert recover == set()

    def test_empty_group(self):
        model = CrashWithoutRecovery(pf=0.5)
        assert model.step(0, [], [], _rng()) == (set(), set())


class TestCrashRecovery:
    def test_recovery_statistics(self):
        model = CrashRecovery(pf=0.0, pr=0.25)
        crashed = list(range(40_000))
        __, recover = model.step(0, [], crashed, _rng(2))
        assert 0.23 < len(recover) / len(crashed) < 0.27

    def test_pr_validated(self):
        with pytest.raises(ValueError):
            CrashRecovery(pf=0.1, pr=1.5)

    def test_both_directions_in_one_step(self):
        model = CrashRecovery(pf=1.0, pr=1.0)
        crash, recover = model.step(0, [1, 2], [3], _rng())
        assert crash == {1, 2}
        assert recover == {3}


class TestScheduledFailures:
    def test_fires_at_exact_rounds(self):
        model = ScheduledFailures(
            crash_at={3: [7, 8]}, recover_at={5: [7]}
        )
        assert model.step(2, [7, 8], [], _rng()) == (set(), set())
        assert model.step(3, [7, 8], [], _rng()) == ({7, 8}, set())
        assert model.step(5, [8], [7], _rng()) == (set(), {7})

    def test_empty_schedule(self):
        model = ScheduledFailures()
        assert model.step(0, [1], [], _rng()) == (set(), set())

    def test_negative_round_rejected(self):
        with pytest.raises(ValueError, match="round numbers"):
            ScheduledFailures(crash_at={-1: [0]})
        with pytest.raises(ValueError, match="round numbers"):
            ScheduledFailures(recover_at={-3: [0]})

    def test_unknown_node_ids_rejected(self):
        with pytest.raises(ValueError, match=r"unknown node ids \[7, 9\]"):
            ScheduledFailures(
                crash_at={1: [0, 7]},
                recover_at={2: [9]},
                member_ids=range(4),
            )

    def test_known_node_ids_accepted(self):
        model = ScheduledFailures(
            crash_at={1: [0, 3]}, recover_at={2: [3]}, member_ids=range(4)
        )
        assert model.step(1, [0, 3], [], _rng()) == ({0, 3}, set())

    def test_no_member_ids_skips_validation(self):
        model = ScheduledFailures(crash_at={1: [999]})
        assert model.step(1, [], [], _rng()) == ({999}, set())

    def test_may_recover_tracks_schedule(self):
        assert not ScheduledFailures(crash_at={1: [0]}).may_recover
        assert ScheduledFailures(recover_at={2: [0]}).may_recover


class TestDrawsSelectByIndex:
    """Both models map the indices of the draws below the probability to
    ids; the old per-id comprehension over the same draws is the
    oracle."""

    @staticmethod
    def _oracle(ids, draws, p):
        return {nid for nid, draw in zip(ids, draws) if draw < p}

    @pytest.mark.parametrize("p", [0.001, 0.3, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_same_sets_as_the_comprehension(self, p, seed):
        ids_rng = np.random.default_rng(100 + seed)
        alive = ids_rng.choice(10_000, size=2_000, replace=False).tolist()
        crashed = ids_rng.choice(10_000, size=500, replace=False).tolist()
        oracle = _rng(seed)
        expected_crash = self._oracle(alive, oracle.random(len(alive)), p)
        expected_recover = self._oracle(
            crashed, oracle.random(len(crashed)), p
        )
        assert CrashWithoutRecovery(pf=p).step(
            0, alive, crashed, _rng(seed)
        ) == (expected_crash, set())
        assert CrashRecovery(pf=p, pr=p).step(
            0, alive, crashed, _rng(seed)
        ) == (expected_crash, expected_recover)
