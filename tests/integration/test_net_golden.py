"""Cross-runtime golden suite: the simulator is the net runtime's oracle.

The loopback harness (repro.net.loopback) drives real NetNodes — real
codec, real address books, real per-node contexts — under the
simulator's delivery model (one-tick latency, lossless).  Under the
same seed the two substrates must agree *exactly*: same gossip draws,
same estimates, same completeness, same round count.  Anything less
means the net runtime hosts a subtly different protocol and its
behaviour stops being evidence about the paper's.

Also pinned here: Theorem 1's completeness floor on the net runtime,
repro-run/1 schema compatibility of net reports, and bootstrap-mode
convergence (staggered starts via the join handshake).
"""

import hashlib
import math

import pytest

from repro.experiments.params import with_params
from repro.experiments.runner import run_once
from repro.net import loopback
from repro.net.loopback import run_loopback_group
from repro.obs.export import RUN_SCHEMA, run_result_record

LOSSLESS = dict(ucastl=0.0, pf=0.0)


def _pair(n, seed, rounds_factor_c=1.0, k=4):
    """(simulated result, loopback net report) under one seed."""
    sim = run_once(with_params(
        n=n, k=k, seed=seed, rounds_factor_c=rounds_factor_c, **LOSSLESS,
    ))
    net = run_loopback_group(
        n, k=k, seed=seed, rounds_factor_c=rounds_factor_c,
    )
    return sim, net


def _assert_agree(sim, net):
    assert net.converged
    assert net.rounds == sim.rounds
    assert net.completeness == sim.completeness
    assert net.mean_estimate_error == sim.mean_estimate_error
    assert net.true_value == sim.true_value


class TestSimulatorOracle:
    @pytest.mark.parametrize("n,seed,k", [
        pytest.param(16, 3, 4, id="16-3"),
        pytest.param(32, 0, 4, id="32-0"),
        pytest.param(64, 11, 4, id="64-11"),
        *(pytest.param(128, seed, 8, id=f"128-{seed}-k8")
          for seed in range(4)),
    ])
    def test_lossless_runs_agree_exactly(self, n, seed, k):
        _assert_agree(*_pair(n, seed, k=k))

    @pytest.mark.parametrize("seed", range(4))
    def test_short_budget_at_n128_k8_is_the_protocols(self, seed):
        """N=128/K=8 is 8 boxes of ~16 members and 2 phases of 5 rounds
        at M=2 (b = 2 < 4, outside Theorem 1): lossless runs stop short
        of completeness 1.0 on *both* substrates, by the same amount,
        and C=1.5 repairs both — the round budget, not the wire."""
        sim, net = _pair(128, seed, k=8)
        assert net.completeness == sim.completeness < 1.0
        sim, net = _pair(128, seed, rounds_factor_c=1.5, k=8)
        _assert_agree(sim, net)
        assert net.completeness == 1.0

    def test_every_member_finalizes_a_finite_estimate(self):
        __, net = _pair(32, 5)
        assert len(net.estimates) == 32
        for member, estimate in net.estimates.items():
            assert math.isfinite(estimate), member

    def test_theorem_bound_on_the_net_runtime(self):
        """Completeness >= 1 - 1/N with an adequate round budget."""
        for seed in range(3):
            net = run_loopback_group(32, seed=seed, rounds_factor_c=2.0)
            assert net.converged
            assert net.completeness >= 1.0 - 1.0 / 32


class TestRunRecordCompatibility:
    def test_net_report_speaks_repro_run_1(self):
        __, net = _pair(16, 3)
        record = run_result_record(net)
        assert record["schema"] == RUN_SCHEMA
        assert record["protocol"] == "hierarchical_gossip"
        assert record["n"] == 16
        assert record["campaign"] is None
        assert record["messages_rejected"] == 0
        assert isinstance(record["messages_sent"], int)
        assert isinstance(record["bytes_sent"], int)
        assert 0.0 <= record["completeness"] <= 1.0

    def test_sim_and_net_records_share_one_schema_shape(self):
        sim, net = _pair(16, 3)
        assert set(run_result_record(sim)) == set(run_result_record(net))

    def test_net_key_carries_liveness_stats_only_for_live_runs(self):
        sim, net = _pair(16, 3)
        # Both substrates emit the same "net" key; the simulator has no
        # datagram plane, so its value is None, while a live report
        # carries the liveness/codec accounting repro top builds on.
        assert run_result_record(sim)["net"] is None
        stats = run_result_record(net)["net"]
        assert stats["pings_sent"] > 0
        assert stats["pongs_received"] > 0
        assert stats["mean_rtt_ticks"] == 2.0  # loopback: 1 tick each way
        assert stats["suspected_peers"] == 0


class TestBootstrap:
    def test_join_handshake_converges_with_staggered_starts(self):
        net = run_loopback_group(
            16, seed=3, rounds_factor_c=2.0, bootstrap=True,
        )
        assert net.converged
        assert net.completeness >= 1.0 - 1.0 / 16
        # Every estimate agrees despite the staggered protocol starts
        # (isclose: average merge order differs per member, so the
        # last-ulp float rounding may too).
        for estimate in net.estimates.values():
            assert math.isclose(
                estimate, net.true_value, rel_tol=1e-12
            )

    def test_unstarted_gossip_is_dropped_loudly(self):
        net = run_loopback_group(
            16, seed=3, rounds_factor_c=2.0, bootstrap=True,
        )
        assert net.messages_dropped >= 0  # counter is wired through


class TestDeterminism:
    def test_loopback_runs_are_reproducible(self):
        first = run_loopback_group(24, seed=9)
        second = run_loopback_group(24, seed=9)
        assert first.estimates == second.estimates
        assert first.rounds == second.rounds
        assert first.messages_sent == second.messages_sent
        assert first.bytes_sent == second.bytes_sent

    def test_seed_changes_the_run(self):
        a = run_loopback_group(24, seed=1)
        b = run_loopback_group(24, seed=2)
        assert a.true_value != b.true_value

    def test_the_n128_k8_wire_bytes_are_pinned(self, monkeypatch):
        """Every frame of a seed-0 N=128/K=8 run in send order, each
        behind a four-byte length, digested as ``run_bench.py --quick``
        digests ``net_loopback_n128``: a change that moves one byte on
        the wire, or the order of the frames, fails here."""
        frames = []

        class Recording(loopback.LoopbackRouter):
            def sender_for(self, address):
                send = super().sender_for(address)

                def transport_send(data, dest):
                    frames.append(data)
                    send(data, dest)
                return transport_send

        monkeypatch.setattr(loopback, "LoopbackRouter", Recording)
        report = run_loopback_group(128, k=8, seed=0)
        digest = hashlib.sha256()
        for frame in frames:
            digest.update(len(frame).to_bytes(4, "big") + frame)
        assert report.bytes_sent == sum(map(len, frames))
        assert digest.hexdigest()[:16] == "3ceaa173211e9faa"
