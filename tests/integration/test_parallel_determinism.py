"""Determinism regressions: parallel == serial, one arrival order.

Every optimization in this repository must be invisible in the numbers:
the parallel executor fans out independently seeded runs (pinned
end-to-end through :func:`run_once`), and the engine's one message
store delivers in (delivery round, send order) whatever the latency
model does.
"""

from __future__ import annotations

from itertools import count

import numpy as np
import pytest

from repro.experiments.parallel import run_many, run_seeds
from repro.experiments.params import with_params
from repro.experiments.runner import incompleteness_samples
from repro.experiments.sweep import Sweep
from repro.obs.export import run_result_record
from repro.sim.engine import Process, SimulationEngine
from repro.sim.network import JitterNetwork
from repro.sim.rng import RngRegistry

BASE = with_params(n=64, seed=11)


class TestParallelMatchesSerial:
    def test_incompleteness_samples(self):
        serial = incompleteness_samples(BASE, runs=6, jobs=1)
        parallel = incompleteness_samples(BASE, runs=6, jobs=4)
        assert parallel == serial  # bit-identical, not approximately

    def test_sweep_run(self):
        cells = [{"ucastl": 0.1}, {"ucastl": 0.3}]
        serial = Sweep(BASE, runs=4).run(cells, jobs=1)
        parallel = Sweep(BASE, runs=4).run(cells, jobs=4)
        assert parallel.headers == serial.headers
        assert parallel.rows == serial.rows  # bit-identical table

    def test_results_cross_the_pipe_unchanged(self):
        """A worker's result arrives as ``run_once`` built it: the
        record and both per-member maps, key order included."""
        configs = [
            with_params(n=64, pf=0.01, seed=3),
            with_params(n=48, protocol="flood", seed=4),
            with_params(n=64, campaign="tamper-forge", seed=5),
            with_params(n=64, collect_telemetry=True, seed=6),
        ]

        def contents(results):
            return [
                (run_result_record(r), list(r.report.per_member.items()),
                 list(r.report.per_member_initial.items()))
                for r in results
            ]

        serial = contents(run_many(configs, jobs=1))
        assert contents(run_many(configs, jobs=2)) == serial
        assert serial[2][0]["adversarial"] is not None
        assert serial[3][0]["telemetry"] is not None

    def test_run_seeds_groups_each_cell_in_order(self):
        cells = [with_params(n=32, ucastl=loss, seed=seed)
                 for loss, seed in ((0.1, 0), (0.3, 10), (0.5, 20))]
        flat = run_many(
            [cell.with_seed(cell.seed + offset)
             for cell, runs in zip(cells, (1, 3, 2))
             for offset in range(runs)],
            jobs=1,
        )
        expected = [flat[0:1], flat[1:4], flat[4:6]]
        grouped = run_seeds(cells, (1, 3, 2), jobs=2)
        assert [[run_result_record(r) for r in group] for group in grouped] \
            == [[run_result_record(r) for r in group] for group in expected]
        assert [[r.config.seed for r in group] for group in grouped] == [
            [0], [10, 11, 12], [20, 21],
        ]

    def test_sweep_rejects_heterogeneous_cells(self):
        with pytest.raises(ValueError, match="cell 1"):
            Sweep(BASE, runs=1).run([{"ucastl": 0.1}, {"pf": 0.01}])


class TestArrivalOrder:
    def test_delivery_round_then_send_order_under_jitter(self):
        """Arrivals are ordered by (delivery round, send order) — with
        per-message latency reordering sends, and with sends issued
        from inside ``on_message`` interleaved with round-step sends."""
        sent = []      # send numbers, in send order (the send tap)
        rounds = []    # delivery rounds, in send order (the planner)
        arrivals = []  # (arrival round, send number), in arrival order
        numbers = count()

        class Recording(JitterNetwork):
            def plan_delivery_block(self, *args):
                delivered, when = super().plan_delivery_block(*args)
                assert delivered.all()  # lossless
                rounds.extend(np.broadcast_to(when, delivered.shape).tolist())
                return delivered, when

        class Chatter(Process):
            def _send(self, ctx):
                ctx.send(1 - self.node_id, next(numbers))

            def on_round(self, ctx):
                if ctx.round < 12:
                    for __ in range(3):
                        self._send(ctx)
                elif ctx.round > 40:  # past every latency (cap 16)
                    ctx.terminate()

            def on_message(self, ctx, message):
                arrivals.append((ctx.round, message.payload))
                if message.payload % 2 == 0 and ctx.round < 12:
                    self._send(ctx)  # a send from inside delivery

        engine = SimulationEngine(
            network=Recording(mean_extra_latency=2.0),
            rngs=RngRegistry(seed=4),
        )
        engine.add_processes([Chatter(0), Chatter(1)])
        engine.send_tap = lambda message: sent.append(message.payload)
        engine.run()
        planned = list(zip(rounds, sent))
        assert len(arrivals) == len(planned) > 72  # replies happened
        assert arrivals == sorted(planned)
        # ... and jitter really did overtake: not plain send order.
        assert arrivals != sorted(arrivals, key=lambda a: a[1])
