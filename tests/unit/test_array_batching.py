"""Unit pins for the array engine's batched primitives.

Two stream-compatibility contracts back the cross-engine bit-identity
guarantee (see ``tests/integration/test_engine_equivalence.py`` for the
end-to-end version):

* :class:`~repro.sim.sampling.SamplerBank` serves every member row the
  exact double sequence a per-member scalar
  :class:`~repro.sim.sampling.BlockedSampler` would serve;
* :meth:`~repro.sim.network.Network.plan_delivery_block` makes the same
  decisions, keeps the same statistics and consumes the loss stream at
  the same rate whether a block is planned whole or one message at a
  time, in send order (every model, any cut into sub-blocks:
  ``tests/property/test_block_planning.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.network import LossyNetwork, PartitionedNetwork
from repro.sim.rng import RngRegistry
from repro.sim.sampling import BlockedSampler, SamplerBank


def _streams(count, seed=7):
    return [np.random.default_rng(seed * 1000 + i) for i in range(count)]


class TestSamplerBank:
    # Row subsets, draw sizes and the seed range are properties in
    # tests/property/test_stream_columns.py.
    def test_matrix_rows_match_scalar_samplers(self):
        rows = 6
        bank = SamplerBank(_streams(rows))
        reference = [BlockedSampler(g, block=0) for g in _streams(rows)]
        drawn = bank.draw_matrix(np.arange(rows, dtype=np.int64), 5)
        for row in range(rows):
            expected = [reference[row].uniform() for _ in range(5)]
            assert drawn[row].tolist() == expected


def _send_block(senders, dests, size=1):
    src = np.array(senders, dtype=np.int64)
    dest = np.array(dests, dtype=np.int64)
    sizes = np.full(len(src), size, dtype=np.int64)
    slots = np.zeros(len(src), dtype=np.int64)
    seen: dict[int, int] = {}
    for i, sender in enumerate(senders):
        slots[i] = seen.get(sender, 0)
        seen[sender] = slots[i] + 1
    return src, dest, sizes, slots


def _scalar_outcomes(network, rngs, senders, dests, sent_round=0, size=1):
    """Each message planned on its own, as a block of one at its slot:
    its delivery round, or None when lost or refused."""
    src, dest, sizes, slots = _send_block(senders, dests, size)
    outcomes = []
    for i in range(len(src)):
        one = slice(i, i + 1)
        delivered, delivery_round = network.plan_delivery_block(
            src[one], dest[one], sizes[one], slots[one], sent_round, rngs
        )
        outcomes.append(int(delivery_round) if delivered[0] else None)
    return outcomes


class TestPlanDeliveryBlock:
    SENDERS = [0, 0, 0, 0, 1, 1, 2, 3, 3, 3]
    DESTS = [5, 6, 7, 8, 5, 9, 4, 0, 1, 2]

    def _compare(self, make_network, expect_rejections=False):
        scalar_net = make_network()
        block_net = make_network()
        scalar_rngs = RngRegistry(seed=11)
        block_rngs = RngRegistry(seed=11)
        outcomes = _scalar_outcomes(
            scalar_net, scalar_rngs, self.SENDERS, self.DESTS
        )
        src, dest, sizes, slots = _send_block(self.SENDERS, self.DESTS)
        delivered, delivery_round = block_net.plan_delivery_block(
            src, dest, sizes, slots, 0, block_rngs
        )
        assert expect_rejections == (block_net.stats.rejected_bandwidth > 0)
        assert delivered.tolist() == [o is not None for o in outcomes]
        for outcome in outcomes:
            if isinstance(outcome, int):
                assert outcome == delivery_round
        for field in ("sent", "dropped", "rejected_bandwidth",
                      "bytes_sent", "dropped_cross_partition"):
            assert (
                getattr(block_net.stats, field)
                == getattr(scalar_net.stats, field)
            ), field
        assert (
            block_net.stats.per_sender_sent
            == scalar_net.stats.per_sender_sent
        )
        # Same stream position: the next loss double must match.
        assert (
            block_rngs.stream("network", "loss").random()
            == scalar_rngs.stream("network", "loss").random()
        )

    def test_lossy_matches_scalar(self):
        self._compare(lambda: LossyNetwork(ucastl=0.4))

    def test_lossless_consumes_no_draws(self):
        self._compare(lambda: LossyNetwork(ucastl=0.0))

    def test_bandwidth_cap_matches_scalar(self):
        self._compare(
            lambda: LossyNetwork(ucastl=0.4, max_sends_per_round=3),
            expect_rejections=True,
        )

    def test_partitioned_matches_scalar(self):
        self._compare(
            lambda: PartitionedNetwork(
                partition_of=lambda nodes: nodes >= 5,
                partl=0.9,
                ucastl=0.1,
            )
        )

    def test_oversized_message_raises_like_scalar(self):
        from repro.sim.network import MessageTooLarge

        network = LossyNetwork(ucastl=0.0, max_message_size=8)
        src, dest, sizes, slots = _send_block([0, 1], [2, 3], size=9)
        with pytest.raises(MessageTooLarge):
            network.plan_delivery_block(
                src, dest, sizes, slots, 0, RngRegistry(seed=1)
            )


class TestArrayEngineGuards:
    def test_tracer_rejected(self):
        from repro.sim.array_engine import ArraySteppedEngine
        from repro.sim.trace import Tracer

        with pytest.raises(ValueError, match="trace"):
            ArraySteppedEngine(
                stepper=object(),
                network=LossyNetwork(ucastl=0.0),
                rngs=RngRegistry(seed=0),
                tracer=Tracer(),
            )

    def test_unsupported_reasons(self):
        # A shim kept for callers that still ask: the stepper runs every
        # ``GossipParams``, single-value gossip included.
        from repro.core.array_stepper import unsupported_reason
        from repro.core.hierarchical_gossip import GossipParams

        for params in (
            GossipParams(),
            GossipParams(batch_values=False),
            GossipParams(batch_values=False, independent_values=True,
                         push_pull=True),
            GossipParams(adaptive_deadlines=True),
            GossipParams(representative_fraction=0.5, final_retransmit=2),
        ):
            assert unsupported_reason(params) is None
