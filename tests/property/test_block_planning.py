"""Property: a send sequence planned as one block equals the same
sequence planned as consecutive sub-blocks, blocks of one included.

:meth:`~repro.sim.network.Network.plan_delivery_block` is the only
planner, and the engines cut their sends into blocks where their stages
end: one block per stage on the object engine, one per send block (plus
the outbox before it) on the array engine.  Every network model must
therefore decide the same fates however a round's sends are cut — same
delivered masks, same delivery rounds, same ``NetworkStats`` (the
cause counters and ``per_sender_sent`` included) and the same next
draw of both the loss and the latency stream.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.campaign import ChaosNetwork
from repro.sim.network import (
    JitterNetwork,
    LossyNetwork,
    PartitionedNetwork,
    TopologyNetwork,
)
from repro.sim.rng import RngRegistry

MEMBERS = 12


def _hops(src: int, dest: int) -> int | None:
    if (src + dest) % 7 == 0:
        return None  # unroutable
    return abs(src - dest) % 4


def _chaos(**kwargs) -> ChaosNetwork:
    return ChaosNetwork(base_loss=0.2, **kwargs)


def _halves(nodes: np.ndarray) -> np.ndarray:
    return nodes >= MEMBERS // 2


def _partitioned(**kwargs) -> PartitionedNetwork:
    return PartitionedNetwork(
        partition_of=_halves, partl=0.8, ucastl=0.2, **kwargs
    )


def _heal(network: PartitionedNetwork, round_number: int) -> None:
    """The partition holds for rounds 0 and 1, then heals."""
    if round_number == 2:
        network.partition = None


#: A region outage's floors by (source, destination) region: three
#: regions of four members, region 0 cut off (0.95 out, 0.7 in), 0.35
#: between the other two.
REGION_FLOORS = np.array([
    [0.95, 0.95, 0.95],
    [0.7, 0.35, 0.35],
    [0.7, 0.35, 0.35],
])


def _chaos_round(network: ChaosNetwork, round_number: int) -> None:
    """A partition, a region outage and a latency burst, by turns: the
    partition switches on and off, as a campaign's windows do."""
    network.partition = {
        0: (lambda ids: ids % 2, 0.9),
        1: (lambda ids: ids // 4, REGION_FLOORS),
    }.get(round_number % 3)
    network.current_extra_latency = 2 if round_number % 3 == 2 else 0
    network.current_loss = 0.1 + 0.1 * (round_number % 2)


MODELS = {
    "lossy": (lambda **kw: LossyNetwork(ucastl=0.3, **kw), None),
    "partitioned": (_partitioned, _heal),
    "jitter": (
        lambda **kw: JitterNetwork(
            ucastl=0.2, mean_extra_latency=1.5, max_latency=4, **kw
        ),
        None,
    ),
    "topology": (
        lambda **kw: TopologyNetwork(hops=_hops, hop_loss=0.15, **kw),
        None,
    ),
    "chaos": (_chaos, _chaos_round),
}

sends = st.tuples(
    st.integers(0, MEMBERS - 1),
    st.integers(0, MEMBERS - 1),
    st.integers(1, 3),
)
# Each send carries whether a sub-block ends after it.
rounds_of_sends = st.lists(
    st.lists(st.tuples(sends, st.booleans()), max_size=24),
    min_size=1, max_size=4,
)


def _plan(make, begin, cap, rounds, split):
    """Plan ``rounds`` of sends on a fresh network; ``split`` cuts each
    round where its sends say (else one block per round)."""
    network = make(max_message_size=8, max_sends_per_round=cap)
    rngs = RngRegistry(seed=5)
    delivered, delivery_rounds = [], []
    for round_number, round_sends in enumerate(rounds):
        if begin is not None:
            begin(network, round_number)
        window: dict[int, int] = {}
        block: list[tuple[int, int, int, int]] = []
        for index, ((src, dest, size), cut) in enumerate(round_sends):
            slot = window.get(src, 0)
            window[src] = slot + 1
            block.append((src, dest, size, slot))
            last = index == len(round_sends) - 1
            if last or (split and cut):
                src_ids, dest_ids, sizes, slots = (
                    np.array(column, dtype=np.int64)
                    for column in zip(*block)
                )
                mask, when = network.plan_delivery_block(
                    src_ids, dest_ids, sizes, slots, round_number, rngs
                )
                delivered.extend(mask.tolist())
                delivery_rounds.extend(
                    np.broadcast_to(when, (int(mask.sum()),)).tolist()
                )
                block = []
    stats = {
        field.name: getattr(network.stats, field.name)
        for field in fields(network.stats)
    }
    next_loss = rngs.stream("network", "loss").random()
    next_latency = rngs.stream("network", "latency").random()
    return delivered, delivery_rounds, stats, next_loss, next_latency


def _check(model, cap, rounds, ones):
    make, begin = MODELS[model]
    whole = _plan(make, begin, cap, rounds, split=False)
    if ones:
        rounds = [[(send, True) for send, __ in each] for each in rounds]
    cut = _plan(make, begin, cap, rounds, split=True)
    assert cut == whole


@settings(max_examples=40, deadline=None)
@given(
    model=st.sampled_from(sorted(MODELS)),
    cap=st.sampled_from([None, 1, 2]),
    rounds=rounds_of_sends,
    ones=st.booleans(),
)
def test_sub_blocks_plan_as_one_block(model, cap, rounds, ones):
    _check(model, cap, rounds, ones)


def test_every_model_is_exercised_with_and_without_a_cap():
    # A deterministic floor under the property: each model, capped and
    # not, on one fixed sequence cut into blocks of one.
    fixed = [
        [((src % MEMBERS, (src * 5 + 3) % MEMBERS, 1 + src % 3), False)
         for src in range(20)]
        for __ in range(3)
    ]
    for model in MODELS:
        for cap in (None, 2):
            _check(model, cap, fixed, ones=True)
