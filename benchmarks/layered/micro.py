"""Fixed-input micro-benchmarks of single layers (public functions only).

Each benchmark stops at 10 000 calls or 0.5 s, whichever comes first,
split into five batches; the reported figure is the median batch's time
per call.  Inputs are built from the seed, so two runs of one seed time
the same work.

    python3 benchmarks/layered/micro.py --seed 0
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

BATCHES = 5
MAX_CALLS = 10_000
MAX_SECONDS = 0.5


def per_call(fn, budget: float = 1.0) -> float:
    """Median-of-batches seconds per call of ``fn()``."""
    clock = time.perf_counter
    start = clock()
    fn()  # warm-up; also sizes the batches
    once = max(clock() - start, 1e-9)
    per_batch = MAX_SECONDS * budget / BATCHES
    calls = max(1, min(MAX_CALLS // BATCHES, int(per_batch / once)))
    samples = []
    for __ in range(BATCHES):
        start = clock()
        for __ in range(calls):
            fn()
        samples.append((clock() - start) / calls)
    return statistics.median(samples)


def _states(function, count: int, covers: int, rng):
    """``count`` disjoint average-aggregate states of ``covers`` members."""
    from repro.core.aggregates import AggregateState

    return [
        AggregateState(
            (float(rng.random() * covers * 100.0), covers),
            frozenset(range(i * covers, (i + 1) * covers)),
        )
        for i in range(count)
    ]


def _deep_bytes(state) -> int:
    """Bytes held by one state: object, payload, mask and its ids (not
    the instance dict, whose size depends on the process's history)."""
    getsizeof = sys.getsizeof
    total = getsizeof(state) + getsizeof(state.payload)
    total += sum(getsizeof(item) for item in state.payload)
    total += getsizeof(state.members)
    total += sum(getsizeof(member) for member in state.members)
    return total


def aggregates(seed: int, budget: float) -> dict[str, float]:
    from repro.core.aggregates import (
        DoubleCountError,
        clear_mask_union_cache,
        get_aggregate,
    )

    function = get_aggregate("average")
    rng = np.random.default_rng(seed)
    out = {}
    for covers in (64, 1024):
        states = _states(function, 8, covers, rng)

        def merge():
            # The union memo is identity-keyed and would turn every call
            # after the first into a dict hit; the mask union is the
            # work being timed, so drop the memo first.
            clear_mask_union_cache()
            function.merge_all(states)

        out[f"core.aggregates.merge_all_k8_s{covers}_us"] = (
            per_call(merge, budget) * 1e6
        )
    overlapping = _states(function, 8, 64, rng)
    overlapping[7] = overlapping[0]

    def reject():
        clear_mask_union_cache()
        try:
            function.merge_all(overlapping)
        except DoubleCountError:
            return
        raise AssertionError("overlapping states merged")

    out["core.aggregates.merge_overlap_reject_us"] = (
        per_call(reject, budget) * 1e6
    )
    out["core.aggregates.state_bytes_s1024"] = _deep_bytes(
        _states(function, 1, 1024, rng)[0]
    )
    clear_mask_union_cache()
    return out


def network(seed: int, budget: float) -> dict[str, float]:
    from repro.sim.network import LossyNetwork, Message
    from repro.sim.rng import RngRegistry

    members, fanout = 8192, 2
    block = members * fanout
    rng = np.random.default_rng(seed)
    src = np.repeat(np.arange(members, dtype=np.int64), fanout)
    dest = rng.integers(0, members, size=block, dtype=np.int64)
    sizes = np.full(block, 80, dtype=np.int64)
    slots = np.tile(np.arange(fanout, dtype=np.int64), members)
    rngs = RngRegistry(seed=seed)
    lossy = LossyNetwork(ucastl=0.25, max_message_size=1 << 20)

    def plan_block():
        lossy.plan_delivery_block(src, dest, sizes, slots, 0, rngs)

    message = Message(src=1, dest=2, payload=None, size=80, sent_round=0)
    scalar = LossyNetwork(ucastl=0.25, max_message_size=1 << 20)

    def plan_one():
        scalar.plan_delivery(message, rngs)

    return {
        "sim.network.plan_block_ns_per_msg":
            per_call(plan_block, budget) / block * 1e9,
        "sim.network.plan_one_ns": per_call(plan_one, budget) * 1e9,
    }


def sampling(seed: int, budget: float) -> dict[str, float]:
    from repro.sim.rng import RngRegistry
    from repro.sim.sampling import BlockedSampler, SamplerBank

    members = 8192
    rngs = RngRegistry(seed=seed)
    bank = SamplerBank(
        rngs.stream("process", member, "gossip") for member in range(members)
    )
    rows = np.arange(members, dtype=np.int64)
    sampler = BlockedSampler(rngs.stream("micro", "pick"))
    return {
        "sim.sampling.draw_matrix_ns_per_row":
            per_call(lambda: bank.draw_matrix(rows, 2), budget)
            / members * 1e9,
        "sim.sampling.pick_distinct_ns":
            per_call(lambda: sampler.pick_distinct(members, 2), budget) * 1e9,
    }


def metrics(seed: int, budget: float) -> dict[str, float]:
    from repro.net.node import NetNode, NodeConfig
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    counter = registry.counter("micro_total", "micro", ("node",)).labels("0")
    histogram = registry.histogram(
        "micro_ticks", "micro", ("node",),
        buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0),
    ).labels("0")
    # 64 nodes' metric families, as a 64-member serve group exposes them.
    group = MetricsRegistry()
    for node_id in range(64):
        NetNode(NodeConfig(node_id=node_id, group_size=64, seed=seed),
                lambda data, address: None, registry=group)
    return {
        "obs.metrics.counter_inc_ns": per_call(counter.inc, budget) * 1e9,
        "obs.metrics.histogram_observe_ns":
            per_call(lambda: histogram.observe(3.0), budget) * 1e9,
        "obs.metrics.render_ms":
            per_call(group.render_prometheus, budget) * 1e3,
    }


def codec(seed: int, budget: float) -> dict[str, float]:
    from repro.core.aggregates import get_aggregate
    from repro.core.gridbox import SubtreeId
    from repro.core.messages import GossipBatch
    from repro.net import codec as wire

    function = get_aggregate("average")
    rng = np.random.default_rng(seed)
    out = {}
    for covers in (64, 1024):
        states = _states(function, 8, covers, rng)
        frame_in = wire.Gossip(
            src=0, sent_round=3,
            payload=GossipBatch(
                phase=2,
                entries=tuple(
                    (SubtreeId(1, i), state) for i, state in enumerate(states)
                ),
            ),
        )
        data = wire.encode(frame_in)
        if wire.decode(data) != frame_in:
            raise AssertionError("codec round trip changed the message")
        suffix = f"s{covers}"
        out[f"net.codec.encode_us_{suffix}"] = (
            per_call(lambda: wire.encode(frame_in), budget) * 1e6
        )
        out[f"net.codec.decode_us_{suffix}"] = (
            per_call(lambda: wire.decode(data), budget) * 1e6
        )
        out[f"net.codec.frame_bytes_{suffix}"] = len(data)
    return out


def run_all(seed: int, budget: float = 1.0) -> dict[str, float]:
    """Every micro-benchmark; ``budget`` scales the time limit per one."""
    out: dict[str, float] = {}
    for group in (aggregates, network, sampling, metrics, codec):
        out.update(group(seed, budget))
    return out


def main(argv=None) -> int:
    import argparse
    import pathlib

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    root = pathlib.Path(__file__).resolve().parents[2]
    sys.path.insert(0, str(root / "src"))
    start = time.perf_counter()
    for name, value in run_all(args.seed).items():
        print(f"{name:45s} {value:14.3f}")
    print(f"({time.perf_counter() - start:.1f}s)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
