"""Columnar PCG64 streams serve numpy's own values.

:class:`~repro.sim.sampling.SamplerBank` keeps every member's gossip
stream as four uint64 columns: :func:`~repro.sim.rng.pcg64_columns`
re-implements ``SeedSequence`` mixing and PCG64 seeding, and
``draw_matrix`` steps the 128-bit LCG and forms the XSL-RR double
itself.  Whatever sequence of row subsets and draw sizes a bank serves,
each row must have served exactly ``np.random.default_rng(seed).random``
of its total — across the whole seed range, the one- and two-word
entropy boundary (``2**32``) included — and a bank copied from
generators must serve the same values as one built from their seeds.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.sampling import SamplerBank

SEEDS = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6)
#: Draws as (row picks, k); picks are reduced mod the bank's row count
#: and deduplicated in order, so any subset in any order comes up.
DRAWS = st.lists(
    st.tuples(st.lists(st.integers(0, 63), max_size=8), st.integers(0, 9)),
    max_size=8,
)


def _rows(picks, count):
    return np.array(
        list(dict.fromkeys(pick % count for pick in picks)), dtype=np.int64
    )


@given(seeds=SEEDS, draws=DRAWS)
@settings(max_examples=300, deadline=None)
@example(seeds=[0, 2**32 - 1, 2**32, 2**63, 2**64 - 1], draws=[
    ([0, 1, 2, 3, 4], 70),
])
# A subset of rows advances alone: the others' next draw is unchanged.
@example(seeds=[11, 12, 13, 14], draws=[([1, 3], 4), ([0, 1, 2, 3], 2)])
def test_rows_serve_default_rng(seeds, draws):
    seeded = SamplerBank.seeded(seeds)
    copied = SamplerBank([np.random.default_rng(seed) for seed in seeds])
    served: list[list[float]] = [[] for _ in seeds]
    for picks, k in draws:
        rows = _rows(picks, len(seeds))
        drawn = seeded.draw_matrix(rows, k)
        assert drawn.shape == (len(rows), k)
        assert np.array_equal(copied.draw_matrix(rows, k), drawn)
        for row, values in zip(rows.tolist(), drawn.tolist()):
            served[row].extend(values)
    for seed, values in zip(seeds, served):
        expected = np.random.default_rng(seed).random(len(values))
        assert values == expected.tolist()
