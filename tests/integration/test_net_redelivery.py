"""Duplicated and replayed datagrams are no-ops on the real codec path.

A gossip datagram that arrives twice, or an old frame replayed after a
newer one, carries only contributions the receiver already holds:
merging is idempotent (the Flow-Updating argument), so a group whose
router repeats or replays gossip must end exactly where the clean group
does — bit-equal estimates, the same completeness and tick count — and
no receiver may count a refused frame.

The routers here subclass the loopback harness's own router and change
only the batch a tick delivers.  Reordering is deliberately not pinned:
it changes merge order, hence float sums in the last bits, and at
N=128, K=8 it changes completeness (docs/NET.md).
"""

import pytest

from repro.net import loopback
from repro.net.codec import MAGIC

#: A frame's kind byte follows the magic and the version byte.
_KIND_AT = len(MAGIC) + 1
_GOSSIP_KIND = 5


class _Duplicating(loopback.LoopbackRouter):
    """Delivers every datagram twice in a row."""

    def take(self):
        return [item for item in super().take() for __ in range(2)]


class _Replaying(loopback.LoopbackRouter):
    """Follows each gossip frame with the same sender's previous frame
    to that destination."""

    def __init__(self):
        super().__init__()
        self._previous = {}

    def take(self):
        batch = []
        for data, dest, src in super().take():
            batch.append((data, dest, src))
            if data[_KIND_AT] == _GOSSIP_KIND:
                stale = self._previous.get((src, dest))
                if stale is not None:
                    batch.append((stale, dest, src))
                self._previous[(src, dest)] = data
        return batch


def _run(monkeypatch, router, n, k, seed):
    with monkeypatch.context() as patch:
        if router is not None:
            patch.setattr(loopback, "LoopbackRouter", router)
        return loopback.run_loopback_group(n, k=k, seed=seed)


@pytest.mark.parametrize("router", [_Duplicating, _Replaying],
                         ids=["duplicate", "replay"])
@pytest.mark.parametrize("n,k", [(64, 4), (128, 8)], ids=["64-k4", "128-k8"])
@pytest.mark.parametrize("seed", range(3))
def test_redelivery_changes_nothing(monkeypatch, router, n, k, seed):
    clean = _run(monkeypatch, None, n, k, seed)
    noisy = _run(monkeypatch, router, n, k, seed)
    assert noisy.net["datagrams_received"] > clean.net["datagrams_received"]
    assert noisy.estimates == clean.estimates
    assert noisy.completeness == clean.completeness
    assert noisy.rounds == clean.rounds
    assert noisy.net["frames_rejected"] == 0
