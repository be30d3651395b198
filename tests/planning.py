"""Plan messages through the block planner in unit tests.

:meth:`~repro.sim.network.Network.plan_delivery_block` is the only
planner; these helpers state one message, or one block of sends, and
read back each message's fate.
"""

from __future__ import annotations

import numpy as np


def plan_block(network, rngs, sends, sent_round=0, size=1):
    """Plan ``(src, dest, slot)`` sends as one block: per send, its
    delivery round, or None when it was lost or refused."""
    src, dest, slots = (
        np.array(column, dtype=np.int64) for column in zip(*sends)
    )
    delivered, rounds = network.plan_delivery_block(
        src, dest, np.full(len(src), size, dtype=np.int64), slots,
        sent_round, rngs,
    )
    rounds = iter(np.broadcast_to(rounds, (int(delivered.sum()),)).tolist())
    return [next(rounds) if sent else None for sent in delivered.tolist()]


def plan_one(network, rngs, src=0, dest=1, size=1, sent_round=0):
    """One message planned as a block of one, at slot 0."""
    return plan_block(network, rngs, [(src, dest, 0)], sent_round, size)[0]


def loss_of(network, src, dest):
    """The model's loss probability for one message ``src -> dest``."""
    return float(np.broadcast_to(
        network.block_loss(np.array([src]), np.array([dest])), (1,)
    )[0])
