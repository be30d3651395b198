"""Seed-based bootstrap: the address book and the join handshake.

A node starts knowing only its own address and (unless it *is* a seed)
one or more seed addresses.  Every tick before its book is complete it
re-sends :class:`~repro.net.codec.Join` to each seed; any node that
receives a Join records the joiner and answers with a
:class:`~repro.net.codec.Welcome` carrying its *current* book.  Books
therefore converge through the seeds: once the seed has heard every
member, its next Welcome completes any joiner's book.  Joins are
idempotent and Welcomes merge monotonically, so duplicate or reordered
datagrams are harmless — the retry-every-tick loop is the whole
reliability story.

The book is complete when it holds all ``group_size`` members; the node
then starts its protocol process (:mod:`repro.net.node`).  Membership
is the static dense id range ``0..N-1``, the paper's simulation setting
— dynamic join/leave is out of scope for this runtime.
"""

from __future__ import annotations

__all__ = ["AddressBook"]

Address = tuple[str, int]


class AddressBook:
    """Monotone map from member id to UDP address.

    An address, once learned, is never unlearned; a later Join or
    Welcome for a known id overwrites the address (a member that
    restarts on a new port keeps its id).  Membership is the dense
    range ``0..N-1``, so the book is a list indexed by id: one pointer
    per peer (``None`` until learned).
    """

    __slots__ = ("group_size", "_addresses")

    def __init__(self, group_size: int):
        if group_size < 1:
            raise ValueError("group_size must be positive")
        self.group_size = group_size
        self._addresses: list[Address | None] = [None] * group_size

    def record(self, node_id: int, address: Address) -> None:
        """Learn (or refresh) one member's address."""
        if not 0 <= node_id < self.group_size:
            raise ValueError(
                f"member id {node_id} outside the group 0..{self.group_size - 1}"
            )
        self._addresses[node_id] = address

    def merge(self, book: dict[int, Address]) -> None:
        """Absorb a Welcome's book; out-of-range ids are dropped, not
        fatal — a hostile datagram must not crash the node."""
        for node_id, address in book.items():
            if 0 <= node_id < self.group_size:
                self._addresses[node_id] = address

    def address_of(self, node_id: int) -> Address | None:
        if 0 <= node_id < self.group_size:
            return self._addresses[node_id]
        return None

    @property
    def known(self) -> int:
        """How many members have a recorded address."""
        return self.group_size - self._addresses.count(None)

    @property
    def complete(self) -> bool:
        """Every member of the group has a recorded address."""
        return None not in self._addresses

    def as_dict(self) -> dict[int, Address]:
        """A snapshot copy, for building a Welcome."""
        return {
            node_id: address
            for node_id, address in enumerate(self._addresses)
            if address is not None
        }
