"""The address book (repro.net.bootstrap.AddressBook).

Membership is the dense id range ``0..N-1``, so the book is a list
indexed by member id: one pointer per peer.  These tests pin its
contract — range checks, the known count, the Welcome snapshot — and
that it stays near 8 bytes per (node, peer), since a loopback group of
N nodes in one process holds N² entries.
"""

import random
import tracemalloc

import pytest

from repro.net.bootstrap import AddressBook
from repro.net.codec import Welcome, encode
from repro.net.loopback import loopback_address
from repro.net.node import _welcome_frames


def _address(node_id):
    return ("10.0.0.1", 7000 + node_id)


class TestRecord:
    @pytest.mark.parametrize("node_id", [-1, 4, 100])
    def test_outside_the_group_raises(self, node_id):
        book = AddressBook(4)
        with pytest.raises(ValueError, match="outside the group"):
            book.record(node_id, _address(0))
        assert book.known == 0

    def test_group_size_must_be_positive(self):
        with pytest.raises(ValueError):
            AddressBook(0)

    def test_rerecord_refreshes_without_recounting(self):
        book = AddressBook(3)
        book.record(1, _address(1))
        book.record(1, ("10.0.0.2", 9))
        assert book.known == 1
        assert book.address_of(1) == ("10.0.0.2", 9)
        assert not book.complete


class TestMerge:
    def test_drops_out_of_range_ids(self):
        book = AddressBook(4)
        book.merge({-3: _address(0), -1: _address(0), 2: _address(2),
                    4: _address(4), 1 << 40: _address(5)})
        assert book.as_dict() == {2: _address(2)}
        assert book.known == 1

    def test_known_and_complete_across_merges(self):
        book = AddressBook(4)
        book.record(0, _address(0))
        book.merge({0: _address(0), 1: _address(1)})
        assert (book.known, book.complete) == (2, False)
        book.merge({1: ("10.0.0.9", 1), 2: _address(2)})
        assert (book.known, book.complete) == (3, False)
        book.merge({3: _address(3), 2: _address(2)})
        assert (book.known, book.complete) == (4, True)
        book.record(2, ("10.0.0.9", 2))
        assert (book.known, book.complete) == (4, True)
        assert book.address_of(1) == ("10.0.0.9", 1)


class TestRead:
    @pytest.mark.parametrize("node_id", [-1, -4, 4, 1 << 40])
    def test_address_of_outside_the_group_is_none(self, node_id):
        book = AddressBook(4)
        book.merge({i: _address(i) for i in range(4)})
        assert book.address_of(node_id) is None

    def test_unlearned_member_is_none(self):
        book = AddressBook(4)
        book.record(3, _address(3))
        assert book.address_of(0) is None
        assert book.address_of(3) == _address(3)

    def test_as_dict_holds_exactly_the_learned_ids(self):
        book = AddressBook(10)
        for node_id in (7, 2, 9):
            book.record(node_id, _address(node_id))
        snapshot = book.as_dict()
        assert snapshot == {2: _address(2), 7: _address(7), 9: _address(9)}
        snapshot[0] = _address(0)  # a copy: the book is untouched
        assert book.address_of(0) is None


@pytest.mark.parametrize("size, learned", [(16, 11), (512, 512), (600, 377)])
def test_welcome_frames_match_a_dict_backed_book(size, learned):
    """Learned in shuffled order, the book answers a Join with the same
    Welcome bytes as a dict filled in that order (the codec sorts ids);
    the larger books split over several frames."""
    order = list(range(size))
    random.Random(size).shuffle(order)
    book, reference = AddressBook(size), {}
    for node_id in order[:learned]:
        address = ("host-%d.example" % node_id, 1024 + node_id)
        book.record(node_id, address)
        reference[node_id] = address
    assert encode(Welcome(book=book.as_dict())) == encode(
        Welcome(book=reference)
    )
    assert _welcome_frames(book.as_dict()) == _welcome_frames(reference)


def test_a_full_book_costs_one_pointer_per_peer():
    """256 books of 256 peers: ≤ 9 B per (node, peer).  A dict-backed
    book spent about 36 B (a slot plus its hash-table share)."""
    nodes = peers = 256
    addresses = [loopback_address(peer) for peer in range(peers)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        books = []
        for __ in range(nodes):
            book = AddressBook(peers)
            for peer, address in enumerate(addresses):
                book.record(peer, address)
            books.append(book)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert all(book.complete for book in books)
    assert used / (nodes * peers) <= 9.0
