"""Wire codec round-trips and hostile-input fuzz (repro.net.codec).

The decode contract is absolute: any byte string either round-trips to
a valid wire message or raises CodecError — never any other exception,
never a crash.  A live node feeds every received datagram through
decode, so this property is what keeps a hostile or corrupted packet
from killing a group member.
"""

import json

import pytest

from repro.core.aggregates import AggregateState
from repro.core.gridbox import SubtreeId
from repro.core.intervals import IntervalMask
from repro.core.messages import GossipBatch, GossipValue
from repro.net.codec import (
    MAGIC,
    MAX_DATAGRAM_BYTES,
    WIRE_VERSION,
    CodecError,
    Gossip,
    Join,
    Ping,
    Pong,
    Welcome,
    decode,
    encode,
)


def _state(payload, members):
    return AggregateState(payload=payload, members=frozenset(members))


ROUND_TRIP_MESSAGES = [
    Join(node_id=3, host="127.0.0.1", port=9301),
    Welcome(book={0: ("127.0.0.1", 9300), 7: ("10.0.0.2", 1024)}),
    Ping(src=5),
    Pong(src=2),
    Gossip(
        src=1, sent_round=4,
        payload=GossipValue(
            phase=1, key=6, state=_state(42.5, {6}),
        ),
    ),
    Gossip(
        src=9, sent_round=17,
        payload=GossipValue(
            phase=3, key=SubtreeId(2, 5),
            state=_state((10.0, 4.0), {1, 2, 3}),
        ),
    ),
    Gossip(
        src=0, sent_round=0,
        payload=GossipBatch(
            phase=2,
            entries=(
                (SubtreeId(1, 0), _state((3.5, 2.0), {0, 1})),
                (SubtreeId(1, 1), _state(((1.0, 2.0), (3.0, 4.0)), {2})),
            ),
            reply=True,
        ),
    ),
]


class TestRoundTrip:
    @pytest.mark.parametrize("message", ROUND_TRIP_MESSAGES)
    def test_encode_decode_identity(self, message):
        assert decode(encode(message)) == message

    def test_subtree_keys_survive_as_subtree_ids(self):
        message = ROUND_TRIP_MESSAGES[5]
        decoded = decode(encode(message))
        assert isinstance(decoded.payload.key, SubtreeId)
        assert decoded.payload.key.prefix_length == 2
        assert decoded.payload.key.prefix_value == 5

    def test_nested_payload_tuples_are_retupled(self):
        decoded = decode(encode(ROUND_TRIP_MESSAGES[6]))
        inner = decoded.payload.entries[1][1].payload
        assert inner == ((1.0, 2.0), (3.0, 4.0))
        assert isinstance(inner, tuple)
        assert isinstance(inner[0], tuple)

    def test_floats_round_trip_exactly(self):
        vote = 0.1 + 0.2  # a float with no short decimal form
        message = Gossip(
            src=0, sent_round=0,
            payload=GossipValue(phase=1, key=0, state=_state(vote, {0})),
        )
        assert decode(encode(message)).payload.state.payload == vote

    def test_encoding_is_deterministic(self):
        for message in ROUND_TRIP_MESSAGES:
            assert encode(message) == encode(message)

    def test_frame_header(self):
        data = encode(Ping(src=0))
        assert data[:2] == MAGIC
        assert data[2] == WIRE_VERSION == 2

    @pytest.mark.parametrize("message", ROUND_TRIP_MESSAGES)
    def test_decode_encode_identity(self, message):
        """One accepted spelling per message: re-encoding is byte-exact."""
        frame = encode(message)
        assert encode(decode(frame)) == frame

    def test_coverage_is_the_canonical_interval_list(self):
        state = _state((6.0, 7), {0, 1, 2, 3, 9, 11, 12})
        frame = encode(Gossip(
            src=0, sent_round=0,
            payload=GossipValue(phase=2, key=SubtreeId(1, 0), state=state),
        ))
        body = json.loads(frame[3:])
        assert body["payload"]["state"]["v"] == [0, 3, 9, 9, 11, 12]
        decoded = decode(frame).payload.state.members
        assert isinstance(decoded, IntervalMask)
        assert decoded == frozenset({0, 1, 2, 3, 9, 11, 12})


def _subtree_batch(subtree_size, exceptions=0):
    """An 8-entry batch of complete ``subtree_size``-member subtrees;
    ``exceptions`` single ranks are knocked out of the first entry."""
    entries = []
    for index in range(8):
        covered = IntervalMask(
            range(index * subtree_size, (index + 1) * subtree_size)
        )
        if index == 0 and exceptions:
            covered -= IntervalMask(range(1, 2 * exceptions, 2))
        entries.append((
            SubtreeId(1, index),
            AggregateState((50.0 * len(covered), len(covered)), covered),
        ))
    return Gossip(src=0, sent_round=3,
                  payload=GossipBatch(phase=2, entries=tuple(entries)))


class TestConstantSizeFrames:
    """Section 2's constant-message-size constraint, on the real wire."""

    def test_frame_size_is_independent_of_subtree_size(self):
        sizes = {n: len(encode(_subtree_batch(n))) for n in (64, 1024, 65536)}
        # Sixteen bounds and eight (sum, count) payloads per frame: only
        # their digit counts may grow, never the number of fields.
        digits = 5 * (8 * 2 + 8 * 2)  # <= 5 more digits per number
        assert sizes[65536] - sizes[64] <= digits
        assert max(sizes.values()) < 900
        fields = {
            n: encode(_subtree_batch(n)).count(b",") for n in sizes
        }
        assert len(set(fields.values())) == 1

    def test_frame_grows_linearly_in_the_exception_count_only(self):
        base = len(encode(_subtree_batch(65536)))
        grown = [len(encode(_subtree_batch(65536, exceptions=e)))
                 for e in (1, 2, 4, 8, 16)]
        per_exception = [
            (size - base) / e for size, e in zip(grown, (1, 2, 4, 8, 16))
        ]
        # Each knocked-out rank splits one range: two more bounds.
        assert all(2 <= cost <= 14 for cost in per_exception)


class TestHostileInput:
    def test_truncated_frames_reject(self):
        whole = encode(ROUND_TRIP_MESSAGES[4])
        for length in range(len(whole)):
            with pytest.raises(CodecError):
                decode(whole[:length])

    def test_wrong_magic_rejects(self):
        data = b"XX" + encode(Ping(src=0))[2:]
        with pytest.raises(CodecError):
            decode(data)

    def test_wrong_version_byte_rejects(self):
        data = bytearray(encode(Ping(src=0)))
        data[2] = WIRE_VERSION + 1
        with pytest.raises(CodecError):
            decode(bytes(data))

    def test_version_1_frame_rejects_at_the_version_byte(self):
        """A v1 peer's gossip (``"v"`` = sorted id list) is not parsed."""
        v1 = MAGIC + bytes([1]) + (
            b'{"payload":{"k":"value","key":{"m":6},"phase":1,'
            b'"state":{"p":42.5,"v":[6]}},"round":4,"src":1,"t":"gossip"}'
        )
        with pytest.raises(CodecError, match="wire version 1 is not 2"):
            decode(v1)

    @pytest.mark.parametrize("coverage, complaint", [
        ("[true,1]", "not an int"),         # booleans are not ranks
        ("[0,false]", "not an int"),
        ("[0,1.0]", "not an int"),
        ("[0,3,5]", "odd-length"),
        ("[4,6,0,2]", "unsorted or overlapping"),
        ("[5,3]", "unsorted or overlapping"),
        ("[0,5,5,9]", "unsorted or overlapping"),
        ("[0,5,3,9]", "unsorted or overlapping"),
        ("[0,3,4,9]", "not coalesced"),
        ("[-2,3]", "negative"),
        ('{"0":3}', "not an interval list"),
    ])
    def test_non_canonical_coverage_rejects(self, coverage, complaint):
        body = (
            '{"t":"gossip","src":1,"round":0,"payload":{"k":"value",'
            '"phase":2,"key":{"s":[1,0]},"state":{"p":1.0,"v":%s}}}'
            % coverage
        )
        with pytest.raises(CodecError, match=complaint):
            decode(MAGIC + bytes([WIRE_VERSION]) + body.encode())

    @pytest.mark.parametrize("key", [
        '{"m":true}', '{"s":[true,0]}', '{"s":[1,false]}', '{"s":[1]}',
    ])
    def test_boolean_key_parts_reject(self, key):
        body = (
            '{"t":"gossip","src":1,"round":0,"payload":{"k":"value",'
            '"phase":1,"key":%s,"state":{"p":1.0,"v":[0,0]}}}' % key
        )
        with pytest.raises(CodecError):
            decode(MAGIC + bytes([WIRE_VERSION]) + body.encode())

    @pytest.mark.parametrize("reply", ['"no"', "1", "0", "[0]", "null"])
    def test_non_boolean_reply_flag_rejects(self, reply):
        # decode∘encode is the identity: a truthy non-boolean decoded as
        # ``reply=True`` would re-encode to a different frame.
        for flag in (b"true", b"false"):
            batch = GossipBatch(1, (), reply=flag == b"true")
            frame = encode(Gossip(src=1, sent_round=0, payload=batch))
            assert encode(decode(frame)) == frame
            field = b'"reply":' + flag
            assert frame.count(field) == 1
            with pytest.raises(CodecError, match="not a boolean"):
                decode(frame.replace(field, b'"reply":' + reply.encode()))

    def test_non_json_body_rejects(self):
        with pytest.raises(CodecError):
            decode(MAGIC + bytes([WIRE_VERSION]) + b"\xff\xfe not json")

    @pytest.mark.parametrize("body", [
        "[]",                                    # not an object
        "{}",                                    # no type tag
        '{"t":"warp"}',                          # unknown type
        '{"t":"ping"}',                          # missing src
        '{"t":"ping","src":"zero"}',             # mistyped src
        '{"t":"ping","src":true}',               # bool is not an int
        '{"t":"join","id":1,"addr":"nope"}',     # malformed address
        '{"t":"welcome","book":[1,2]}',          # book not an object
        '{"t":"welcome","book":{"x":["h",1]}}',  # non-integer member id
        '{"t":"gossip","src":1,"round":0,"payload":{"k":"odd"}}',
        '{"t":"gossip","src":1,"round":0,"payload":{"k":"value",'
        '"phase":1,"key":{"q":3},"state":{"p":1.0,"v":[1]}}}',
        '{"t":"gossip","src":1,"round":0,"payload":{"k":"value",'
        '"phase":1,"key":{"m":1},"state":{"p":1.0,"v":"all"}}}',
        '{"t":"gossip","src":1,"round":0,"payload":{"k":"batch",'
        '"phase":1,"entries":[[1]]}}',
        '{"t":"gossip","src":1,"round":0,"payload":{"k":"batch",'
        '"phase":1,"entries":[]}}',              # reply flag missing
    ])
    def test_structurally_invalid_records_reject(self, body):
        data = MAGIC + bytes([WIRE_VERSION]) + body.encode()
        with pytest.raises(CodecError):
            decode(data)

    def test_bitflip_fuzz_never_raises_anything_else(self):
        """Every single-byte corruption either decodes or CodecErrors."""
        frames = [encode(message) for message in ROUND_TRIP_MESSAGES]
        for frame in frames:
            for position in range(len(frame)):
                for flip in (0x01, 0x80, 0xFF):
                    corrupted = bytearray(frame)
                    corrupted[position] ^= flip
                    try:
                        decode(bytes(corrupted))
                    except CodecError:
                        pass  # the only legal failure mode

    def test_deep_garbage_json_rejects_not_crashes(self):
        payloads = [
            json.dumps({"t": "gossip", "src": 1, "round": 2,
                        "payload": {"k": "batch", "phase": 1,
                                    "entries": [[{"m": 1}, {"p": 0}]]}}),
            json.dumps({"t": "join", "id": 2**80,
                        "addr": ["h", 1]}),  # huge int is fine or rejected
            json.dumps({"t": "welcome", "book": {"5": ["h", "p"]}}),
        ]
        for body in payloads:
            data = MAGIC + bytes([WIRE_VERSION]) + body.encode()
            try:
                decode(data)
            except CodecError:
                pass


class TestNodeDropsBadFrames:
    def test_hostile_datagrams_are_counted_not_fatal(self):
        from repro.net.node import NetNode, NodeConfig

        node = NetNode(
            NodeConfig(node_id=0, group_size=2),
            transport_send=lambda data, addr: None,
        )
        node.datagram_received(b"", ("x", 1))
        node.datagram_received(b"garbage", ("x", 1))
        node.datagram_received(
            MAGIC + bytes([WIRE_VERSION + 1]) + b"{}", ("x", 1)
        )
        assert node.stats.frames_rejected == 3
        assert node.stats.datagrams_received == 3

    def test_coverage_naming_a_rank_outside_the_group_is_rejected(self):
        from repro.net.node import NetNode, NodeConfig
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        node = NetNode(
            NodeConfig(node_id=0, group_size=4),
            transport_send=lambda data, addr: None, registry=registry,
        )
        node.started = True
        node.process.on_start(node.ctx)

        def gossip(members):
            return encode(Gossip(
                src=1, sent_round=0,
                payload=GossipBatch(phase=1, entries=(
                    (1, _state((5.0, 1), {1})),
                    (2, _state((5.0, len(members)), members)),
                )),
            ))

        node.datagram_received(gossip({3}), ("x", 1))  # last rank: fine
        assert node.stats.frames_rejected == 0
        assert 2 in node.process.known
        node.datagram_received(gossip({4}), ("x", 1))  # no such rank
        node.datagram_received(gossip({2, 3, 4, 5}), ("x", 1))
        assert node.stats.frames_rejected == 2
        rejected = registry.snapshot()["metrics"][
            "repro_net_rx_rejected_total"]["samples"]
        assert [sample["value"] for sample in rejected] == [2]


class TestDatagramLimit:
    def test_oversize_frame_is_dropped_unsent_and_counted(self):
        from repro.net.node import NetNode, NodeConfig, net_stats_record
        from repro.obs.metrics import MetricsRegistry

        sent = []
        registry = MetricsRegistry()
        node = NetNode(
            NodeConfig(node_id=0, group_size=100_000, k=8),
            transport_send=lambda data, addr: sent.append(data),
            registry=registry,
        )
        node.book.record(1, ("127.0.0.1", 9))
        # A forged state: every other rank of 60 000 — 30 000 single-rank
        # exceptions no loss pattern produces and no datagram can carry.
        forged = AggregateState(
            (1.0, 30_000), IntervalMask(range(0, 60_000, 2))
        )
        payload = GossipValue(phase=3, key=SubtreeId(0, 0), state=forged)
        frame = encode(Gossip(src=0, sent_round=0, payload=payload))
        assert len(frame) > MAX_DATAGRAM_BYTES == 65507
        node.ctx.send(1, payload)
        assert sent == []
        assert node.stats.frames_oversize == 1
        assert node.stats.messages_sent == node.stats.bytes_sent == 0
        # The same send with honest coverage goes out.
        honest = AggregateState((1.0, 60_000), IntervalMask(range(60_000)))
        node.ctx.send(1, GossipValue(3, SubtreeId(0, 0), honest))
        assert len(sent) == 1 and len(sent[0]) < 200
        assert node.stats.frames_oversize == 1
        oversize = registry.snapshot()["metrics"][
            "repro_net_tx_oversize_total"]["samples"]
        assert [sample["value"] for sample in oversize] == [1]
        assert net_stats_record([node])["frames_oversize"] == 1
