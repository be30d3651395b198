"""Wire codec round-trips and hostile-input cases (repro.net.codec).

The decode contract is absolute: any byte string either round-trips to
a valid wire message or raises CodecError — never any other exception,
never a crash.  A live node feeds every received datagram through
decode, so this property is what keeps a hostile or corrupted packet
from killing a group member.  The generated half of the contract is in
``tests/property/test_codec_properties.py``; here are the hand-built
frames, byte by byte.

Several parametrized cases keep the id of the version-2 (JSON) spelling
they descend from: the same hostile idea, spelled in version-4 bytes.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import AggregateState
from repro.core.gridbox import SubtreeId
from repro.core.intervals import IntervalMask
from repro.core.intervals import _make as _unchecked_mask
from repro.core.messages import GossipBatch, GossipValue
from repro.net import codec
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

#: Frame pieces for hand-built gossip: header, then ``src=1 round=0``.
HEADER = MAGIC + bytes([WIRE_VERSION])
GOSSIP = HEADER + b"\x05\x01\x00"
#: ... a single value (flags 0) of phase 2 keyed ``SubtreeId(1, 0)``
#: whose payload is the float 1.0; its coverage bytes come next.
VALUE = GOSSIP + b"\x00\x02" + b"\x02\x00" + b"\x00" + struct.pack("<d", 1.0)


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
        frame = encode(message)
        assert decode(frame).payload.state.payload == vote
        assert struct.pack("<d", vote) in frame  # raw float64, no text

    def test_encoding_is_deterministic(self):
        for message in ROUND_TRIP_MESSAGES:
            assert encode(message) == encode(message)

    def test_frame_header(self):
        data = encode(Ping(src=0))
        assert data[:2] == MAGIC
        assert data[2] == WIRE_VERSION == 4
        assert data == HEADER + b"\x03\x00"  # kind 3 = ping, src 0
        kinds = [encode(message)[3] for message in ROUND_TRIP_MESSAGES]
        assert kinds == [1, 2, 3, 4, 5, 5, 5]

    @pytest.mark.parametrize("message", ROUND_TRIP_MESSAGES)
    def test_decode_encode_identity(self, message):
        """One accepted spelling per message: re-encoding is byte-exact."""
        frame = encode(message)
        assert encode(decode(frame)) == frame

    def test_coverage_is_the_canonical_interval_list(self):
        state = _state(1.0, {0, 1, 2, 3, 9, 11, 12})
        frame = encode(Gossip(
            src=1, sent_round=0,
            payload=GossipValue(phase=2, key=SubtreeId(1, 0), state=state),
        ))
        # Three ranges as (gap, span): 0-3 from rank 0, 9 alone four
        # past the slot after 3, 11-12 right after the slot after 9.
        assert frame == VALUE + b"\x03" + b"\x00\x03" + b"\x04\x00" + b"\x00\x01"
        decoded = decode(frame).payload.state.members
        assert isinstance(decoded, IntervalMask)
        assert decoded.bounds == (0, 3, 9, 9, 11, 12)
        assert decoded == frozenset({0, 1, 2, 3, 9, 11, 12})

    def test_a_whole_batch_frame_byte_by_byte(self):
        frame = encode(Gossip(src=300, sent_round=2, payload=GossipBatch(
            phase=1, reply=True,
            entries=((5, _state((2.5, -3, True), range(5, 200))),),
        )))
        assert frame == (
            HEADER + b"\x05"            # gossip
            + b"\xac\x02" + b"\x02"     # src 300 (two-byte varint), round 2
            + b"\x03" + b"\x01"         # batch + reply, phase 1
            + b"\x01"                   # one entry
            + b"\x00\x05"               # member-id key 5
            + b"\x13"                   # payload: a 3-tuple (0x10 | 3) of
            + b"\x00" + struct.pack("<d", 2.5)
            + b"\x02\x02"               # the negative int -3 (-1 - 2)
            + b"\x04"                   # True
            + b"\x01" + b"\x05" + b"\xc2\x01"  # one range: from 5, 194 more
        )


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
        sizes = {2 ** e: len(encode(_subtree_batch(2 ** e)))
                 for e in range(0, 21)}
        # Eight keys, eight (sum, count) payloads, eight one-range
        # masks: only count, gap and span may lengthen (by three, three
        # and two bytes at 2**20 members: a count of 1 is its tag byte,
        # one of 2**20 a tag and a three-byte varint), never the field
        # count.
        assert max(sizes.values()) <= 197
        assert sizes[64] <= 143 and sizes[1024] <= 168
        assert sizes[2 ** 20] - sizes[1] <= 8 * (3 + 3 + 2)
        assert list(sizes.values()) == sorted(sizes.values())

    def test_frame_grows_linearly_in_the_exception_count_only(self):
        base = len(encode(_subtree_batch(65536)))
        grown = [len(encode(_subtree_batch(65536, exceptions=e)))
                 for e in (1, 2, 4, 8, 16, 64)]
        per_exception = [
            (size - base) / e for size, e in zip(grown, (1, 2, 4, 8, 16, 64))
        ]
        # Each knocked-out rank splits one range: one more (gap, span).
        assert all(2 <= cost <= 4 for cost in per_exception)

    def test_no_gossip_frame_of_a_512_member_run_exceeds_256_bytes(
        self, monkeypatch
    ):
        from repro.net.loopback import LoopbackRouter, run_loopback_group

        carried = []
        sender_for = LoopbackRouter.sender_for

        def recording_sender_for(router, address):
            send = sender_for(router, address)

            def transport_send(data, dest):
                carried.append(data)
                send(data, dest)
            return transport_send

        monkeypatch.setattr(LoopbackRouter, "sender_for", recording_sender_for)
        report = run_loopback_group(512, k=8, seed=0)
        assert report.converged and report.completeness == 1.0
        gossip = [len(data) for data in carried if data[3] == 5]
        assert len(gossip) == 512 * 2 * report.rounds  # M=2 a tick
        assert max(gossip) <= 256
        assert sum(gossip) / len(gossip) < 128
        assert report.messages_sent == len(carried)
        assert report.bytes_sent == sum(map(len, carried))
        assert report.bytes_sent / 512 / report.rounds < 300


class TestHostileInput:
    def test_truncated_frames_reject(self):
        for message in ROUND_TRIP_MESSAGES:
            whole = encode(message)
            for length in range(len(whole)):
                with pytest.raises(CodecError):
                    decode(whole[:length])

    def test_trailing_bytes_reject(self):
        for message in ROUND_TRIP_MESSAGES:
            for extra in (b"\x00", b"\x01", b"RA"):
                with pytest.raises(CodecError, match="trailing"):
                    decode(encode(message) + extra)

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
        with pytest.raises(CodecError, match="wire version 1 is not 4"):
            decode(v1)

    def test_version_2_frame_rejects_at_the_version_byte(self):
        """Nor a v2 peer's (JSON body, ``"v"`` = interval list): there
        is no JSON decoder left to fall back to."""
        for v2 in (
            b'RA\x02{"payload":{"k":"value","key":{"m":6},"phase":1,"state":'
            b'{"p":42.5,"v":[6,6]}},"round":4,"src":1,"t":"gossip"}',
            b'RA\x02{"src":5,"t":"ping"}',
        ):
            with pytest.raises(CodecError, match="wire version 2 is not 4"):
                decode(v2)

    @pytest.mark.parametrize("coverage, complaint", [
        # A second spelling of a number (v2: ``true``, ``1.0``) is, in
        # varints, a zero-padded one.
        pytest.param(b"\x01\x81\x00\x00", "not minimal",
                     id="[true,1]-not an int"),
        pytest.param(b"\x01\x00\x80\x00", "not minimal",
                     id="[0,false]-not an int"),
        pytest.param(b"\x01\x00\x81\x00", "not minimal",
                     id="[0,1.0]-not an int"),
        # Two ranges announced, a bound short.
        pytest.param(b"\x02\x00\x03\x05", "exceeds the bytes left",
                     id="[0,3,5]-odd-length"),
        # No gap or span is negative, so these bound lists have no
        # spelling; the encoder cannot be made to emit one either.
        pytest.param((4, 6, 0, 2), "not an unsigned",
                     id="[4,6,0,2]-unsorted or overlapping"),
        pytest.param((5, 3), "not an unsigned",
                     id="[5,3]-unsorted or overlapping"),
        pytest.param((0, 5, 5, 9), "not an unsigned",
                     id="[0,5,5,9]-unsorted or overlapping"),
        pytest.param((0, 5, 3, 9), "not an unsigned",
                     id="[0,5,3,9]-unsorted or overlapping"),
        pytest.param((0, 3, 4, 9), "not an unsigned",
                     id="[0,3,4,9]-not coalesced"),
        pytest.param((-2, 3), "not an unsigned", id="[-2,3]-negative"),
        # A range count far past the end of the frame.
        pytest.param(b"\xff\xff\x03\x00\x00", "exceeds the bytes left",
                     id='{"0":3}-not an interval list'),
    ])
    def test_non_canonical_coverage_rejects(self, coverage, complaint):
        if isinstance(coverage, bytes):
            with pytest.raises(CodecError, match=complaint):
                decode(VALUE + coverage)
            return
        with pytest.raises(ValueError):
            IntervalMask.from_bounds(coverage)
        forged = AggregateState(1.0, _unchecked_mask(IntervalMask, coverage, 1))
        with pytest.raises(CodecError, match=complaint):
            encode(Gossip(1, 0, GossipValue(2, SubtreeId(1, 0), forged)))

    def test_every_coverage_spelling_is_canonical(self):
        """All (gap, span) bytes for two ranges decode to a mask the
        strict in-program constructor accepts, and re-encode as sent."""
        for gap0, span0, gap1, span1 in [
            (0, 0, 0, 0), (0, 3, 0, 0), (5, 0, 0, 7), (127, 127, 127, 127),
        ]:
            frame = VALUE + bytes([2, gap0, span0, gap1, span1])
            mask = decode(frame).payload.state.members
            assert IntervalMask.from_bounds(mask.bounds) == mask
            assert len(mask) == mask.count == span0 + span1 + 2
            assert encode(decode(frame)) == frame

    @pytest.mark.parametrize("key", [
        pytest.param(True, id='{"m":true}'),
        pytest.param(SubtreeId(True, 0), id='{"s":[true,0]}'),
        pytest.param(SubtreeId(1, False), id='{"s":[1,false]}'),
        pytest.param(b"\x02", id='{"s":[1]}'),  # a prefix length, no value
    ])
    def test_boolean_key_parts_reject(self, key):
        if isinstance(key, bytes):
            with pytest.raises(CodecError):
                decode(GOSSIP + b"\x00\x01" + key)
            return
        # True == 1, so a bool key framed as 1 would decode to another
        # type: the encoder refuses (a varint cannot spell a bool).
        with pytest.raises(CodecError, match="unsigned"):
            encode(Gossip(1, 0, GossipValue(1, key, _state(1.0, {0}))))

    @pytest.mark.parametrize("flags", [
        pytest.param(2, id='"no"'),    # reply without batch
        pytest.param(5, id="1"),       # batch and an unknown bit
        pytest.param(4, id="0"),
        pytest.param(0x83, id="[0]"),
        pytest.param(0xFF, id="null"),
    ])
    def test_non_boolean_reply_flag_rejects(self, flags):
        # decode∘encode is the identity: a flags byte with stray bits
        # decoded as ``reply=True`` would re-encode to a different frame.
        frames = {}
        for reply in (False, True):
            batch = GossipBatch(1, (), reply=reply)
            frame = frames[reply] = encode(
                Gossip(src=1, sent_round=0, payload=batch))
            assert encode(decode(frame)) == frame
        assert frames[False] == GOSSIP + b"\x01\x01\x00"
        assert frames[True] == GOSSIP + b"\x03\x01\x00"
        with pytest.raises(CodecError, match="unknown gossip flags"):
            decode(GOSSIP + bytes([flags]) + b"\x01\x00")
        with pytest.raises(CodecError, match="unencodable gossip payload"):
            encode(Gossip(1, 0, GossipBatch(1, (), reply=flags)))

    def test_non_json_body_rejects(self):
        with pytest.raises(CodecError):
            decode(HEADER + b"\xff\xfe not json")

    @pytest.mark.parametrize("frame", [
        pytest.param(HEADER, id="[]"),                    # no kind byte
        pytest.param(HEADER + b"\x00", id="{}"),          # kind 0
        pytest.param(HEADER + b"\x09\x00", id='{"t":"warp"}'),
        pytest.param(HEADER + b"\x03", id='{"t":"ping"}'),  # missing src
        pytest.param(HEADER + b"\x03\x80\x00",            # src 0, padded
                     id='{"t":"ping","src":"zero"}'),
        pytest.param(HEADER + b"\x03\x81\x00",            # src 1, padded
                     id='{"t":"ping","src":true}'),
        pytest.param(HEADER + b"\x01\x01\x09nope",        # host of 9, 4 left
                     id='{"t":"join","id":1,"addr":"nope"}'),
        pytest.param(HEADER + b"\x02\x09\x01\x02",        # book of 9, 2 left
                     id='{"t":"welcome","book":[1,2]}'),
        pytest.param(HEADER + b"\x02\x01\x00\x02\xc3\x28\x01",  # host not UTF-8
                     id='{"t":"welcome","book":{"x":["h",1]}}'),
        pytest.param(GOSSIP + b"\x09\x01\x00",            # flags 9
                     id='{"t":"gossip","src":1,"round":0,"payload":'
                        '{"k":"odd"}}'),
        pytest.param(GOSSIP + b"\x00\x01\x00\x01\x09\x01\x01\x00",  # tag 9
                     id='{"t":"gossip","src":1,"round":0,"payload":'
                        '{"k":"value","phase":1,"key":{"q":3},'
                        '"state":{"p":1.0,"v":[1]}}}'),
        pytest.param(GOSSIP + b"\x00\x01\x00\x01\x04\x7f",  # 127 ranges
                     id='{"t":"gossip","src":1,"round":0,"payload":'
                        '{"k":"value","phase":1,"key":{"m":1},'
                        '"state":{"p":1.0,"v":"all"}}}'),
        pytest.param(GOSSIP + b"\x01\x01\x01\x00\x01",    # entry: key only
                     id='{"t":"gossip","src":1,"round":0,"payload":'
                        '{"k":"batch","phase":1,"entries":[[1]]}}'),
        pytest.param(GOSSIP + b"\x01\x01",                # no entry count
                     id='{"t":"gossip","src":1,"round":0,"payload":'
                        '{"k":"batch","phase":1,"entries":[]}}'),
    ])
    def test_structurally_invalid_records_reject(self, frame):
        with pytest.raises(CodecError):
            decode(frame)

    def test_bitflip_fuzz_never_raises_anything_else(self):
        """Every single-byte corruption either decodes — to a message
        that re-encodes to exactly those bytes — or CodecErrors."""
        frames = [encode(message) for message in ROUND_TRIP_MESSAGES]
        for frame in frames:
            for position in range(len(frame)):
                for flip in (0x01, 0x80, 0xFF):
                    corrupted = bytearray(frame)
                    corrupted[position] ^= flip
                    try:
                        message = decode(bytes(corrupted))
                    except CodecError:
                        continue  # the only legal failure mode
                    assert encode(message) == bytes(corrupted)

    def test_deep_garbage_json_rejects_not_crashes(self):
        """Version-2 bodies under a version-4 header are garbage like
        any other — however deep their brackets go."""
        for body in (
            b'{"t":"gossip","src":1,"round":2,"payload":{"k":"batch",'
            b'"phase":1,"entries":[[{"m":1},{"p":0}]]}}',
            b'{"t":"join","id":' + str(2 ** 80).encode() + b',"addr":["h",1]}',
            b'{"t":"welcome","book":{"5":["h","p"]}}',
            b"[" * 5000 + b"]" * 5000,
        ):
            with pytest.raises(CodecError):
                decode(HEADER + body)

    def test_payload_nesting_depth_is_bounded(self):
        def nested(depth):
            value = 1.0
            for __ in range(depth):
                value = (value,)
            return Gossip(0, 0, GossipValue(1, 0, _state(value, {0})))

        frame = encode(nested(16))
        assert decode(frame) == nested(16)
        with pytest.raises(CodecError, match="unencodable .* at depth 16"):
            encode(nested(17))
        # The same tree one level deeper, spelled by hand: 17 one-tuples
        # (tag 0x11 each).
        cut = frame.index(b"\x11")
        deeper = frame[:cut] + b"\x11" + frame[cut:]
        with pytest.raises(CodecError, match="deeper than 16"):
            decode(deeper)
        # The scan that interns entries stops at the bound too: the entry
        # starts at its two-byte key.
        assert codec._entry_end(frame, cut - 2) == len(frame)
        with pytest.raises(CodecError, match="not a payload tree"):
            codec._entry_end(deeper, cut - 2)
        with pytest.raises(CodecError):  # and no recursion error far past it
            decode(frame[:cut] + b"\x11" * 60000)

    def test_a_varint_past_147_groups_is_refused_not_assembled(self):
        widest = 2 ** 1029 - 1  # 147 groups of seven bits
        for value in (widest, -widest - 1):
            frame = encode(Gossip(0, 0, GossipValue(1, 0, _state(value, {0}))))
            assert decode(frame).payload.state.payload == value
            assert encode(decode(frame)) == frame
        for value in (widest + 1, -widest - 2, 10 ** 5000):
            with pytest.raises(CodecError, match=r"under 2\*\*1029"):
                encode(Gossip(0, 0, GossipValue(1, 0, _state(value, {0}))))
        # The same spelled by hand, and a datagram of continuation bytes.
        last = frame.index(b"\xff" * 146) + 146
        assert frame[last] == 0x7F
        with pytest.raises(CodecError, match="wider than 1029 bits"):
            decode(frame[:last] + b"\xff\x01" + frame[last + 1:])
        with pytest.raises(CodecError, match="wider than 1029 bits"):
            decode(VALUE[:-9] + b"\x01" + b"\xff" * 65_000)

    def test_unencodable_values_raise_codec_error(self):
        for payload in (None, "text", [1.0], {1.0}, (1.0, None)):
            with pytest.raises(CodecError, match="unencodable"):
                encode(Gossip(0, 0, GossipValue(1, 0, _state(payload, {0}))))
        for message in (
            Ping(src=-1), Ping(src=True), Ping(src=1.0), "ping", None,
            Join(node_id=1, host=b"h", port=1),
            Join(node_id=1, host="\ud800", port=1),
            Welcome(book={"1": ("h", 1)}),
            Gossip(0, 0, "payload"),
        ):
            with pytest.raises(CodecError):
                encode(message)


#: A payload tree between ``VALUE``'s key and a coverage of rank 0.
TREE_AT = GOSSIP + b"\x00\x02" + b"\x02\x00"
RANK_0 = b"\x01\x00\x00"


def _tree_bytes(value):
    """The wire bytes of ``value`` as a payload tree."""
    frame = encode(Gossip(1, 0, GossipValue(2, SubtreeId(1, 0),
                                            _state(value, {0}))))
    assert frame.startswith(TREE_AT) and frame.endswith(RANK_0)
    return frame[len(TREE_AT):-len(RANK_0)]


def _v3_tree_length(value):
    """Bytes of ``value`` as the version-3 tree: a tag byte, then a
    varint for every int and every tuple length."""
    def uv(n):
        return max(1, -(-n.bit_length() // 7))
    if isinstance(value, float):
        return 9
    if type(value) is bool:
        return 1
    if type(value) is int:
        return 1 + uv(value if value >= 0 else -1 - value)
    return 1 + uv(len(value)) + sum(map(_v3_tree_length, value))


#: Trees with every tag: ints on both sides of 128 and of 0, tuples on
#: both sides of 16 items.
_trees = st.recursive(
    st.one_of(st.floats(allow_nan=False), st.booleans(),
              st.integers(-300, 300), st.integers(-(1 << 80), 1 << 80)),
    lambda inner: st.lists(inner, max_size=20).map(tuple),
    max_leaves=60,
)


class TestPayloadTreeTagByte:
    """Version 4: a tag byte carries an int under 128 (``0x80 | n``) or
    a tuple's length under 16 (``0x10 | n``); nothing else moved."""

    @pytest.mark.parametrize("value, spelled", [
        (0, b"\x80"),
        (127, b"\xff"),
        (128, b"\x01\x80\x01"),
        (129, b"\x01\x81\x01"),
        (-1, b"\x02\x00"),
        (2 ** 1029 - 1, b"\x01" + b"\xff" * 146 + b"\x7f"),
        (-(2 ** 1029 - 1), b"\x02" + b"\xfe" + b"\xff" * 145 + b"\x7f"),
        ((), b"\x10"),
        ((0,) * 15, b"\x1f" + b"\x80" * 15),
        ((0,) * 16, b"\x05\x10" + b"\x80" * 16),
        ((0,) * 17, b"\x05\x11" + b"\x80" * 17),
        ((1.0, 7), b"\x12\x00" + struct.pack("<d", 1.0) + b"\x87"),
    ])
    def test_spelling(self, value, spelled):
        assert _tree_bytes(value) == spelled
        decoded = decode(TREE_AT + spelled + RANK_0).payload.state.payload
        assert decoded == value and type(decoded) is type(value)

    def test_a_bool_is_never_its_int(self):
        assert _tree_bytes(True) == b"\x04" and _tree_bytes(False) == b"\x03"
        assert _tree_bytes(1) == b"\x81" and _tree_bytes(0) == b"\x80"
        for tag, value in ((0x81, 1), (0x80, 0)):
            decoded = decode(TREE_AT + bytes([tag]) + RANK_0)
            assert type(decoded.payload.state.payload) is int
            assert decoded.payload.state.payload == value

    @pytest.mark.parametrize("spelled, complaint", [
        (b"\x01\x00", "int 0 is not in its tag byte"),
        (b"\x01\x7f", "int 127 is not in its tag byte"),
        (b"\x05\x00", "tuple of 0 is not in its tag byte"),
        (b"\x05\x0f" + b"\x80" * 15, "tuple of 15 is not in its tag byte"),
    ])
    def test_a_long_spelling_of_a_short_value_rejects(self, spelled, complaint):
        with pytest.raises(CodecError, match=complaint):
            decode(TREE_AT + spelled + RANK_0)

    @pytest.mark.parametrize(
        "tag", [*range(0x06, 0x10), *range(0x20, 0x80)], ids=hex
    )
    def test_every_unassigned_tag_rejects(self, tag):
        with pytest.raises(CodecError, match=f"unknown payload tag {tag}"):
            decode(TREE_AT + bytes([tag]) + RANK_0)
        with pytest.raises(CodecError, match="not a payload tree"):
            codec._entry_end(b"\x02\x00" + bytes([tag]) + RANK_0, 0)

    @settings(max_examples=300, deadline=None)
    @given(_trees)
    def test_the_skip_scan_ends_where_the_parse_does(self, value):
        out = bytearray()
        codec._put_entry(out, SubtreeId(1, 0), _state(value, {0}))
        raw = bytes(out) + b"\x00\xff"  # what follows is not scanned
        end = codec._entry_end(raw, 0)
        key, state, pos = codec._entry(raw, 0)
        assert end == pos == len(out)
        assert state.payload == value and key == SubtreeId(1, 0)

    @settings(max_examples=300, deadline=None)
    @given(_trees)
    def test_no_tree_is_longer_than_its_version_3_spelling(self, value):
        assert len(_tree_bytes(value)) <= _v3_tree_length(value)


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
        # N=4, K=4: member 2 is node 0's one box mate.
        rank = node.process.assignment.rank_of(2)
        assert node.process._expected_keys(1) == {0, 2}

        def gossip(members):
            return encode(Gossip(
                src=2, sent_round=0,
                payload=GossipBatch(phase=1, entries=(
                    (2, _state((5.0, len(members)), members)),
                )),
            ))

        node.datagram_received(gossip({4}), ("x", 1))  # no such rank
        node.datagram_received(gossip({1, 2, 3, 4}), ("x", 1))
        assert node.stats.frames_rejected == node.process.refused == 2
        assert list(node.process.known) == [0]
        node.datagram_received(gossip({rank}), ("x", 1))  # 2's own vote
        assert node.stats.frames_rejected == 2
        assert 2 in node.process.known
        rejected = registry.snapshot()["metrics"][
            "repro_net_rx_rejected_total"]["samples"]
        assert [sample["value"] for sample in rejected] == [2]

    def test_a_rekeyed_duplicate_is_refused_and_the_mean_stays_exact(
        self, monkeypatch
    ):
        """A box mate's vote re-presented under another box mate's key
        names only ranks inside the group, and used to be admitted: the
        member's phase-1 compose then counted that vote twice and its
        tick raised ``DoubleCountError``."""
        from repro.core.gridbox import shared_dense_assignment
        from repro.core.hashing import FairHash
        from repro.net.loopback import (
            LoopbackRouter,
            loopback_address,
            run_loopback_group,
        )
        from repro.net.node import NodeConfig, make_votes

        assignment = shared_dense_assignment(16, 4, 16, FairHash(salt=0))
        # N=16, K=4: node 0 shares its box with 2 and 6 (and 8, 12).
        assert {0, 2, 6} <= set(assignment.members_of_box(
            assignment.box_of(0)))
        vote = make_votes(NodeConfig(node_id=0, group_size=16))[6]
        forged = encode(Gossip(src=2, sent_round=0, payload=GossipBatch(
            phase=1, entries=((2, AggregateState(
                (vote, 1), IntervalMask.single(assignment.rank_of(6)),
            )),),
        )))
        take = LoopbackRouter.take

        def take_with_forgery(router):
            batch = take(router)
            if batch and not sent:
                # Ahead of the first gossip, before 2's genuine vote.
                sent.append(forged)
                batch.insert(0, (forged, loopback_address(0),
                                 loopback_address(2)))
            return batch

        sent: list[bytes] = []
        monkeypatch.setattr(LoopbackRouter, "take", take_with_forgery)
        report = run_loopback_group(16, k=4, seed=0)
        assert sent and report.converged
        assert report.net["frames_rejected"] == 1
        assert report.report.per_member[0] == 1.0
        assert report.estimates[0] == pytest.approx(report.true_value)


#: ``127.0.0.1`` as an address host (length 9), and port 70 000 as a
#: varint: one past what a socket address holds.
LOCALHOST = b"\x09127.0.0.1"
PORT_70000 = b"\xf0\xa2\x04"


class TestHostileAddresses:
    """A ``Join`` or ``Welcome`` naming a port past 16 bits, or a host
    with a NUL or outside ASCII, was written into the book; the node's
    next ``sendto`` to that id then raised ``OverflowError`` or
    ``TypeError``, which asyncio takes for a fatal write error: it
    closed the live node's socket."""

    HOSTILE = [
        pytest.param(HEADER + b"\x01\x03" + LOCALHOST + PORT_70000,
                     id="join-port-70000"),
        pytest.param(HEADER + b"\x01\x03\x0a127.0.0.1\x00\x01",
                     id="join-nul-host"),
        pytest.param(HEADER + b"\x01\x03\x02\xc3\xa9\x01",
                     id="join-non-ascii-host"),
        pytest.param(HEADER + b"\x02\x01\x03" + LOCALHOST + PORT_70000,
                     id="welcome-port-70000"),
        pytest.param(HEADER + b"\x02\x01\x03\x02h\x00\x01",
                     id="welcome-nul-host"),
    ]

    @pytest.mark.parametrize("frame", HOSTILE)
    def test_decode_rejects_the_address(self, frame):
        with pytest.raises(CodecError, match="port|NUL|ASCII"):
            decode(frame)

    @pytest.mark.parametrize("address", [
        ("127.0.0.1", 1 << 16), ("127.0.0.1", -1), ("127.0.0.1", True),
        ("127.0.0.1\x00", 9303), ("\xe9", 9303),
    ])
    def test_encode_refuses_the_address(self, address):
        with pytest.raises(CodecError):
            encode(Join(3, *address))
        with pytest.raises(CodecError):
            encode(Welcome({3: address}))

    def test_the_edges_of_the_port_range_still_travel(self):
        for port in (0, 0xFFFF):
            assert decode(encode(Join(3, "h", port))) == Join(3, "h", port)
        assert encode(Join(3, "127.0.0.1", 0xFFFF)) == (
            HEADER + b"\x01\x03" + LOCALHOST + b"\xff\xff\x03")

    def test_a_node_rejects_them_and_sends_only_to_socket_addresses(self):
        from repro.net.node import NetNode, NodeConfig

        sent = []
        node = NetNode(
            NodeConfig(node_id=0, group_size=8),
            transport_send=lambda data, addr: sent.append(addr),
        )
        for peer in range(8):
            node.book.record(peer, ("127.0.0.1", 9300 + peer))
        book = node.book.as_dict()
        for param in self.HOSTILE:
            node.datagram_received(param.values[0], ("127.0.0.1", 9303))
        assert node.stats.frames_rejected == len(self.HOSTILE)
        assert node.book.as_dict() == book
        for __ in range(12):  # gossip and probes reach every peer
            node.tick()
        assert {addr[1] for addr in sent} == set(range(9301, 9308))
        for host, port in sent:
            assert 0 <= port < 1 << 16
            assert host.isascii() and "\x00" not in host


class TestNodeKeepsNoPayload:
    """The node keeps no payload and the codec keeps one per sender: the
    last body it decoded from that sender (its slot).  A dedupe memo
    that kept every payload grew with inbound traffic; the slot is
    replaced, never added to."""

    def test_one_payload_per_sender_decoded_once(self, monkeypatch):
        import weakref

        from repro import sanitize
        from repro.net import codec
        from repro.net import node as node_module

        class Tracked(GossipBatch):  # the slotted class has no weakref
            pass

        def batch(total):
            return GossipBatch(phase=1, entries=((2, _state((total, 1), {2})),))

        # N=4, K=4: member 2 is node 0's box mate, at rank 2.
        frame = encode(Gossip(src=2, sent_round=0, payload=batch(5.0)))
        later = encode(Gossip(src=2, sent_round=1, payload=batch(6.0)))
        other = encode(Gossip(src=1, sent_round=1, payload=batch(5.0)))
        monkeypatch.setattr(codec, "GossipBatch", Tracked)
        monkeypatch.setattr(codec, "_SLOTS", {})
        monkeypatch.setattr(codec, "_slot_bytes", 0)
        screened = []
        monkeypatch.setattr(sanitize, "SCREEN", lambda process, round_number,
                            phase, key, state: screened.append(key) or True)
        node = node_module.NetNode(
            node_module.NodeConfig(node_id=0, group_size=4),
            transport_send=lambda data, addr: None,
        )
        node.started = True
        node.process.on_start(node.ctx)
        refs = []

        def tracking_decode(data):
            message = decode(data)
            refs.append(weakref.ref(message.payload))
            return message

        monkeypatch.setattr(node_module, "decode", tracking_decode)
        for __ in range(3):
            node.datagram_received(frame, ("x", 1))
        assert node.stats.rx["gossip"] == 3 and 2 in node.process.known
        first = refs[0]()
        assert type(first) is Tracked
        assert all(ref() is first for ref in refs)  # one decoded object
        assert screened == [2]  # the repeats are skipped before the screen
        (body, held), = codec._SLOTS.values()
        assert body == frame[6:] and held is first
        del held
        del first
        node.datagram_received(other, ("x", 1))
        node.datagram_received(later, ("x", 1))
        assert refs[0]() is None  # replaced in its slot, kept nowhere
        assert sorted(codec._SLOTS) == [1, 2]  # one payload per sender
        assert codec._SLOTS[2][1] is refs[-1]()

    def test_a_bad_frame_leaves_the_senders_slot_so_the_next_one_hits(
        self, monkeypatch
    ):
        from repro.net import codec

        monkeypatch.setattr(codec, "_SLOTS", {})
        monkeypatch.setattr(codec, "_slot_bytes", 0)
        frame = encode(Gossip(src=2, sent_round=0, payload=GossipBatch(
            phase=1, entries=((2, _state((5.0, 1), {2})),))))
        held = decode(frame).payload
        for bad in (frame[:-1], frame + b"\x00", frame[:6] + b"\x02"):
            with pytest.raises(CodecError):
                decode(bad)
            assert codec._SLOTS == {2: (frame[6:], held)}
        assert decode(frame[:5] + b"\x07" + frame[6:]).payload is held


@pytest.fixture
def fresh_tables(monkeypatch):
    """The codec with empty slots and entry tables, put back after."""
    from repro.net import codec

    for name in ("_SLOTS", "_SPELLED", "_PARSED"):
        monkeypatch.setattr(codec, name, {})
    for name in ("_slot_bytes", "_spelled_bytes", "_parsed_bytes"):
        monkeypatch.setattr(codec, name, 0)
    return codec


class TestEntryTables:
    """Under the slots, the codec spells a state under one key object
    once and parses an entry's bytes once per process: a repeat from any
    sender is the same state object, spelled and parsed as if new."""

    def test_one_state_under_two_keys_spells_each_keys_bytes(
        self, fresh_tables
    ):
        codec = fresh_tables
        state = _state((3.5, 2), {0, 1})
        messages = [Gossip(0, 0, GossipValue(2, key, state))
                    for key in (1, SubtreeId(1, 0), 1, SubtreeId(1, 0))]
        cold = []
        for message in messages:
            codec._SPELLED.clear()
            codec._spelled_bytes = 0
            cold.append(encode(message))
        assert cold[0] != cold[1]
        assert [encode(message) for message in messages] == cold
        assert encode(messages[0]) == cold[0]  # spelled under 1 last
        with pytest.raises(CodecError, match="not an unsigned integer"):
            encode(Gossip(0, 0, GossipValue(2, True, state)))  # == 1

    def test_a_repeat_from_any_sender_decodes_to_the_same_state(
        self, fresh_tables
    ):
        state = _state((3.5, 2), {0, 1})
        batch = GossipBatch(2, ((SubtreeId(1, 0), state),
                                (SubtreeId(1, 1), _state(1.0, {2}))))
        first = decode(encode(Gossip(1, 0, batch))).payload
        again = decode(encode(Gossip(2, 0, GossipValue(
            2, SubtreeId(1, 0), state)))).payload
        assert first == batch and again.state is first.entries[0][1]
        assert again.key is first.entries[0][0]

    def test_damage_after_a_parsed_entry_raises_and_interns_nothing(
        self, fresh_tables
    ):
        codec = fresh_tables
        held = _state((3.5, 2), {0, 1})
        decode(encode(Gossip(1, 0, GossipValue(2, 4, held))))
        parsed = dict(codec._PARSED)
        (entry,) = parsed
        # A batch from a new sender: the interned entry, then a new one.
        frame = encode(Gossip(2, 0, GossipBatch(
            2, ((4, held), (5, _state(1.0, {5}))))))
        tag = frame.index(entry) + len(entry) + 2  # the new entry's tree
        assert frame[tag] == 0  # a float
        for bad in (
            frame[:-1],                                   # truncated
            frame[:tag] + b"\x06" + frame[tag + 1:],      # unknown tag
            frame[:-1] + bytes([frame[-1] | 0x80]),       # runs off the end
            frame + b"\x00",                              # trailing
        ):
            with pytest.raises(CodecError):
                decode(bad)
            assert codec._PARSED == parsed
            assert codec._PARSED[entry] is parsed[entry]
        assert decode(frame).payload.entries[0][1] is parsed[entry][1]
        assert len(codec._PARSED) == 2


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
        # A forged state: every other rank of 80 000 — 40 000 single-rank
        # exceptions (two bytes each) no loss pattern produces and no
        # datagram can carry.
        forged = AggregateState(
            (1.0, 40_000), IntervalMask(range(0, 80_000, 2))
        )
        payload = GossipValue(phase=3, key=SubtreeId(0, 0), state=forged)
        frame = encode(Gossip(src=0, sent_round=0, payload=payload))
        assert len(frame) > MAX_DATAGRAM_BYTES == 65507
        node.ctx.send(1, payload)
        assert sent == []
        assert node.stats.frames_oversize == 1
        assert node.stats.messages_sent == node.stats.bytes_sent == 0
        # The same send with honest coverage goes out.
        honest = AggregateState((1.0, 80_000), IntervalMask(range(80_000)))
        node.ctx.send(1, GossipValue(3, SubtreeId(0, 0), honest))
        assert len(sent) == 1 and len(sent[0]) < 32
        assert node.stats.frames_oversize == 1
        oversize = registry.snapshot()["metrics"][
            "repro_net_tx_oversize_total"]["samples"]
        assert [sample["value"] for sample in oversize] == [1]
        assert net_stats_record([node])["frames_oversize"] == 1

    def test_a_book_larger_than_one_datagram_is_welcomed_in_several(self):
        """One Welcome of this 6 000-entry book is ~200 kB: as a single
        frame it was counted oversize and never sent, stranding every
        joiner of a large group (from ~2 500 members of four-byte-dotted
        hosts under wire v2, ~4 700 under v3 and v4)."""
        from repro.net.node import NetNode, NodeConfig

        size = 6_000
        wires = {0: [], 1: []}
        seed, joiner = (
            NetNode(
                NodeConfig(node_id=node_id, group_size=size),
                transport_send=lambda data, addr, out=wires[node_id]:
                    out.append((data, addr)),
                seeds=(("10.0.0.0", 9000),) if node_id else (),
            )
            for node_id in (0, 1)
        )
        for node_id in range(size):  # the seed has heard everyone
            seed.book.record(
                node_id, (f"node-{node_id:05d}.group.example.net", 9000 + node_id)
            )
        whole = len(encode(Welcome(seed.book.as_dict())))
        assert whole > 2 * MAX_DATAGRAM_BYTES
        joiner.register_self(("10.0.0.1", 9001))
        assert joiner.tick() is False and not joiner.book.complete
        (join, __), = wires[1]
        seed.datagram_received(join, ("10.0.0.1", 9001))
        welcomes = wires[0]
        assert seed.stats.frames_oversize == 0
        assert seed.stats.tx["welcome"] == len(welcomes) == 4  # halved twice
        assert sum(len(data) for data, __ in welcomes) < whole + 4 * 16
        assert all(len(data) <= MAX_DATAGRAM_BYTES for data, __ in welcomes)
        assert all(addr == ("10.0.0.1", 9001) for __, addr in welcomes)
        for data, __ in reversed(welcomes):  # any order: merge is monotone
            joiner.datagram_received(data, ("10.0.0.0", 9000))
        assert joiner.book.complete
        assert joiner.book.as_dict() == seed.book.as_dict()
        assert joiner.stats.rx["welcome"] == 4
        assert joiner.stats.frames_rejected == 0

    def test_a_book_that_fits_is_still_one_welcome(self):
        from repro.net.node import NetNode, NodeConfig

        sent = []
        seed = NetNode(
            NodeConfig(node_id=0, group_size=64),
            transport_send=lambda data, addr: sent.append(data),
        )
        for node_id in range(64):
            seed.book.record(node_id, ("127.0.0.1", 9000 + node_id))
        seed.datagram_received(encode(Join(1, "127.0.0.1", 9001)), ("h", 1))
        assert sent == [encode(Welcome(seed.book.as_dict()))]


class TestFramedOncePerTick:
    """A node frames a gossip payload once and sends the same bytes to
    every gossipee of the tick; a batch re-sent on a later tick keeps
    its body and gets a new ``src``/``round`` prelude only."""

    @staticmethod
    def _node(monkeypatch):
        from repro.net import node as node_module
        from repro.net.node import NetNode, NodeConfig

        bodies = []
        body_of = node_module._gossip_body

        def counting_body(payload):
            bodies.append(payload)
            return body_of(payload)

        monkeypatch.setattr(node_module, "_gossip_body", counting_body)
        sent = []
        node = NetNode(
            NodeConfig(node_id=2, group_size=8),
            transport_send=lambda data, addr: sent.append(data),
        )
        for peer in range(8):
            node.book.record(peer, ("127.0.0.1", 9000 + peer))
        return node, sent, bodies

    def test_one_body_per_payload_one_frame_per_tick(self, monkeypatch):
        node, sent, bodies = self._node(monkeypatch)
        batch = GossipBatch(1, ((2, _state((5.0, 1), {2})),))
        node.ctx.send(0, batch)
        node.ctx.send(1, batch)
        assert sent[0] is sent[1]  # the very same bytes object
        assert sent[0] == encode(Gossip(src=2, sent_round=0, payload=batch))
        node.tick_count = 1
        node.ctx.send(3, batch)
        assert sent[2] == encode(Gossip(src=2, sent_round=1, payload=batch))
        assert len(bodies) == 1  # the payload body was framed once
        assert node.stats.tx["gossip"] == 3
        assert node.stats.tx_bytes["gossip"] == sum(map(len, sent))

    def test_an_equal_but_distinct_payload_is_framed_again(self, monkeypatch):
        # Identity, not equality, keys the slot: comparing two batches
        # costs more than framing one.
        node, sent, bodies = self._node(monkeypatch)
        first = GossipBatch(1, ((2, _state((5.0, 1), {2})),))
        second = GossipBatch(1, ((2, _state((5.0, 1), {2})),))
        reply = GossipBatch(1, first.entries, reply=True)
        for payload in (first, second, reply, first):
            node.ctx.send(0, payload)
        assert len(bodies) == 4
        assert sent[0] == sent[1] == sent[3] != sent[2]
        assert [decode(data).payload for data in sent] == [
            first, second, reply, first]

    def test_every_send_of_an_oversize_frame_is_counted(self, monkeypatch):
        node, sent, __ = self._node(monkeypatch)
        forged = GossipValue(3, SubtreeId(0, 0), AggregateState(
            (1.0, 40_000), IntervalMask(range(0, 80_000, 2))))
        node.ctx.send(0, forged)
        node.ctx.send(1, forged)
        assert sent == [] and node.stats.frames_oversize == 2

    def test_ping_and_pong_are_framed_once_per_node(self, monkeypatch):
        from repro.net import node as node_module

        encoded = []
        encode_of = node_module.encode
        monkeypatch.setattr(node_module, "encode",
                            lambda message: encoded.append(message)
                            or encode_of(message))
        node, sent, __ = self._node(monkeypatch)
        for __ in range(4):
            node.tick()
            node.datagram_received(encode(Ping(src=5)), ("127.0.0.1", 9005))
        pings = [data for data in sent if data == encode(Ping(src=2))]
        pongs = [data for data in sent if data == encode(Pong(src=2))]
        assert len(pings) == node.stats.tx["ping"] > 0
        assert len(pongs) == node.stats.tx["pong"] == 4
        assert all(data is pings[0] for data in pings)
        assert all(data is pongs[0] for data in pongs)
        assert encoded == [Ping(src=2), Pong(src=2)]  # in __init__ only
        assert node.stats.tx_bytes["ping"] == sum(map(len, pings))
        assert node.stats.tx_bytes["pong"] == sum(map(len, pongs))
