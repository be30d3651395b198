"""The wire codec's contract as properties (repro.net.codec, version 3).

Three statements, over generated inputs rather than hand-picked frames:

* ``decode(encode(m)) == m`` *with exact types* for every encodable
  message — an ``int`` count stays ``int``, a ``bool`` stays ``bool``, a
  float comes back bit for bit (``64.0 == 64`` must not hide drift), a
  ``numpy.float64`` as an equal ``float``;
* for any byte string — random, or a valid frame damaged in every way a
  wire or an adversary can — ``decode`` either raises ``CodecError`` and
  nothing else, or returns a message that re-encodes to exactly those
  bytes (one accepted spelling per message);
* the per-sender body slots change no decoded message, only which
  object carries it, and never hold more than their byte budget.
"""

import contextlib
import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import AggregateState
from repro.core.gridbox import SubtreeId
from repro.core.intervals import IntervalMask
from repro.core.messages import GossipBatch, GossipValue
from repro.net import codec
from repro.net.codec import (
    CodecError,
    Gossip,
    Join,
    Ping,
    Pong,
    Welcome,
    decode,
    encode,
    _gossip_body,
    _gossip_frame,
    _gossip_payload,
    _uv,
)

# -- message strategies -------------------------------------------------------

#: Unsigned fields: one-, two- and many-byte varints all occur.
unsigned = st.one_of(
    st.integers(0, 127), st.integers(128, 1 << 14), st.integers(0, 1 << 70)
)
floats = st.one_of(
    st.floats(allow_nan=False),  # incl. inf, -0.0 and subnormals
    st.sampled_from([
        math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
        0.1 + 0.2, 64.0, 1.7976931348623157e308,
    ]),
)
ints = st.one_of(
    st.integers(-200, 200),
    st.integers(-(1 << 70), 1 << 70),
    st.sampled_from([1 << 64, -(1 << 64), (1 << 64) + 1, -(1 << 200),
                     (1 << 1029) - 1, -(1 << 1029)]),  # the widest carried
)
scalars = st.one_of(floats, ints, st.booleans())
#: Payload trees: a scalar, or tuples of trees (well inside the codec's
#: nesting bound of 16; the bound itself is a unit test).
trees = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=4).map(tuple), max_leaves=12
)


@st.composite
def masks(draw):
    """Random interval masks, built range by range so that long ranges,
    single slots and wide gaps (multi-byte varints) all occur."""
    bounds = []
    lo = -2
    for __ in range(draw(st.integers(0, 5))):
        lo = lo + 2 + draw(st.one_of(st.integers(0, 3), st.integers(0, 1 << 40)))
        hi = lo + draw(st.one_of(st.integers(0, 3), st.integers(0, 1 << 40)))
        bounds += [lo, hi]
        lo = hi
    return IntervalMask.from_bounds(bounds)


keys = st.one_of(unsigned, st.builds(SubtreeId, st.integers(0, 40), unsigned))
states = st.builds(AggregateState, trees, masks())
entries = st.tuples(keys, states)
payloads = st.one_of(
    st.builds(GossipValue, unsigned, keys, states),
    st.builds(GossipBatch, unsigned, st.lists(entries, max_size=9).map(tuple),
              st.booleans()),
)
#: What ``sendto`` takes without a fatal error: ASCII hosts with no NUL,
#: 16-bit ports (anything else is refused both ways, a unit test).
hosts = st.text(st.characters(min_codepoint=1, max_codepoint=127), max_size=40)
ports = st.one_of(st.integers(0, 127), st.integers(0, 0xFFFF))
addresses = st.tuples(hosts, ports)
messages = st.one_of(
    st.builds(Ping, unsigned),
    st.builds(Pong, unsigned),
    st.builds(Join, unsigned, hosts, ports),
    st.builds(Welcome, st.dictionaries(unsigned, addresses, max_size=8)),
    st.builds(Gossip, unsigned, unsigned, payloads),
)


def identical(a, b) -> bool:
    """``a == b`` *and* the same types all the way down, floats compared
    by their bits (so ``-0.0`` is not ``0.0`` and ``64`` is not ``64.0``)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(identical, a, b))
    if isinstance(a, dict):
        return list(a) == sorted(b) and all(identical(a[k], b[k]) for k in a)
    if isinstance(a, IntervalMask):
        return identical(a.bounds, b.bounds) and identical(a.count, b.count)
    if dataclasses.is_dataclass(a):  # wire messages, payloads, states
        return all(identical(getattr(a, field.name), getattr(b, field.name))
                   for field in dataclasses.fields(a))
    return a == b


# -- decode(encode(m)) is m ---------------------------------------------------

@settings(max_examples=400)
@given(message=messages)
def test_round_trip_is_the_identity_with_exact_types(message):
    frame = encode(message)
    decoded = decode(frame)
    assert decoded == message
    if isinstance(message, Welcome):  # decoded books come back id-sorted
        message = Welcome(dict(sorted(message.book.items())))
    assert identical(decoded, message)
    assert encode(decoded) == frame


@given(tree=trees)
def test_int_bool_and_float_leaves_never_trade_places(tree):
    state = AggregateState(tree, IntervalMask.single(0))
    back = decode(encode(Gossip(0, 0, GossipValue(1, 0, state))))
    assert identical(back.payload.state.payload, tree)


@given(value=st.floats(allow_nan=False))
def test_numpy_float64_comes_back_as_an_equal_float(value):
    state = AggregateState((np.float64(value), 3), IntervalMask.single(0))
    got = decode(encode(Gossip(0, 0, GossipValue(1, 0, state))))
    total, count = got.payload.state.payload
    assert type(total) is float and type(count) is int
    assert struct.pack("<d", total) == struct.pack("<d", value)


def test_nan_payload_bits_survive():
    signalling = struct.unpack("<d", b"\x01\x00\x00\x00\x00\x00\xf8\x7f")[0]
    for nan in (math.nan, signalling):
        state = AggregateState(nan, IntervalMask.single(0))
        frame = encode(Gossip(0, 0, GossipValue(1, 0, state)))
        assert struct.pack("<d", nan) in frame
        assert encode(decode(frame)) == frame


@given(src=unsigned, sent_round=unsigned, payload=payloads)
def test_a_frame_is_its_prelude_plus_a_sender_independent_body(
    src, sent_round, payload
):
    """What lets a node frame a batch once for all its gossipees."""
    body = _gossip_body(payload)
    assert _gossip_frame(src, sent_round, body) == encode(
        Gossip(src, sent_round, payload))
    assert _gossip_frame(0, 0, body)[6:] == body


@pytest.mark.parametrize("numpy_int", [np.int64(3), np.int32(3), np.uint8(3)])
def test_numpy_integers_are_refused_not_coerced(numpy_int):
    state = AggregateState((1.0, numpy_int), IntervalMask.single(0))
    with pytest.raises(CodecError):
        encode(Gossip(0, 0, GossipValue(1, 0, state)))
    with pytest.raises(CodecError):
        encode(Ping(src=numpy_int))


# -- any bytes: CodecError, or the one spelling -------------------------------

def accepts_only_its_own_spelling(data: bytes) -> bool:
    """The hostile-input contract on one byte string; True if it decoded."""
    try:
        message = decode(data)
    except CodecError:
        return False
    assert encode(message) == data
    return True


@settings(max_examples=1000)
@given(data=st.binary(max_size=96))
def test_random_bytes(data):
    accepts_only_its_own_spelling(data)


@settings(max_examples=1000)
@given(body=st.binary(max_size=96), kind=st.integers(0, 6))
def test_random_bodies_under_a_valid_header(body, kind):
    accepts_only_its_own_spelling(b"RA\x03" + bytes([kind]) + body)


@settings(max_examples=150)
@given(message=messages)
def test_every_bit_flip_truncation_and_appended_byte(message):
    frame = encode(message)
    for position in range(len(frame)):
        for bit in range(8):
            damaged = bytearray(frame)
            damaged[position] ^= 1 << bit
            accepts_only_its_own_spelling(bytes(damaged))
    for length in range(len(frame)):
        assert not accepts_only_its_own_spelling(frame[:length])
    for extra in (b"\x00", b"\x80", b"\xff", frame):
        assert not accepts_only_its_own_spelling(frame + extra)


@settings(max_examples=150)
@given(message=messages, data=st.data())
def test_zero_padded_varints_and_counts_past_the_end(message, data):
    """Mutations aimed at the two things a varint format must police:
    a second spelling of a number, and a count promising more than the
    datagram holds."""
    frame = encode(message)
    position = data.draw(st.integers(4, len(frame) - 1))
    byte = frame[position]
    if byte < 0x80:
        # Where this byte *is* a one-byte varint, these are that number
        # zero-padded to two and three bytes; elsewhere they are noise.
        for padded in (bytes([byte | 0x80, 0]), bytes([byte | 0x80, 0x80, 0])):
            damaged = frame[:position] + padded + frame[position + 1:]
            accepts_only_its_own_spelling(damaged)
    for huge in (b"\xff\x7f", b"\xff\xff\xff\xff\x0f", b"\xff" * 9 + b"\x01"):
        damaged = frame[:position] + huge + frame[position + 1:]
        accepts_only_its_own_spelling(damaged)


@given(value=unsigned)
def test_a_padded_varint_is_rejected_wherever_one_is_read(value):
    exact = encode(Ping(src=value))
    varint = exact[4:]
    padded = varint[:-1] + bytes([varint[-1] | 0x80, 0x00])
    assert decode(exact).src == value
    with pytest.raises(CodecError, match="minimal"):
        decode(exact[:4] + padded)


# -- the per-sender body slots ------------------------------------------------

@contextlib.contextmanager
def empty_slots():
    """Decode against an empty slot table; the live one is put back."""
    live, held = codec._SLOTS, codec._slot_bytes
    codec._SLOTS, codec._slot_bytes = {}, 0
    try:
        yield codec._SLOTS
    finally:
        codec._SLOTS, codec._slot_bytes = live, held


def table_free(frame: bytes):
    """What a decoder without slots returns: ``decode``'s result for any
    other frame, a full :func:`_gossip_payload` parse for gossip."""
    if frame[:4] != b"RA\x03\x05":
        return decode(frame)
    try:
        src, pos = _uv(frame, 4)
        sent_round, pos = _uv(frame, pos)
        return Gossip(src, sent_round, _gossip_payload(frame[pos:]))
    except (IndexError, struct.error):
        raise CodecError("truncated") from None


def outcome(decoder, frame):
    try:
        return decoder(frame)
    except CodecError:
        return CodecError


#: A few senders and a few payloads, so that sequences repeat frames,
#: give one sender several bodies and several senders one body.
senders = st.integers(0, 3) | st.integers(200, 1 << 20)
frame_steps = st.one_of(
    st.tuples(st.just("send"), senders, st.integers(0, 300), st.integers(0, 3)),
    st.tuples(st.just("again"), st.integers(0, 50)),
    st.tuples(st.just("flip"), st.integers(0, 50), st.integers(0, 1 << 12)),
    st.tuples(st.just("cut"), st.integers(0, 50), st.integers(0, 1 << 8)),
    st.tuples(st.just("junk"), st.integers(0, 50), st.binary(min_size=1, max_size=4)),
)


@settings(max_examples=120)
@given(pool=st.lists(payloads, min_size=4, max_size=4),
       steps=st.lists(frame_steps, max_size=40))
def test_slots_change_no_message_and_survive_a_bad_frame(pool, steps):
    sent: list[bytes] = []
    with empty_slots() as slots:
        for step in steps:
            if step[0] == "send":
                __, src, sent_round, which = step
                frame = encode(Gossip(src, sent_round, pool[which]))
                sent.append(frame)
            elif not sent:
                continue
            else:
                base = sent[step[1] % len(sent)]
                if step[0] == "again":
                    frame = base
                elif step[0] == "flip":
                    bit = step[2] % (8 * len(base))
                    damaged = bytearray(base)
                    damaged[bit // 8] ^= 1 << bit % 8
                    frame = bytes(damaged)
                elif step[0] == "cut":
                    frame = base[:step[2] % len(base)]
                else:
                    frame = base + step[2]
            before = dict(slots)
            got = outcome(decode, frame)
            expected = outcome(table_free, frame)
            if got is CodecError or not isinstance(got, Gossip):
                # A frame that fails, or is not gossip, leaves every
                # slot as it was: a sender's next honest frame still hits.
                assert got is expected or identical(got, expected)
                assert slots.keys() == before.keys()
                assert all(slots[src] is before[src] for src in slots)
                continue
            assert identical(got, expected)
            assert encode(got) == frame
            body = frame[len(frame) - len(_gossip_body(got.payload)):]
            held = before.get(got.src)
            if held is not None and held[0] == body:
                assert got.payload is held[1]  # decoded once, not again
            assert slots[got.src] == (body, got.payload)
            assert slots[got.src][1] is got.payload
            assert codec._slot_bytes == sum(len(b) for b, __ in slots.values())


@settings(max_examples=25, deadline=None)
@given(sizes=st.lists(st.integers(1, 7_000), max_size=40))
def test_a_flood_of_forged_senders_never_holds_past_the_budget(sizes):
    flood = sizes + [7_000] * 8  # 63 kB bodies: twice the budget at least
    with empty_slots() as slots:
        for src, size in enumerate(flood):
            # A valid value whose payload is ``size`` floats: 9 bytes each.
            value = GossipValue(1, 0, AggregateState(
                (0.5,) * size, IntervalMask.single(0)))
            frame = encode(Gossip((1 << 40) + src, 0, value))
            assert decode(frame).payload == value
            assert codec._slot_bytes == sum(
                len(body) for body, __ in slots.values())
            assert codec._slot_bytes <= codec._SLOT_BUDGET
            assert (1 << 40) + src in slots  # the newest body is held
        assert len(slots) < len(flood)  # emptied on the way


def test_a_body_past_the_budget_decodes_but_is_not_held():
    big = GossipValue(1, 0, AggregateState(
        (0.5,) * (codec._SLOT_BUDGET // 9 + 1), IntervalMask.single(0)))
    frame = encode(Gossip(7, 0, big))
    with empty_slots() as slots:
        decode(encode(Gossip(7, 0, GossipValue(1, 0, AggregateState(
            1.0, IntervalMask.single(0))))))
        assert 7 in slots
        assert decode(frame).payload == big
        assert slots == {} and codec._slot_bytes == 0
