"""Versioned binary wire codec for the UDP runtime.

One datagram is one frame: a four-byte header, then unsigned LEB128
varints (``uv``: seven bits per byte, low group first, high bit set on
every byte but the last) and raw bytes where noted::

    header   "R" "A"  version (4)  kind
    join     kind 1   uv id, address
    welcome  kind 2   uv n, n x (uv id delta, address)
    ping     kind 3   uv src
    pong     kind 4   uv src
    gossip   kind 5   uv src, uv round | flags, uv phase, entries

    address  uv length, that many ASCII bytes of host (no NUL), uv port
             (0 .. 65535)
    flags    0 = one value (a single entry follows)
             1 = batch     (uv n, then n entries)    3 = batch, reply
    entry    key, payload tree, coverage
    key      uv 0, uv member id   or   uv prefix_length + 1, uv prefix_value
    tree     one tag byte, then
             0x00      float (8 bytes, IEEE-754 little-endian)
             0x01      int >= 128 (uv n)
             0x02      int < 0 (uv -1 - n)
             0x03 0x04 False, True
             0x05      tuple of n >= 16 (uv n, n trees)
             0x10 | n  tuple of n < 16 (n trees)
             0x80 | n  int 0 <= n < 128
    coverage uv n, n x (uv gap, uv span)

Canonical by construction where it can be: a coverage range is ``lo =
previous hi + 2 + gap``, ``hi = lo + span`` (the first ``lo`` is its
``gap``) and a welcome id is ``previous id + 1 + delta``, so an
unsorted, overlapping, uncoalesced, negative or repeated spelling does
not exist.  What bytes can still spell twice or wrongly :func:`decode`
rejects — a zero-padded varint or one past :data:`_MAX_UV_BITS`, an
unknown kind/flags/tag, an int or tuple length its tag byte could
carry spelled long, a count or length past the end, nesting beyond
:data:`_MAX_DEPTH`, truncation, trailing bytes, an address no socket
takes — so every message has one spelling
(``encode(decode(f)) == f``; ``decode(encode(m)) == m`` with exact
types, floats bit for bit) and :func:`decode` raises only
:class:`CodecError` on any byte string (docs/NET.md has the rule table;
``tests/property/test_codec_properties.py`` pins it).

The coverage (:class:`~repro.core.intervals.IntervalMask` over
hierarchy ranks) travels with every state — the codec knows nothing of
the grid assignment — at two to six bytes per complete subtree of any
size: Section 2's constant message size, plus one ``(gap, span)`` per
loss-induced exception.  A gossip frame after its ``round`` names
neither sender nor tick, so :class:`~repro.net.node.NetNode` keeps that
part (``_gossip_body``) while it re-sends a payload and only prefixes
it per tick (``_gossip_frame``); :func:`decode` keeps the last body it
parsed from each ``src`` (:data:`_SLOTS`) and answers a byte-equal one
with the very payload it decoded to, parsing (:func:`_gossip_payload`)
only a body that differs and holding it only if the parse succeeds.

Under the slots, each direction interns entries (Section 6.3's K
child aggregates are re-sent round after round by every member of a
subtree).  :func:`_entry_bytes` spells a state it spelled before under
the same key from :data:`_SPELLED`; :func:`_interned_entry` finds an
entry's end with a scan that builds nothing and answers bytes parsed
before from :data:`_PARSED` — one :class:`AggregateState` for a
repeat from any sender — parsing only new bytes, and interning them
only if the parse ends where the scan did and the whole body decodes,
so hostile bytes can only hit an entry an earlier frame spelled
validly.  Each table holds at most :data:`_ENTRY_BUDGET` bytes.

Versions: 1 shipped coverage as a sorted id list in a JSON body, 2 as a
JSON interval list, 3 spelled every int and tuple length as a tag byte
and a varint.  None is decoded; any version byte but 4 is rejected
there.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any

from repro.core.aggregates import AggregateState
from repro.core.gridbox import SubtreeId
from repro.core.intervals import IntervalMask, _make
from repro.core.messages import GossipBatch, GossipValue

__all__ = [
    "MAGIC",
    "WIRE_VERSION",
    "MAX_DATAGRAM_BYTES",
    "CodecError",
    "Join",
    "Welcome",
    "Ping",
    "Pong",
    "Gossip",
    "encode",
    "decode",
]

#: Frame magic: every datagram of this runtime starts with these bytes.
MAGIC = b"RA"
#: Current wire version; a frame with any other version byte is rejected.
WIRE_VERSION = 4
#: Largest UDP payload over IPv4 (65535 - 8 UDP - 20 IP header bytes): a
#: frame beyond it cannot be one datagram, so senders must not emit it.
MAX_DATAGRAM_BYTES = 65507

_PREFIX = MAGIC + bytes([WIRE_VERSION])
#: Deepest payload tuple nesting accepted (the repo's aggregates reach
#: 3): bounds the decoder's recursion on hostile input.
_MAX_DEPTH = 16
#: Longest varint accepted or emitted, 147 groups: any integer a float64
#: can equal fits, and a hostile one costs no more than honest bytes do.
_MAX_UV_BITS = 7 * 147
_UV_LIMIT = 1 << _MAX_UV_BITS
_F64 = struct.Struct("<d")
#: asyncio closes a transport whose ``sendto`` passes it (or a NUL host).
_MAX_PORT = 0xFFFF
#: Byte budget of the bodies in :data:`_SLOTS` (honest N=512 peaks at
#: 70 kB); an insert that would pass it empties the table first.  Their
#: objects weigh 26x their bytes honest, 55x at worst (14 MiB).
_SLOT_BUDGET = 1 << 18
#: ``src -> (body, payload)``: the last gossip body decoded from each
#: sender, one table for all nodes of a process (payloads are frozen, so
#: receivers share them as simulated ones do); ``_slot_bytes`` sums bodies.
_SLOTS: dict[int, tuple[bytes, Any]] = {}
_slot_bytes = 0
#: Byte budget of each entry table below (an honest N=512 run spells
#: 37 kB of distinct entries and parses 12 kB); an insert that would
#: pass it empties that table first.
_ENTRY_BUDGET = 1 << 15
#: ``id(state) -> (state, key, entry bytes)``: the spelling of every
#: entry encoded lately; holding ``state`` keeps its id from reuse.
_SPELLED: dict[int, tuple[AggregateState, Any, bytes]] = {}
_spelled_bytes = 0
#: ``entry bytes -> (key, state)``: every entry decoded lately, so that
#: a repeat from any sender is the very state an earlier parse built.
_PARSED: dict[bytes, tuple[Any, AggregateState]] = {}
_parsed_bytes = 0


class CodecError(Exception):
    """The datagram is not a valid frame of this wire version."""


# -- wire message types ---------------------------------------------------

@dataclass(frozen=True, slots=True)
class Join:
    """Bootstrap request: "I am ``node_id`` at ``(host, port)``"."""

    node_id: int
    host: str
    port: int


@dataclass(frozen=True, slots=True)
class Welcome:
    """Bootstrap reply: the responder's current address book."""

    book: dict[int, tuple[str, int]]


@dataclass(frozen=True, slots=True)
class Ping:
    """Liveness probe."""

    src: int


@dataclass(frozen=True, slots=True)
class Pong:
    """Liveness probe answer."""

    src: int


@dataclass(frozen=True, slots=True)
class Gossip:
    """One protocol payload in flight.

    ``sent_round`` is the sender's tick count when it sent — carried so
    the receiver can surface skew in diagnostics; the protocol itself
    only reads the payload's own phase number.
    """

    src: int
    sent_round: int
    payload: GossipValue | GossipBatch


# -- encoding -------------------------------------------------------------

_KINDS = {Join: 1, Welcome: 2, Ping: 3, Pong: 4, Gossip: 5}


def _put_uv(out: bytearray, value: int) -> None:
    if type(value) is not int or not 0 <= value < _UV_LIMIT:  # nor a bool
        shown = hex(value)[:40] if type(value) is int else repr(value)
        raise CodecError(
            f"{shown} is not an unsigned integer under 2**{_MAX_UV_BITS}"
        )
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def _put_address(out: bytearray, address: tuple[str, int]) -> None:
    host, port = address
    if not isinstance(host, str) or not host.isascii() or "\x00" in host:
        raise CodecError(f"host {host!r} is not ASCII text without NUL")
    if type(port) is not int or not 0 <= port <= _MAX_PORT:
        raise CodecError(f"port {port!r} is not 0..{_MAX_PORT}")
    raw = host.encode()
    _put_uv(out, len(raw))
    out += raw
    _put_uv(out, port)


def _put_tree(out: bytearray, value: Any, depth: int = 0) -> None:
    if isinstance(value, float):  # numpy.float64 too: the same 8 bytes
        out.append(0)
        out += _F64.pack(value)
    elif type(value) is int:
        if 0 <= value < 0x80:
            out.append(0x80 | value)
        else:
            out.append(1 if value >= 0 else 2)
            _put_uv(out, value if value >= 0 else -1 - value)
    elif type(value) is bool:
        out.append(4 if value else 3)
    elif type(value) is tuple and depth < _MAX_DEPTH:
        if len(value) < 16:
            out.append(0x10 | len(value))
        else:
            out.append(5)
            _put_uv(out, len(value))
        for item in value:
            _put_tree(out, item, depth + 1)
    else:
        raise CodecError(
            f"unencodable payload value {value!r} at depth {depth}"
        )


def _put_entry(out: bytearray, key: Any, state: AggregateState) -> None:
    if isinstance(key, SubtreeId):
        if type(key[0]) is not int or key[0] < 0:
            raise CodecError(f"{key!r} has no unsigned prefix length")
        _put_uv(out, key[0] + 1)  # 0 tags a member id
        _put_uv(out, key[1])
    else:
        out.append(0)
        _put_uv(out, key)
    _put_tree(out, state.payload)
    members = state.members
    _put_uv(out, len(members.bounds) // 2)
    hi = -2
    for lo, next_hi in members.intervals():
        _put_uv(out, lo - hi - 2)
        _put_uv(out, next_hi - lo)
        hi = next_hi


def _bounded(table: dict, key: Any, value: Any, size: int, used: int,
             budget: int) -> int:
    """``table[key] = value``, ``size`` bytes more than the ``used`` it
    holds of ``budget``: empties the table first if the insert would pass
    the budget, and holds nothing bigger.  Returns the bytes now held."""
    if used + size > budget:
        table.clear()
        used = 0
    if size <= budget:
        table[key] = value
        used += size
    return used


def _entry_bytes(key: Any, state: AggregateState) -> bytes:
    """The spelling of one entry, from :data:`_SPELLED` when this
    ``state`` was last spelled under this very ``key`` object (an equal
    key is not enough: ``True == 1``, and only the int is encodable)."""
    global _spelled_bytes
    held = _SPELLED.get(id(state))
    if held is not None and held[0] is state and held[1] is key:
        return held[2]
    out = bytearray()
    _put_entry(out, key, state)
    raw = bytes(out)
    _spelled_bytes -= len(_SPELLED.pop(id(state), (None, None, b""))[2])
    _spelled_bytes = _bounded(_SPELLED, id(state), (state, key, raw),
                              len(raw), _spelled_bytes, _ENTRY_BUDGET)
    return raw


def _gossip_body(payload: GossipValue | GossipBatch) -> bytes:
    """The sender-independent tail of a gossip frame: flags, phase and
    entries."""
    out = bytearray()
    if isinstance(payload, GossipValue):
        out.append(0)
        _put_uv(out, payload.phase)
        out += _entry_bytes(payload.key, payload.state)
    elif isinstance(payload, GossipBatch) and type(payload.reply) is bool:
        out.append(3 if payload.reply else 1)
        _put_uv(out, payload.phase)
        _put_uv(out, len(payload.entries))
        for key, state in payload.entries:
            out += _entry_bytes(key, state)
    else:
        raise CodecError(f"unencodable gossip payload {payload!r}")
    return bytes(out)


def _gossip_frame(src: int, sent_round: int, body: bytes) -> bytes:
    """The datagram ``src`` sends at ``sent_round`` around a
    :func:`_gossip_body`."""
    out = bytearray(_PREFIX + b"\x05")
    _put_uv(out, src)
    _put_uv(out, sent_round)
    return bytes(out) + body


def encode(message: Join | Welcome | Ping | Pong | Gossip) -> bytes:
    """One wire message -> one framed datagram."""
    kind = _KINDS.get(type(message))
    if kind is None:
        raise CodecError(f"unencodable message {type(message).__name__}")
    if kind == 5:
        return _gossip_frame(
            message.src, message.sent_round, _gossip_body(message.payload)
        )
    out = bytearray(_PREFIX)
    out.append(kind)
    if kind >= 3:
        _put_uv(out, message.src)
    elif kind == 1:
        _put_uv(out, message.node_id)
        _put_address(out, (message.host, message.port))
    else:
        book = message.book
        if not all(type(node_id) is int for node_id in book):
            raise CodecError("welcome book ids are not integers")
        _put_uv(out, len(book))
        previous = -1
        for node_id in sorted(book):
            _put_uv(out, node_id - previous - 1)
            _put_address(out, book[node_id])
            previous = node_id
    return bytes(out)


# -- decoding -------------------------------------------------------------

def _uv(data: bytes, pos: int) -> tuple[int, int]:
    """The varint at ``pos`` -> ``(value, next pos)``."""
    value = data[pos]
    pos += 1
    if value < 0x80:
        return value, pos
    value &= 0x7F
    shift = 7
    while shift < _MAX_UV_BITS:
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            if not byte:
                raise CodecError("varint is not minimal-length")
            return value, pos
        shift += 7
    raise CodecError(f"varint wider than {_MAX_UV_BITS} bits")


def _count(data: bytes, pos: int, what: str, each: int = 1) -> tuple[int, int]:
    """A ``uv`` count of things at least ``each`` bytes long, refused
    before anything is allocated if the rest of the frame cannot hold
    them."""
    count, pos = _uv(data, pos)
    if count * each > len(data) - pos:
        raise CodecError(f"{what} of {count} exceeds the bytes left")
    return count, pos


def _address(data: bytes, pos: int) -> tuple[tuple[str, int], int]:
    length, pos = _count(data, pos, "host")
    raw = data[pos:pos + length]
    if not raw.isascii() or b"\x00" in raw:
        raise CodecError("host is not ASCII text without NUL")
    port, pos = _uv(data, pos + length)
    if port > _MAX_PORT:
        raise CodecError(f"port {port} is not 0..{_MAX_PORT}")
    return (raw.decode(), port), pos


def _tree(data: bytes, pos: int, depth: int) -> tuple[Any, int]:
    tag = data[pos]
    pos += 1
    if tag > 0x7F:
        return tag & 0x7F, pos
    if tag == 0:
        return _F64.unpack_from(data, pos)[0], pos + 8
    if tag == 1:
        value, pos = _uv(data, pos)
        if value < 0x80:
            raise CodecError(f"int {value} is not in its tag byte")
        return value, pos
    if tag == 2:
        value, pos = _uv(data, pos)
        return -1 - value, pos
    if tag == 3 or tag == 4:
        return tag == 4, pos
    if tag != 5 and tag >> 4 != 1:
        raise CodecError(f"unknown payload tag {tag}")
    if depth == _MAX_DEPTH:
        raise CodecError(f"payload nests deeper than {_MAX_DEPTH}")
    count = tag & 0x0F
    if tag == 5:
        count, pos = _count(data, pos, "tuple")
        if count < 16:
            raise CodecError(f"tuple of {count} is not in its tag byte")
    items = []
    for __ in range(count):
        item, pos = _tree(data, pos, depth + 1)
        items.append(item)
    return tuple(items), pos


def _entry(data: bytes, pos: int) -> tuple[Any, AggregateState, int]:
    key: Any
    tag, pos = _uv(data, pos)
    key, pos = _uv(data, pos)
    if tag:
        key = SubtreeId(tag - 1, key)
    payload, pos = _tree(data, pos, 0)
    ranges, pos = _count(data, pos, "coverage", each=2)
    bounds = []
    slots = ranges  # one per range, plus each span
    hi = -2
    for __ in range(ranges):
        gap, pos = _uv(data, pos)
        span, pos = _uv(data, pos)
        lo = hi + 2 + gap
        hi = lo + span
        bounds += (lo, hi)
        slots += span
    # Canonical whatever the deltas, so no validation walk (from_bounds
    # would add an eighth to decode): the mask module's own wrapper.
    members = _make(IntervalMask, tuple(bounds), slots)
    return key, AggregateState(payload, members), pos


def _skip_uv(data: bytes, pos: int) -> int:
    while data[pos] > 0x7F:
        pos += 1
    return pos + 1


def _tree_end(data: bytes, pos: int, depth: int) -> int:
    """Where the tree at ``pos`` ends, by :func:`_tree`'s grammar."""
    tag = data[pos]
    pos += 1
    if tag > 0x7F or tag == 3 or tag == 4:
        return pos
    if tag == 0:
        return pos + 8
    if tag == 1 or tag == 2:
        return _skip_uv(data, pos)
    if (tag != 5 and tag >> 4 != 1) or depth == _MAX_DEPTH:
        raise CodecError("not a payload tree")
    count = tag & 0x0F
    if tag == 5:
        count, pos = _count(data, pos, "tuple")
    for __ in range(count):
        pos = _tree_end(data, pos, depth + 1)
    return pos


def _entry_end(data: bytes, pos: int) -> int:
    """Where the entry at ``pos`` ends, by :func:`_entry`'s grammar but
    building nothing; raises on bytes that grammar refuses."""
    pos = _tree_end(data, _skip_uv(data, _skip_uv(data, pos)), 0)
    ranges, pos = _count(data, pos, "coverage", each=2)
    for __ in range(2 * ranges):
        pos = _skip_uv(data, pos)
    return pos


def _interned_entry(
    body: bytes, pos: int, new: dict[bytes, tuple[Any, AggregateState]]
) -> tuple[Any, AggregateState, int]:
    """:func:`_entry`, answered from :data:`_PARSED` (or ``new``, this
    body's) when the entry's bytes were parsed before; a new entry that
    parses to exactly the scanned bytes goes in ``new``."""
    try:
        end = _entry_end(body, pos)
    except (IndexError, CodecError):
        return _entry(body, pos)  # malformed: the parse says how
    raw = body[pos:end]
    held = _PARSED.get(raw) or new.get(raw)
    if held is not None:
        return held[0], held[1], end
    key, state, pos = _entry(body, pos)
    if pos == end:
        new[raw] = key, state
    return key, state, pos


def _gossip_payload(body: bytes) -> GossipValue | GossipBatch:
    """The inverse of :func:`_gossip_body`; the new entries of a body
    that decodes join :data:`_PARSED`."""
    global _parsed_bytes
    flags = body[0]
    phase, pos = _uv(body, 1)
    new: dict[bytes, tuple[Any, AggregateState]] = {}
    payload: GossipValue | GossipBatch
    if flags == 0:
        key, state, pos = _interned_entry(body, pos, new)
        payload = GossipValue(phase, key, state)
    elif flags == 1 or flags == 3:
        count, pos = _count(body, pos, "batch")
        entries = []
        for __ in range(count):
            key, state, pos = _interned_entry(body, pos, new)
            entries.append((key, state))
        payload = GossipBatch(phase, tuple(entries), flags == 3)
    else:
        raise CodecError(f"unknown gossip flags {flags}")
    if pos != len(body):
        raise CodecError(f"{len(body) - pos} trailing bytes")
    for raw, held in new.items():
        _parsed_bytes = _bounded(_PARSED, raw, held, len(raw), _parsed_bytes,
                                 _ENTRY_BUDGET)
    return payload


def _hold(src: int, held: tuple[bytes, Any]) -> None:
    """Make ``held`` the slot of ``src``, inside :data:`_SLOT_BUDGET`."""
    global _slot_bytes
    _slot_bytes -= len(_SLOTS.pop(src, (b"",))[0])
    _slot_bytes = _bounded(_SLOTS, src, held, len(held[0]), _slot_bytes,
                           _SLOT_BUDGET)


def _truncated(data: bytes) -> CodecError:
    return CodecError(f"truncated frame ({len(data)} bytes)")


def _decode(data: bytes) -> Join | Welcome | Ping | Pong | Gossip:
    if data[:3] != _PREFIX:
        if len(data) < 3:
            raise _truncated(data)
        if data[:2] != MAGIC:
            raise CodecError("bad frame magic")
        raise CodecError(f"wire version {data[2]} is not {WIRE_VERSION}")
    kind = data[3]
    message: Join | Welcome | Ping | Pong | Gossip
    if kind == 5:
        src, pos = _uv(data, 4)
        sent_round, pos = _uv(data, pos)
        body = bytes(data[pos:])
        held = _SLOTS.get(src)
        if held is None or held[0] != body:
            held = body, _gossip_payload(body)
            _hold(src, held)
        return Gossip(src, sent_round, held[1])
    if kind == 3 or kind == 4:
        src, pos = _uv(data, 4)
        message = Ping(src) if kind == 3 else Pong(src)
    elif kind == 1:
        node_id, pos = _uv(data, 4)
        (host, port), pos = _address(data, pos)
        message = Join(node_id, host, port)
    elif kind == 2:
        count, pos = _count(data, 4, "book")
        book = {}
        node_id = -1
        for __ in range(count):
            delta, pos = _uv(data, pos)
            node_id += delta + 1
            book[node_id], pos = _address(data, pos)
        message = Welcome(book)
    else:
        raise CodecError(f"unknown frame kind {kind}")
    if pos != len(data):
        raise CodecError(f"{len(data) - pos} trailing bytes")
    return message


def decode(data: bytes) -> Join | Welcome | Ping | Pong | Gossip:
    """One datagram -> one wire message; :class:`CodecError` on anything
    that is not a well-formed frame of :data:`WIRE_VERSION`."""
    try:
        return _decode(data)
    except (IndexError, struct.error):  # a read ran past the last byte
        raise _truncated(data) from None
