"""Versioned wire codec for the UDP runtime.

Frame layout (one datagram = one frame)::

    offset 0   2 bytes   magic  b"RA"
    offset 2   1 byte    wire version (currently 2)
    offset 3   ...       UTF-8 JSON body

The body is ``json.dumps(..., sort_keys=True, separators=(",", ":"))``
of a single record whose ``"t"`` key names the message type, so a given
message object always encodes to the same bytes — the loopback golden
harness relies on that determinism, and version negotiation stays a
one-byte check.  :func:`decode` never raises anything but
:class:`CodecError` on hostile input (truncated frames, wrong magic or
version, malformed JSON, structurally invalid records); the fuzz tests
in ``tests/unit/test_net_codec.py`` pin that contract.

Protocol payloads (:class:`~repro.core.messages.GossipValue` /
:class:`~repro.core.messages.GossipBatch`) cross the wire losslessly:

* ``AggregateState.payload`` is a float or an arbitrarily nested tuple
  of scalars; tuples are encoded as JSON arrays and re-tupled on decode
  (Python's float repr round-trips exactly through JSON).
* ``AggregateState.members`` — the coverage mask — is shipped as its
  canonical interval list ``"v": [lo0, hi0, lo1, hi1, ...]`` of closed
  slot ranges (:class:`~repro.core.intervals.IntervalMask`).  Slots are
  hierarchy ranks, which both ends derive from the shared grid
  assignment, so a complete subtree is one pair whatever its size and
  the state stays constant-size up to the loss-induced exceptions.
  Decoding accepts the canonical spelling only (sorted, disjoint,
  coalesced, non-negative, no booleans), so ``decode(encode(m)) == m``
  and ``encode(decode(frame)) == frame`` both hold.
* Keys are member ids (phase 1) or
  :class:`~repro.core.gridbox.SubtreeId` prefixes (later phases),
  tagged ``{"m": id}`` / ``{"s": [length, value]}``.

Version 1 shipped ``"v"`` as the sorted member-id list; the two are not
interoperable and a version-1 frame is rejected at the version byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from repro.core.aggregates import AggregateState
from repro.core.gridbox import SubtreeId
from repro.core.intervals import IntervalMask
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
WIRE_VERSION = 2
#: Largest UDP payload over IPv4 (65535 - 8 UDP - 20 IP header bytes): a
#: frame beyond it cannot be one datagram, so senders must not emit it.
MAX_DATAGRAM_BYTES = 65507

_HEADER = MAGIC + bytes([WIRE_VERSION])


class CodecError(Exception):
    """The datagram is not a valid frame of this wire version."""


# -- wire message types ---------------------------------------------------

@dataclass(frozen=True)
class Join:
    """Bootstrap request: "I am ``node_id`` at ``(host, port)``"."""

    node_id: int
    host: str
    port: int


@dataclass(frozen=True)
class Welcome:
    """Bootstrap reply: the responder's current address book."""

    book: dict[int, tuple[str, int]]


@dataclass(frozen=True)
class Ping:
    """Liveness probe."""

    src: int


@dataclass(frozen=True)
class Pong:
    """Liveness probe answer."""

    src: int


@dataclass(frozen=True)
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

def _encode_scalar_tree(value: Any) -> Any:
    """Payload scalars/tuples -> JSON-safe (tuples become arrays)."""
    if isinstance(value, tuple):
        return [_encode_scalar_tree(item) for item in value]
    return value


def _decode_scalar_tree(value: Any) -> Any:
    """Inverse of :func:`_encode_scalar_tree` (arrays become tuples)."""
    if isinstance(value, list):
        return tuple(_decode_scalar_tree(item) for item in value)
    return value


def _encode_key(key: Any) -> dict:
    if isinstance(key, SubtreeId):
        return {"s": [key.prefix_length, key.prefix_value]}
    if isinstance(key, int):
        return {"m": key}
    raise CodecError(f"unencodable gossip key {key!r}")


def _decode_key(record: Any) -> Any:
    if not isinstance(record, dict):
        raise CodecError("gossip key is not a tagged object")
    if "m" in record:
        return _require_int(record, "m")
    if "s" in record:
        prefix = record["s"]
        if (
            not isinstance(prefix, list) or len(prefix) != 2
            or type(prefix[0]) is not int or type(prefix[1]) is not int
        ):
            raise CodecError("subtree key is not [length, value]")
        return SubtreeId(prefix[0], prefix[1])
    raise CodecError(f"unknown gossip key tag {sorted(record)!r}")


def _encode_state(state: AggregateState) -> dict:
    return {
        "p": _encode_scalar_tree(state.payload),
        "v": list(state.members.bounds),
    }


def _decode_state(record: Any) -> AggregateState:
    if not isinstance(record, dict) or "p" not in record or "v" not in record:
        raise CodecError("aggregate state is not {p, v}")
    bounds = record["v"]
    if not isinstance(bounds, list):
        raise CodecError("aggregate coverage is not an interval list")
    try:
        members = IntervalMask.from_bounds(bounds)
    except ValueError as exc:
        raise CodecError(f"aggregate coverage: {exc}") from None
    return AggregateState(
        payload=_decode_scalar_tree(record["p"]), members=members
    )


def _encode_payload(payload: GossipValue | GossipBatch) -> dict:
    if isinstance(payload, GossipValue):
        return {
            "k": "value",
            "phase": payload.phase,
            "key": _encode_key(payload.key),
            "state": _encode_state(payload.state),
        }
    if isinstance(payload, GossipBatch):
        return {
            "k": "batch",
            "phase": payload.phase,
            "reply": payload.reply,
            "entries": [
                [_encode_key(key), _encode_state(state)]
                for key, state in payload.entries
            ],
        }
    raise CodecError(f"unencodable gossip payload {type(payload).__name__}")


def _require_int(record: dict, key: str) -> int:
    value = record.get(key)
    if type(value) is not int:  # bool is an int subclass: rejected too
        raise CodecError(f"field {key!r} is not an int")
    return value


def _decode_payload(record: Any) -> GossipValue | GossipBatch:
    if not isinstance(record, dict):
        raise CodecError("gossip payload is not an object")
    kind = record.get("k")
    if kind == "value":
        return GossipValue(
            phase=_require_int(record, "phase"),
            key=_decode_key(record.get("key")),
            state=_decode_state(record.get("state")),
        )
    if kind == "batch":
        entries = record.get("entries")
        if not isinstance(entries, list):
            raise CodecError("batch entries is not a list")
        decoded = []
        for entry in entries:
            if not isinstance(entry, list) or len(entry) != 2:
                raise CodecError("batch entry is not [key, state]")
            decoded.append((_decode_key(entry[0]), _decode_state(entry[1])))
        reply = record.get("reply")
        if type(reply) is not bool:  # always written; 1 and "no" are not it
            raise CodecError("field 'reply' is not a boolean")
        return GossipBatch(
            phase=_require_int(record, "phase"),
            entries=tuple(decoded),
            reply=reply,
        )
    raise CodecError(f"unknown gossip payload kind {kind!r}")


def encode(message: Join | Welcome | Ping | Pong | Gossip) -> bytes:
    """One wire message -> one framed datagram."""
    if isinstance(message, Join):
        body: dict = {
            "t": "join", "id": message.node_id,
            "addr": [message.host, message.port],
        }
    elif isinstance(message, Welcome):
        body = {
            "t": "welcome",
            "book": {
                str(node_id): [host, port]
                for node_id, (host, port) in sorted(message.book.items())
            },
        }
    elif isinstance(message, Ping):
        body = {"t": "ping", "src": message.src}
    elif isinstance(message, Pong):
        body = {"t": "pong", "src": message.src}
    elif isinstance(message, Gossip):
        body = {
            "t": "gossip", "src": message.src, "round": message.sent_round,
            "payload": _encode_payload(message.payload),
        }
    else:
        raise CodecError(f"unencodable message {type(message).__name__}")
    return _HEADER + json.dumps(
        body, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def _decode_addr(record: Any) -> tuple[str, int]:
    if (
        not isinstance(record, list) or len(record) != 2
        or not isinstance(record[0], str) or type(record[1]) is not int
    ):
        raise CodecError("address is not [host, port]")
    return (record[0], record[1])


def decode(data: bytes) -> Join | Welcome | Ping | Pong | Gossip:
    """One datagram -> one wire message; :class:`CodecError` on anything
    that is not a well-formed frame of :data:`WIRE_VERSION`."""
    if len(data) < len(_HEADER):
        raise CodecError(f"truncated frame ({len(data)} bytes)")
    if data[: len(MAGIC)] != MAGIC:
        raise CodecError("bad frame magic")
    version = data[len(MAGIC)]
    if version != WIRE_VERSION:
        raise CodecError(
            f"wire version {version} is not {WIRE_VERSION}"
        )
    try:
        body = json.loads(data[len(_HEADER):].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CodecError(f"malformed frame body: {exc}") from None
    if not isinstance(body, dict):
        raise CodecError("frame body is not an object")
    kind = body.get("t")
    if kind == "join":
        host, port = _decode_addr(body.get("addr"))
        return Join(node_id=_require_int(body, "id"), host=host, port=port)
    if kind == "welcome":
        raw = body.get("book")
        if not isinstance(raw, dict):
            raise CodecError("welcome book is not an object")
        book: dict[int, tuple[str, int]] = {}
        for key, addr in raw.items():
            try:
                node_id = int(key)
            except (TypeError, ValueError):
                raise CodecError(
                    f"welcome book key {key!r} is not an id"
                ) from None
            book[node_id] = _decode_addr(addr)
        return Welcome(book=book)
    if kind == "ping":
        return Ping(src=_require_int(body, "src"))
    if kind == "pong":
        return Pong(src=_require_int(body, "src"))
    if kind == "gossip":
        return Gossip(
            src=_require_int(body, "src"),
            sent_round=_require_int(body, "round"),
            payload=_decode_payload(body.get("payload")),
        )
    raise CodecError(f"unknown message type {kind!r}")
