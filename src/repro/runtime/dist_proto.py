"""The DistFarm wire protocol, version 4: binary frames, codecs, batches.

Protocol v4 replaces the v3 per-task JSON wire with a compact binary
frame whose payload codec is negotiated per connection, and whose data
plane moves *batches* of tasks and results so dispatch and acks
amortise syscalls.  v3 peers keep working: both frame layouts coexist
on one socket, distinguished by the first byte, and the handshake
downgrades a session to the older peer's dialect.

Frame layouts
-------------

v4 (this release)::

    0      1      2      3..6        7..
    +------+------+------+-----------+---------------------+
    | 0xD4 | type | flags| length u32| body (codec-encoded)|
    +------+------+------+-----------+---------------------+

    type   one of :data:`FRAME_TYPES` (``hello``, ``task_batch``, ...)
    flags  low nibble: body codec id (:data:`CODEC_IDS`);
           bit 0x10 (:data:`FLAG_ENC`): body encrypted under the shared
           channel key *before* framing (secured channels)
    length body byte count, refused above :data:`MAX_FRAME` **before**
           any body allocation

v3 (legacy, still accepted)::

    0..3         4..
    +------------+--------------------+
    | length u32 | UTF-8 JSON object  |
    +------------+--------------------+

The magic byte ``0xD4`` can never open a legal v3 frame — a v3 length
starting ``0xD4`` would announce a >3 GiB body, far beyond
:data:`MAX_FRAME` — so :func:`read_frame` sniffs one byte and parses
either layout.  Malformed/EOF frames return ``None`` ("the peer is
gone"); *protocol violations* — oversized lengths, unknown frame types
or codec ids, undecodable bodies, empty batches — raise
:class:`ProtocolError` with a named diagnosis, and both endpoints treat
that as a peer fault (disconnect + replay), never a hang.

Codec negotiation
-----------------

The worker's ``hello`` carries ``codecs``, the payload codecs it can
speak, in preference order.  The coordinator answers ``welcome`` with
the single ``codec`` the session will use for data frames
(``task``/``task_batch`` coordinator→worker, ``result``/``result_batch``
worker→coordinator); control frames always travel as codec 0 (json) so
the handshake itself needs no negotiation.

=========  ==  ========================  =================================
codec      id  wire format               offered to
=========  ==  ========================  =================================
json        0  UTF-8 JSON                everyone (the compat fallback)
pickle      1  pickle HIGHEST_PROTOCOL   trusted workers only — ones this
                                         coordinator spawned or adopted
                                         (unpickling runs code; a remote
                                         attacher never gets it)
msgpack     2  msgpack (if importable)   everyone; gated on the optional
                                         dependency being present
=========  ==  ========================  =================================

A peer offering only unknown codec names is refused with an ``error``
frame naming them; :func:`read_frame` additionally enforces a
per-connection ``allowed`` codec set, so a peer that negotiated json
cannot smuggle a pickle-flagged frame past the boundary.

Frame vocabulary (``type``)
---------------------------

worker → coordinator
    ``hello``        first frame; worker id (−1 = "assign me one"),
                     ``proto`` (the sender's :data:`PROTOCOL_VERSION`)
                     and, from v4, ``codecs`` (see above).  Mismatched
                     versions are refused with an ``error`` frame naming
                     both; a v3 peer (proto 3) is *accepted* and served
                     the v3 dialect: json payloads, one task per frame
    ``reattach``     reconnect after losing the coordinator: like
                     ``hello`` but asserts an already-assigned worker id
                     and carries the cumulative ``completed`` counter
    ``hb``           heartbeat, with the cumulative completed counter
    ``result``       one task outcome (``value`` or ``error`` text, the
                     cumulative ``completed`` counter and, for a traced
                     task, its execution: on v4 the timing ``t =
                     [start, end, pid]``, on v3 the whole ``span``
                     record — the coordinator accepts either)
    ``result_batch`` v4: ``results`` — a non-empty list of result
                     entries (each shaped like a ``result`` body) plus
                     one ``completed`` counter for the whole batch; one
                     frame acks many tasks
    ``secured``      answer to a ``secure`` challenge (``proof``)
    ``refused``      task(s) bounced before execution — admission gate
                     (``--require-secure``) or epoch fencing ("stale
                     epoch"); carries ``task_id`` or, for a bounced
                     batch, ``task_ids``
    ``bye``          graceful exit after a poison frame

coordinator → worker
    ``welcome``      hello ack: worker id, ``proto`` (downgraded to the
                     peer's version for a v3 peer), ``epoch``, and for
                     v4 sessions the negotiated ``codec``
    ``takeover``     ``reattach`` ack from a promoted standby; same
                     shape as ``welcome``.  Epoch fencing applies to
                     batches exactly as to single tasks: a worker whose
                     highest seen epoch exceeds a session's refuses that
                     session's ``task`` *and* ``task_batch`` frames
    ``error``        terminal refusal with human-readable ``error`` text
                     (protocol-version mismatch, unknown codecs)
    ``task``         one task: ``task_id``, ``payload``.  On the v3
                     dialect a traced task also carries its dispatch
                     span as ``traceparent``, and the payload of a
                     secured channel is individually encrypted and
                     flagged ``enc``; on v4 the whole frame body is
                     encrypted instead (:data:`FLAG_ENC`) and a traced
                     frame carries ``traced: true`` (see ``task_batch``)
    ``task_batch``   v4: ``tasks`` — a non-empty list of entries
                     (``task_id``, ``payload``), one frame dispatching a
                     whole window.  When the coordinator traces, the
                     frame carries one ``traced: true`` — not a context
                     per entry — and the worker stamps each result entry
                     ``t = [start, end, pid]`` (epoch seconds); the
                     coordinator holds every entry's dispatch span and
                     builds the ``task.exec`` span under it.  A peer
                     that ignores the flag just ships no timing
    ``secure``       secure-channel handshake challenge
    ``poison``       finish already-received tasks, send ``bye``, exit

The shard hierarchy (:mod:`repro.runtime.hierarchy`) reuses the v3
frame layer on its low-rate parent ↔ shard-agent management links with
four more types (``contract``/``poll``/``report``/``violation``); the
management plane carries a handful of frames per second, so it stays on
the self-describing dialect deliberately.

Secured payloads use the same toy cipher as the thread and process
farms (:mod:`repro.security.crypto`), so ``secure_all()`` has the same
observable cost on every substrate.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import struct
from typing import Any, Iterable, Optional, Sequence, Tuple

from ..security.crypto import CryptoError, decrypt, encrypt

try:  # optional fast codec; never a hard dependency
    import msgpack as _msgpack
except ImportError:  # pragma: no cover - depends on the environment
    _msgpack = None

__all__ = [
    "MAX_FRAME",
    "PROTOCOL_VERSION",
    "COMPAT_PROTOCOLS",
    "SECRET",
    "MAGIC_V4",
    "FLAG_ENC",
    "FRAME_TYPES",
    "FRAME_IDS",
    "CODEC_IDS",
    "CODEC_NAMES",
    "ProtocolError",
    "available_codecs",
    "negotiate_codec",
    "encode_frame",
    "encode_frame_v4",
    "read_frame",
    "read_frame_ex",
    "version_mismatch_error",
    "encode_payload",
    "decode_payload",
    "make_challenge",
    "prove_challenge",
    "verify_proof",
]

#: wire protocol generation.  Version 2 added the handshake version
#: field plus the hierarchy frames; version 3 added coordinator failover
#: (``reattach``/``takeover``, sticky epochs).  Version 4 replaces the
#: per-task JSON wire with the binary frame header above, negotiated
#: payload codecs and ``task_batch``/``result_batch`` frames.  The
#: coordinator still serves v3 peers (:data:`COMPAT_PROTOCOLS`); peers
#: outside that set are refused up front with an ``error`` frame.
PROTOCOL_VERSION = 4

#: protocol versions a v4 coordinator accepts at the handshake.  A v3
#: peer gets the v3 dialect for the whole session: json frames, one
#: task per frame, per-payload encryption.
COMPAT_PROTOCOLS = (3, 4)

#: shared toy-cipher key (same key the other substrates use)
SECRET = b"repro-channel-key"

#: refuse frames above this size — a corrupt length prefix must not
#: make either side try to allocate gigabytes
MAX_FRAME = 64 * 1024 * 1024

#: first byte of every v4 frame; can never open a legal v3 frame (a v3
#: length beginning 0xD4 would exceed MAX_FRAME by two orders)
MAGIC_V4 = 0xD4

#: flags bit: the body was encrypted under :data:`SECRET` before framing
FLAG_ENC = 0x10

_CODEC_MASK = 0x0F

_HEADER_V3 = struct.Struct(">I")
_HEADER_V4 = struct.Struct(">BBBI")  # magic, type, flags, body length

#: v4 frame-type registry (id ↔ name).  Ids are wire format: never
#: renumber, only append.
FRAME_TYPES = {
    1: "hello",
    2: "welcome",
    3: "error",
    4: "task",
    5: "result",
    6: "secure",
    7: "secured",
    8: "refused",
    9: "poison",
    10: "bye",
    11: "hb",
    12: "reattach",
    13: "takeover",
    14: "task_batch",
    15: "result_batch",
    16: "contract",
    17: "poll",
    18: "report",
    19: "violation",
}
FRAME_IDS = {name: fid for fid, name in FRAME_TYPES.items()}

#: codec registry (name ↔ flags nibble).  Ids are wire format.
CODEC_IDS = {"json": 0, "pickle": 1, "msgpack": 2}
CODEC_NAMES = {cid: name for name, cid in CODEC_IDS.items()}

#: codecs whose *decode* path executes no peer-controlled code; safe to
#: negotiate with workers this coordinator did not spawn
_SAFE_CODECS = ("msgpack", "json")

#: coordinator preference order for workers it spawned/adopted itself
_TRUSTED_PREFERENCE = ("pickle", "msgpack", "json")


class ProtocolError(RuntimeError):
    """A structurally parseable frame that violates the protocol.

    Distinct from a ``None`` return (EOF / peer gone): a
    ``ProtocolError`` names what the peer did wrong — oversized length,
    unknown frame type or codec, undecodable body, empty batch — and
    both endpoints treat it as a peer *fault* (disconnect, replay its
    work elsewhere), never as something to wait out.
    """


def available_codecs() -> Tuple[str, ...]:
    """Codecs this interpreter can speak, fastest first."""
    if _msgpack is not None:
        return ("pickle", "msgpack", "json")
    return ("pickle", "json")


def negotiate_codec(
    offered: Iterable[Any],
    *,
    trusted: bool,
    allowed: str = "auto",
) -> str:
    """Pick the session codec from a peer's ``codecs`` offer.

    ``trusted`` gates the pickle fast path: unpickling executes
    arbitrary code, so only workers the coordinator spawned (or adopted
    across a failover) are offered it; everyone else negotiates down the
    safe list.  ``allowed`` restricts the coordinator side to one named
    codec (``"auto"``: no restriction).  Raises :class:`ProtocolError`
    with a named diagnosis when nothing mutually acceptable remains.
    """
    offered_names = [str(name) for name in offered]
    known = [n for n in offered_names if n in CODEC_IDS]
    unknown = [n for n in offered_names if n not in CODEC_IDS]
    preference = _TRUSTED_PREFERENCE if trusted else _SAFE_CODECS
    if allowed != "auto":
        if allowed not in CODEC_IDS:
            raise ProtocolError(
                f"unknown codec {allowed!r} configured on the coordinator; "
                f"supported codecs: {', '.join(sorted(CODEC_IDS))}"
            )
        preference = (allowed,)
    usable = set(available_codecs())
    for name in preference:
        if name in known and name in usable:
            return name
    detail = f"peer offered [{', '.join(offered_names) or 'nothing'}]"
    if unknown:
        detail += f" (unknown codec(s): {', '.join(unknown)})"
    if "pickle" in known and not trusted:
        detail += "; pickle is only negotiated with coordinator-spawned workers"
    raise ProtocolError(
        f"no mutually acceptable codec: {detail}; "
        f"this side accepts [{', '.join(preference)}]"
    )


# ----------------------------------------------------------------------
# body codecs
# ----------------------------------------------------------------------
def _encode_body(obj: Any, codec: str) -> bytes:
    if codec == "json":
        return json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if codec == "pickle":
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if codec == "msgpack":
        if _msgpack is None:
            raise ProtocolError("msgpack codec negotiated but not importable")
        return _msgpack.packb(obj, use_bin_type=True)
    raise ProtocolError(
        f"unknown codec {codec!r}; supported codecs: {', '.join(sorted(CODEC_IDS))}"
    )


def _decode_body(data: bytes, codec: str) -> Any:
    try:
        if codec == "json":
            return json.loads(data.decode("utf-8"))
        if codec == "pickle":
            return pickle.loads(data)
        if codec == "msgpack":
            if _msgpack is None:
                raise ProtocolError("msgpack codec negotiated but not importable")
            return _msgpack.unpackb(data, raw=False)
    except ProtocolError:
        raise
    except Exception as exc:  # noqa: BLE001 - torn/corrupt body
        raise ProtocolError(f"undecodable {codec} frame body: {exc}") from exc
    raise ProtocolError(
        f"unknown codec {codec!r}; supported codecs: {', '.join(sorted(CODEC_IDS))}"
    )


def _validate_batch(message: dict) -> None:
    """Empty batches are a protocol error, on both encode and decode."""
    mtype = message.get("type")
    if mtype == "task_batch" and not message.get("tasks"):
        raise ProtocolError("empty task_batch frame")
    if mtype == "result_batch" and not message.get("results"):
        raise ProtocolError("empty result_batch frame")


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def encode_frame(message: dict) -> bytes:
    """Serialise one message to a *v3* length-prefixed JSON frame.

    Still the dialect of v3 worker sessions and of the hierarchy's
    management links; the task data plane uses :func:`encode_frame_v4`.
    """
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise ValueError(f"frame of {len(body)} bytes exceeds MAX_FRAME")
    return _HEADER_V3.pack(len(body)) + body


def encode_frame_v4(
    message: dict, *, codec: str = "json", secured: bool = False
) -> bytes:
    """Serialise one message to a v4 binary frame.

    The ``type`` key travels in the header, not the body; ``secured``
    encrypts the whole encoded body under the shared channel key and
    sets :data:`FLAG_ENC`.
    """
    mtype = message.get("type")
    fid = FRAME_IDS.get(mtype)
    if fid is None:
        raise ProtocolError(f"unknown frame type {mtype!r}")
    _validate_batch(message)
    if codec not in CODEC_IDS:
        raise ProtocolError(
            f"unknown codec {codec!r}; supported codecs: {', '.join(sorted(CODEC_IDS))}"
        )
    body_obj = {k: v for k, v in message.items() if k != "type"}
    body = _encode_body(body_obj, codec)
    flags = CODEC_IDS[codec]
    if secured:
        body = encrypt(SECRET, body)
        flags |= FLAG_ENC
    if len(body) > MAX_FRAME:
        raise ValueError(f"frame of {len(body)} bytes exceeds MAX_FRAME")
    return _HEADER_V4.pack(MAGIC_V4, fid, flags, len(body)) + body


async def read_frame_ex(
    reader, *, allowed: Optional[Sequence[str]] = None
) -> Tuple[Optional[dict], int]:
    """Read one frame (either layout); returns ``(message, wire)``.

    ``wire`` is 3 or 4 — which frame layout the peer used — so callers
    can answer in kind.  ``(None, wire)`` means EOF/garbage ("the peer
    is gone").  ``allowed`` restricts the codecs this connection may
    use (after negotiation, a json session must not receive pickle
    frames); violations raise :class:`ProtocolError`, as do oversized
    lengths (checked *before* the body is read or allocated), unknown
    frame types/codec ids, undecodable bodies and empty batches.
    """
    import asyncio

    try:
        first = await reader.readexactly(1)
    except (asyncio.IncompleteReadError, ConnectionError, OSError):
        return None, 3
    if first[0] == MAGIC_V4:
        try:
            rest = await reader.readexactly(_HEADER_V4.size - 1)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            return None, 4
        fid, flags, length = struct.unpack(">BBI", rest)
        mtype = FRAME_TYPES.get(fid)
        if mtype is None:
            raise ProtocolError(f"unknown v4 frame type id {fid}")
        codec = CODEC_NAMES.get(flags & _CODEC_MASK)
        if codec is None:
            raise ProtocolError(f"unknown codec id {flags & _CODEC_MASK}")
        if allowed is not None and codec not in allowed:
            raise ProtocolError(
                f"codec {codec!r} not negotiated on this connection "
                f"(allowed: {', '.join(allowed)})"
            )
        if length > MAX_FRAME:
            # refuse before reading (or allocating) the body
            raise ProtocolError(
                f"v4 frame of {length} bytes exceeds MAX_FRAME ({MAX_FRAME})"
            )
        try:
            body = await reader.readexactly(length)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            return None, 4
        if flags & FLAG_ENC:
            try:
                body = decrypt(SECRET, body)
            except (CryptoError, ValueError) as exc:
                raise ProtocolError(f"undecryptable frame body: {exc}") from exc
        message = _decode_body(body, codec)
        if not isinstance(message, dict):
            raise ProtocolError(f"v4 {mtype} body is not a mapping")
        message["type"] = mtype
        _validate_batch(message)
        return message, 4
    # ---- v3: the first byte is the high byte of a 32-bit length ----
    try:
        rest = await reader.readexactly(_HEADER_V3.size - 1)
    except (asyncio.IncompleteReadError, ConnectionError, OSError):
        return None, 3
    (length,) = _HEADER_V3.unpack(first + rest)
    if length > MAX_FRAME:
        raise ProtocolError(
            f"v3 frame of {length} bytes exceeds MAX_FRAME ({MAX_FRAME})"
        )
    try:
        body = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError, OSError):
        return None, 3
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None, 3
    return (message, 3) if isinstance(message, dict) else (None, 3)


async def read_frame(
    reader, *, allowed: Optional[Sequence[str]] = None
) -> Optional[dict]:
    """Read one frame from an ``asyncio.StreamReader`` (either layout).

    Returns ``None`` on a clean or dirty EOF — the caller treats both as
    "the peer is gone"; distinguishing them is the supervisor's job (a
    dead connection with outstanding tasks means replay either way).
    Raises :class:`ProtocolError` on protocol violations; see
    :func:`read_frame_ex`.
    """
    message, _ = await read_frame_ex(reader, allowed=allowed)
    return message


def version_mismatch_error(peer_proto: Any, *, role: str) -> dict:
    """The ``error`` frame refusing a peer speaking the wrong protocol."""
    spoke = "no protocol version" if peer_proto is None else f"protocol version {peer_proto}"
    return {
        "type": "error",
        "error": (
            f"protocol version mismatch: this {role} speaks version "
            f"{PROTOCOL_VERSION}, but the peer announced {spoke}; "
            "upgrade both sides to the same repro release"
        ),
        "proto": PROTOCOL_VERSION,
    }


def encode_payload(payload: Any, *, secured: bool) -> Any:
    """v3 dialect: prepare one task payload (encrypt + base64 if secured).

    The v4 dialect encrypts the whole frame body instead
    (:data:`FLAG_ENC`); this per-payload path survives for v3 worker
    sessions and the tests that pin that wire.
    """
    if not secured:
        return payload
    clear = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return base64.b64encode(encrypt(SECRET, clear)).decode("ascii")


def decode_payload(payload: Any, *, secured: bool) -> Any:
    """Inverse of :func:`encode_payload` (runs worker-side)."""
    if not secured:
        return payload
    clear = decrypt(SECRET, base64.b64decode(payload.encode("ascii")))
    return json.loads(clear.decode("utf-8"))


# ----------------------------------------------------------------------
# secure-channel handshake (challenge/response under the shared key)
# ----------------------------------------------------------------------
#
# The coordinator sends a fresh random ``challenge`` in a ``secure``
# frame; the worker answers with ``prove_challenge(challenge)`` in a
# ``secured`` frame; the coordinator checks it with ``verify_proof``.
# Only a peer holding :data:`SECRET` can produce a valid proof, so a
# completed handshake demonstrates both ends share the key *before* any
# encrypted task payload travels — the mechanism the two-phase intent
# protocol's commit step waits on (see docs/MULTICONCERN.md).


def make_challenge() -> str:
    """A fresh random challenge (base64 text, safe inside JSON)."""
    return base64.b64encode(os.urandom(16)).decode("ascii")


def prove_challenge(challenge: str) -> str:
    """Worker-side: prove key possession by encrypting the challenge."""
    return base64.b64encode(encrypt(SECRET, challenge.encode("ascii"))).decode("ascii")


def verify_proof(challenge: str, proof: str) -> bool:
    """Coordinator-side: does ``proof`` decrypt back to ``challenge``?"""
    try:
        clear = decrypt(SECRET, base64.b64decode(proof.encode("ascii")))
    except (CryptoError, ValueError, UnicodeEncodeError):
        return False
    return clear == challenge.encode("ascii")
