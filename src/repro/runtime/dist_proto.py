"""The wire protocol, version 4: one binary frame layout for every link.

Every byte this repo puts on a socket — the DistFarm task plane and the
shard hierarchy's management links alike — is a frame of the layout
below, and this module is the only one that knows it: one header
``Struct``, one parser (:func:`_parse_header` / :func:`_parse_body`,
no I/O) under two thin readers, :func:`read_frame` for asyncio streams
and :func:`read_frame_blocking` for ``socket.makefile('rb')`` files.

Frame layout
------------

::

    0      1      2      3..6        7..
    +------+------+------+-----------+---------------------+
    | 0xD4 | type | flags| length u32| body (codec-encoded)|
    +------+------+------+-----------+---------------------+

    type   an id from :data:`FRAME_TYPES` (``hello``, ``task_batch``, ...)
    flags  low nibble: body codec id (:data:`CODEC_IDS`);
           bit 0x10 (:data:`FLAG_ENC`): body encrypted under the shared
           channel key *before* framing (secured channels)
    length body byte count, refused above :data:`MAX_FRAME` from the
           header alone — **before** any body is read or allocated

A frame is encoded in one pass into one buffer; ``docs/RUNTIME.md``
(wire section) says how.

A clean or torn EOF reads as ``None`` ("the peer is gone"); *protocol
violations* — a first byte that is not ``0xD4``, unknown frame types or
codec ids, a codec the connection did not negotiate, oversized lengths,
undecodable bodies, empty batches — raise :class:`ProtocolError` with a
named diagnosis, and every endpoint treats that as a peer fault (hang
up, replay its work), never a hang.  A peer that does not open with
``0xD4`` could not read an ``error`` frame either, so it is simply hung
up on.

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
json        0  UTF-8 JSON                everyone (the fallback)
pickle      1  pickle HIGHEST_PROTOCOL   trusted workers only — ones this
                                         coordinator spawned or adopted
                                         (unpickling runs code; a remote
                                         attacher never gets it)
msgpack     2  msgpack (if importable)   everyone; gated on the optional
                                         dependency being present
=========  ==  ========================  =================================

A peer offering only unknown codec names is refused with an ``error``
frame naming them; the readers additionally enforce a per-connection
``allowed`` codec set, so a peer that negotiated json cannot smuggle a
pickle-flagged frame past the boundary.

Frame vocabulary
----------------

``W`` worker, ``C`` coordinator, ``P`` parent manager, ``A`` shard agent
(:mod:`repro.runtime.hierarchy.wire`); the registry is
:data:`FRAME_TYPES`, and ids are append-only.

==  ================  ====  ============================================
id  type              from  body
==  ================  ====  ============================================
 1  ``hello``         W, P  first frame: ``proto`` (the sender's
                            :data:`PROTOCOL_VERSION`; any other is
                            refused by :func:`refuse_hello` with an
                            ``error`` naming both); a worker adds
                            ``worker_id`` (−1 = "assign me one") and
                            its ``codecs`` offer
 2  ``welcome``       C, A  hello ack: ``proto``; ``worker_id``,
                            ``epoch``, negotiated ``codec`` (C) or
                            ``shard_id`` (A)
 3  ``error``         C, A  human-readable ``error`` text: terminal
                            from C (version mismatch, unknown codecs)
                            and from A for a protocol violation; A also
                            answers a request the shard could not serve
 4  ``task``          C     ``task_id``, ``payload`` — a window of one
 5  ``result``        W     ``task_id``; ``value`` or ``error`` text;
                            cumulative ``completed``; ``t`` if traced
 6  ``secure``        C     secure-channel ``challenge``
 7  ``secured``       W     its answer (``proof``)
 8  ``refused``       W     task(s) bounced before execution (``reason``:
                            the ``--require-secure`` gate, or "stale
                            epoch"): ``task_id`` or, for a batch,
                            ``task_ids``
 9  ``poison``        C     finish received tasks, send ``bye``, exit
10  ``bye``           W, P  graceful exit after ``poison`` (W, with
                            ``completed``); closing a shard link (P)
11  ``hb``            W     heartbeat, with cumulative ``completed``
12  ``reattach``      W     ``hello`` after losing the coordinator:
                            asserts the id already assigned and carries
                            cumulative ``completed``
13  ``takeover``      C     ``reattach`` ack from a promoted standby;
                            shaped like ``welcome``
14  ``task_batch``    C     ``tasks``: a non-empty list of (``task_id``,
                            ``payload``) — one frame, a whole window
15  ``result_batch``  W     ``results``: a non-empty list of ``result``
                            bodies, and one ``completed`` for them all
16  ``contract``      P     ``contract`` (:mod:`..hierarchy.codec`) → 22
17  ``poll``          P     → zero or more 19, then one 18
18  ``report``        A     ``report``: the shard's snapshot
19  ``violation``     A     ``shard_id``, ``time``, ``kind`` — one per
                            violation since the previous poll
20  ``budget``        P     ``budget`` → 21
21  ``budget-ack``    A     ``removed``, ``budget``
22  ``contract-ack``  A     ``contract`` as the shard now describes it
==  ================  ====  ============================================

*Tracing.*  When the coordinator traces, a ``task``/``task_batch`` frame
carries one ``traced: true`` — not a context per entry — and the worker
stamps each result entry ``t = [start, end, pid]`` (epoch seconds); the
coordinator holds every entry's dispatch span and builds the
``task.exec`` span under it.  A peer that ignores the flag just ships
no timing.

*Epoch fencing* applies to batches exactly as to single tasks: a worker
whose highest seen ``epoch`` exceeds a session's refuses that session's
``task`` *and* ``task_batch`` frames.

*Management links* always send codec json and read with
``allowed=("json",)``: a management link never unpickles, whoever is on
the other end.

*Secured channels* encrypt the whole frame body (:data:`FLAG_ENC`) with
the same toy cipher as the thread farm (:mod:`repro.security.crypto`),
so ``secure_all()`` has the same observable cost on every substrate.
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
    "encode_frame_v4",
    "read_frame",
    "read_frame_blocking",
    "refuse_hello",
    "make_challenge",
    "prove_challenge",
    "verify_proof",
]

#: wire protocol generation.  Version 2 added the handshake version
#: field plus the hierarchy frames; version 3 added coordinator failover
#: (``reattach``/``takeover``, sticky epochs).  Version 4 replaced the
#: per-task JSON wire with the binary frame header above, negotiated
#: payload codecs and ``task_batch``/``result_batch`` frames.  It is the
#: only version spoken: both ends of every link ship together, and a
#: peer announcing anything else is refused up front with an ``error``
#: frame (:func:`refuse_hello`).
PROTOCOL_VERSION = 4

#: shared toy-cipher key (same key the other substrates use)
SECRET = b"repro-channel-key"

#: refuse frames above this size — a corrupt length prefix must not
#: make either side try to allocate gigabytes
MAX_FRAME = 64 * 1024 * 1024

#: first byte of every frame; a connection that opens with anything
#: else is not speaking this protocol
MAGIC_V4 = 0xD4

#: flags bit: the body was encrypted under :data:`SECRET` before framing
FLAG_ENC = 0x10

_CODEC_MASK = 0x0F

_HEADER = struct.Struct(">BBBI")  # magic, type, flags, body length

#: frame-type registry (id ↔ name).  Ids are wire format: never
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
    20: "budget",
    21: "budget-ack",
    22: "contract-ack",
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
class _Chunks(list):
    """A frame under construction: a list of bytes-like chunks that
    pickle can write into.  Pickle hands each payload of 64 KiB or more
    to ``write`` as the object itself (a ``bytes``, a ``bytearray`` or a
    ``PickleBuffer``, which has no ``len``), so appending it copies
    nothing."""

    write = list.append


def _encode_body(obj: Any, codec: str, chunks: _Chunks) -> None:
    """Append ``obj`` encoded under ``codec`` to ``chunks``."""
    if codec == "json":
        chunks.append(json.dumps(obj, separators=(",", ":")).encode("utf-8"))
    elif codec == "pickle":
        pickle.Pickler(chunks, pickle.HIGHEST_PROTOCOL).dump(obj)
    elif codec == "msgpack":
        if _msgpack is None:
            raise ProtocolError("msgpack codec negotiated but not importable")
        chunks.append(_msgpack.packb(obj, use_bin_type=True))
    else:
        raise ProtocolError(
            f"unknown codec {codec!r}; supported codecs: {', '.join(sorted(CODEC_IDS))}"
        )


def _decode_body(data: bytes, codec: str) -> Any:
    """``codec`` is a :data:`CODEC_IDS` name: the header parser saw to it."""
    try:
        if codec == "json":
            return json.loads(data.decode("utf-8"))
        if codec == "pickle":
            return pickle.loads(data)
        if _msgpack is None:
            raise ProtocolError("msgpack codec negotiated but not importable")
        return _msgpack.unpackb(data, raw=False)
    except ProtocolError:
        raise
    except Exception as exc:  # noqa: BLE001 - torn/corrupt body
        raise ProtocolError(f"undecodable {codec} frame body: {exc}") from exc


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
def encode_frame_v4(
    message: dict, *, codec: str = "json", secured: bool = False
) -> bytes:
    """Serialise one message to a frame, in one pass into one buffer.

    The ``type`` key travels in the header, not the body; ``secured``
    encrypts the whole encoded body under the shared channel key and
    sets :data:`FLAG_ENC`.
    """
    mtype = message.get("type")
    fid = FRAME_IDS.get(mtype)
    if fid is None:
        raise ProtocolError(f"unknown frame type {mtype!r}")
    _validate_batch(message)
    body_obj = message.copy()
    del body_obj["type"]
    chunks = _Chunks((b"",))  # slot 0: the header
    _encode_body(body_obj, codec, chunks)  # names an unknown codec
    flags = CODEC_IDS[codec]
    if secured:
        chunks[1:] = (encrypt(SECRET, b"".join(chunks[1:])),)
        flags |= FLAG_ENC
    length = sum([memoryview(chunk).nbytes for chunk in chunks])
    if length > MAX_FRAME:
        raise ValueError(f"frame of {length} bytes exceeds MAX_FRAME")
    chunks[0] = _HEADER.pack(MAGIC_V4, fid, flags, length)
    return b"".join(chunks)


def _parse_header(
    header: bytes, allowed: Optional[Sequence[str]]
) -> Tuple[str, str, int, int]:
    """Header bytes → ``(type, codec, flags, length)``; no I/O.

    Everything a reader may refuse without the body is refused here, so
    neither reader touches (or allocates for) the body of a frame that
    is not this protocol's, names an unknown type or codec, uses a codec
    outside the connection's ``allowed`` set, or announces more than
    :data:`MAX_FRAME` bytes.
    """
    magic, fid, flags, length = _HEADER.unpack(header)
    if magic != MAGIC_V4:
        raise ProtocolError(
            f"not a v4 frame: first byte is 0x{magic:02x}, expected 0x{MAGIC_V4:02x}"
        )
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
        raise ProtocolError(
            f"v4 frame of {length} bytes exceeds MAX_FRAME ({MAX_FRAME})"
        )
    return mtype, codec, flags, length


def _parse_body(mtype: str, codec: str, flags: int, body: bytes) -> dict:
    """Body bytes → message: decrypt, decode, shape-check; no I/O."""
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
    return message


async def read_frame(
    reader, *, allowed: Optional[Sequence[str]] = None
) -> Optional[dict]:
    """Read one frame from an ``asyncio.StreamReader``.

    Returns ``None`` on a clean or dirty EOF — the caller treats both as
    "the peer is gone"; distinguishing them is the supervisor's job (a
    dead connection with outstanding tasks means replay either way).
    ``allowed`` restricts the codecs this connection may use (after
    negotiation, a json session must not receive pickle frames).  Every
    violation raises :class:`ProtocolError` — those a header shows,
    *before* the body is read or allocated.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
        mtype, codec, flags, length = _parse_header(header, allowed)
        body = await reader.readexactly(length)
    except (EOFError, ConnectionError, OSError):
        # EOFError: asyncio's IncompleteReadError is one, and naming the
        # base keeps asyncio out of a worker's imports
        return None
    return _parse_body(mtype, codec, flags, body)


def read_frame_blocking(
    rfile, *, allowed: Optional[Sequence[str]] = None
) -> Optional[dict]:
    """:func:`read_frame` for a blocking file (``socket.makefile('rb')``).

    Same parser, same outcomes: ``None`` when the peer is gone, a
    :class:`ProtocolError` with the same text for the same bytes.
    """
    try:
        header = rfile.read(_HEADER.size)
        if len(header) < _HEADER.size:
            return None
        mtype, codec, flags, length = _parse_header(header, allowed)
        body = rfile.read(length)
        if len(body) < length:
            return None
    except (ConnectionError, OSError, ValueError):
        return None
    return _parse_body(mtype, codec, flags, body)


def refuse_hello(
    hello: Optional[dict], *, role: str, kinds: Sequence[str] = ("hello",)
) -> Optional[bytes]:
    """The gate every server applies to a connection's first frame.

    ``None`` admits the peer.  Anything else is what to send before
    hanging up: the encoded version-mismatch ``error`` frame for a
    greeting that announces another ``proto`` (or none), so the peer
    learns why instead of failing on the first frame it does not
    understand; nothing (``b""``) for a peer that is already gone or
    opened with a frame that is not a greeting.
    """
    if hello is None or hello.get("type") not in kinds:
        return b""
    peer_proto = hello.get("proto")
    if peer_proto == PROTOCOL_VERSION:
        return None
    spoke = "no protocol version" if peer_proto is None else f"protocol version {peer_proto}"
    error = (
        f"protocol version mismatch: this {role} speaks version "
        f"{PROTOCOL_VERSION}, but the peer announced {spoke}; "
        "upgrade both sides to the same repro release"
    )
    return encode_frame_v4({"type": "error", "error": error, "proto": PROTOCOL_VERSION})


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
