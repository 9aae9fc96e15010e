"""One wire: one frame parser under every endpoint, one vocabulary.

* **one parser, proved** — a Hypothesis differential feeds the same
  bytes (arbitrary, header-shaped, and valid frames with one byte
  flipped or a truncation) to the async and the blocking reader: same
  message, same ``None``, or a :class:`ProtocolError` with the same
  text; never another exception; never a request for bytes past
  ``header + min(length, MAX_FRAME)``.  Plus the round trip for every
  registered frame type × available codec × secured.
* **a management link never unpickles** — a live :class:`ShardAgent`
  and a :class:`TcpShardLink` facing a scripted agent each refuse a
  pickle-flagged frame, an oversized length and an unknown type id by
  name, from the header, with the pickle's payload never run.
* **the registry is the vocabulary** — every frame type any endpoint
  puts on a socket across a management tick, a secure handshake, a
  reattach, a refusal and a retirement is registered, every registered
  type is one some endpoint sends, and ids 1–19 are where they were.
"""

import asyncio
import io
import socket
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.contracts import ThroughputRangeContract
from repro.obs.telemetry import Telemetry
from repro.runtime import dist_farm
from repro.runtime.dist_proto import (
    CODEC_IDS,
    FLAG_ENC,
    FRAME_IDS,
    FRAME_TYPES,
    MAGIC_V4,
    MAX_FRAME,
    PROTOCOL_VERSION,
    ProtocolError,
    available_codecs,
    encode_frame_v4,
    prove_challenge,
    read_frame,
    read_frame_blocking,
)
from repro.runtime.hierarchy import TcpShardLink
from repro.runtime.hierarchy import wire as hier_wire

from .test_dist_proto_v4 import attach_v4, patient_farm
from .test_sharded_farm import counter_value, make_sharded
from .waiting import wait_until

HEADER = 7

#: codecs whose decoder runs no peer-controlled code: the only ones an
#: untrusted connection ever allows, so the only ones fed fuzzed bodies
SAFE_CODECS = tuple(c for c in available_codecs() if c != "pickle")


# ----------------------------------------------------------------------
# in-memory sources that count what a reader *asks* for
# ----------------------------------------------------------------------
class AsyncSource:
    """The slice of ``asyncio.StreamReader`` that ``read_frame`` uses."""

    def __init__(self, data):
        self._file = io.BytesIO(data)
        self.asked = 0

    async def readexactly(self, n):
        self.asked += n
        chunk = self._file.read(n)
        if len(chunk) < n:
            raise asyncio.IncompleteReadError(chunk, n)
        return chunk


class BlockingSource(io.BytesIO):
    def __init__(self, data):
        super().__init__(data)
        self.asked = 0

    def read(self, n=-1):
        self.asked += n
        return super().read(n)


def finish(coro):
    """Run a coroutine that never has to wait (its source is in memory)."""
    try:
        coro.send(None)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("reader suspended on an in-memory source")


def outcome(read):
    """("frame", repr) | ("gone", None) | ("protocol-error", text);
    anything else a reader raises fails the test by propagating."""
    try:
        message = read()
    except ProtocolError as exc:
        return "protocol-error", str(exc)
    # repr, not ==: JSON's NaN decodes fine and is unequal to itself
    return ("gone", None) if message is None else ("frame", repr(message))


def both_readers(data, allowed):
    source_a, source_b = AsyncSource(data), BlockingSource(data)
    got_a = outcome(lambda: finish(read_frame(source_a, allowed=allowed)))
    got_b = outcome(lambda: read_frame_blocking(source_b, allowed=allowed))
    assert got_a == got_b
    for source in (source_a, source_b):
        if len(data) < HEADER:
            assert source.asked == HEADER
            continue
        length = int.from_bytes(data[3:HEADER], "big")
        assert source.asked <= HEADER + min(length, MAX_FRAME)
        if length > MAX_FRAME or got_a[0] == "protocol-error" and "MAX_FRAME" in got_a[1]:
            assert source.asked == HEADER  # refused from the header alone
    return got_a


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
leaves = (
    st.none()
    | st.booleans()
    | st.integers(-(2**63), 2**63 - 1)  # what msgpack can carry
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
)
values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def messages(draw, mtype=None):
    mtype = mtype or draw(st.sampled_from(sorted(FRAME_IDS)))
    body = draw(st.dictionaries(st.text(max_size=6), values, max_size=4))
    body.pop("type", None)
    if mtype == "task_batch":  # an empty batch is itself a violation
        body["tasks"] = draw(st.lists(values, min_size=1, max_size=3))
    if mtype == "result_batch":
        body["results"] = draw(st.lists(values, min_size=1, max_size=3))
    return {"type": mtype, **body}


header_shaped = st.builds(
    lambda magic, fid, flags, length, body: bytes([magic, fid, flags])
    + length.to_bytes(4, "big")
    + body,
    st.sampled_from([MAGIC_V4, MAGIC_V4, MAGIC_V4, 0x00, 0x7B]),
    st.integers(0, 255),
    st.integers(0, 255),
    st.integers(0, 64) | st.integers(0, 2**32 - 1),
    st.binary(max_size=64),
)
allowed_sets = st.sampled_from([("json",), SAFE_CODECS])


class TestOneParser:
    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=48) | header_shaped, allowed=allowed_sets)
    @example(data=b"", allowed=("json",))
    @example(data=bytes([MAGIC_V4, 4, 0]), allowed=("json",))  # torn header
    @example(  # oversized: refused before any body read
        data=bytes([MAGIC_V4, 4, 0]) + (MAX_FRAME + 1).to_bytes(4, "big") + b"x",
        allowed=("json",),
    )
    @example(  # the deleted dialect: a 4-byte length, then JSON
        data=b"\x00\x00\x00\x0d" + b'{"type":"hb"}', allowed=("json",)
    )
    def test_arbitrary_bytes_read_the_same_on_both_readers(self, data, allowed):
        both_readers(data, allowed)

    @settings(max_examples=300, deadline=None)
    @given(
        message=messages(),
        codec=st.sampled_from(SAFE_CODECS),
        secured=st.booleans(),
        allowed=allowed_sets,
        where=st.floats(0.0, 1.0, exclude_max=True),
        flip=st.integers(1, 255) | st.none(),
    )
    def test_damaged_frames_read_the_same_on_both_readers(
        self, message, codec, secured, allowed, where, flip
    ):
        frame = bytearray(encode_frame_v4(message, codec=codec, secured=secured))
        index = int(where * len(frame))
        if flip is None:
            del frame[index:]  # truncation
        else:
            frame[index] ^= flip  # one damaged byte, header or body
        both_readers(bytes(frame), allowed)

    @pytest.mark.parametrize("codec", available_codecs())
    @pytest.mark.parametrize("mtype", sorted(FRAME_IDS))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data(), secured=st.booleans())
    def test_every_type_and_codec_round_trips(self, mtype, codec, data, secured):
        message = data.draw(messages(mtype))
        frame = encode_frame_v4(message, codec=codec, secured=secured)
        assert frame[0] == MAGIC_V4 and frame[1] == FRAME_IDS[mtype]
        assert frame[2] == CODEC_IDS[codec] | (FLAG_ENC if secured else 0)
        assert finish(read_frame(AsyncSource(frame), allowed=(codec,))) == message
        assert read_frame_blocking(BlockingSource(frame), allowed=(codec,)) == message


# ----------------------------------------------------------------------
# a management link never unpickles
# ----------------------------------------------------------------------
TRIPPED = []


def _trip():
    TRIPPED.append("unpickled")


class Bomb:
    """Unpickling this calls :func:`_trip`."""

    def __reduce__(self):
        return _trip, ()


def hostile_frames():
    """(id, bytes, the diagnosis the reader must give) — each refusable
    from its header alone, so only a header is sent for the last two."""
    return [
        pytest.param(
            encode_frame_v4({"type": "report", "report": Bomb()}, codec="pickle"),
            "codec 'pickle' not negotiated",
            id="pickle-flagged",
        ),
        pytest.param(
            bytes([MAGIC_V4, FRAME_IDS["report"], 0]) + (MAX_FRAME + 1).to_bytes(4, "big"),
            "exceeds MAX_FRAME",
            id="oversized-length",
        ),
        pytest.param(
            bytes([MAGIC_V4, 0xEE, 0, 0, 0, 0, 0]),
            "unknown v4 frame type id 238",
            id="unknown-type-id",
        ),
    ]


def wire_farm():
    return make_sharded(
        "thread",
        contract=ThroughputRangeContract(2.0, 1000.0),
        over_wire=True,
        autostart=False,
    )


class ScriptedAgent:
    """A one-connection agent: welcome the parent, answer its first
    request with ``reply`` bytes, then hang up."""

    def __init__(self, reply):
        self._server = socket.create_server(("127.0.0.1", 0))
        self.port = self._server.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, args=(reply,), daemon=True)
        self._thread.start()

    def _serve(self, reply):
        conn, _ = self._server.accept()
        with conn, conn.makefile("rb") as rfile:
            assert read_frame_blocking(rfile)["type"] == "hello"
            conn.sendall(
                encode_frame_v4(
                    {"type": "welcome", "proto": PROTOCOL_VERSION, "shard_id": 0}
                )
            )
            read_frame_blocking(rfile)  # the request
            conn.sendall(reply)
            rfile.read()  # until the link hangs up

    def close(self):
        self._server.close()
        self._thread.join(5.0)
        assert not self._thread.is_alive()


class TestManagementLinksNeverUnpickle:
    def setup_method(self):
        TRIPPED.clear()

    def test_the_bomb_is_live(self):
        """Control: the same frame does run its payload on a reader
        that allows pickle — the refusals below are not vacuous."""
        frame, _ = hostile_frames()[0].values
        read_frame_blocking(io.BytesIO(frame), allowed=("pickle",))
        assert TRIPPED == ["unpickled"]

    @pytest.mark.parametrize("handshake_first", [True, False], ids=["mid-stream", "as-greeting"])
    @pytest.mark.parametrize("frame, diagnosis", hostile_frames())
    def test_shard_agent_refuses_by_name_and_hangs_up(
        self, frame, diagnosis, handshake_first
    ):
        farm = wire_farm()
        try:
            agent = farm.agents[0]
            with socket.create_connection((agent.host, agent.port), timeout=5.0) as sock:
                rfile = sock.makefile("rb")
                if handshake_first:
                    sock.sendall(
                        encode_frame_v4({"type": "hello", "proto": PROTOCOL_VERSION})
                    )
                    assert read_frame_blocking(rfile)["type"] == "welcome"
                sock.sendall(frame)
                reply = read_frame_blocking(rfile, allowed=("json",))
                assert reply["type"] == "error" and diagnosis in reply["error"]
                assert rfile.read() == b""  # hung up on
            assert TRIPPED == []
        finally:
            farm.shutdown()

    @pytest.mark.parametrize("frame, diagnosis", hostile_frames())
    def test_parent_link_refuses_by_name_and_hangs_up(self, frame, diagnosis):
        agent = ScriptedAgent(frame)
        try:
            link = TcpShardLink("127.0.0.1", agent.port, shard_id=0, timeout=5.0)
            with pytest.raises(ProtocolError, match=diagnosis):
                link.poll()
            assert TRIPPED == []
        finally:
            agent.close()  # joins: the link's hang-up ended the script


# ----------------------------------------------------------------------
# the registry is the vocabulary
# ----------------------------------------------------------------------
class TestRegistryIsTheVocabulary:
    def test_ids_are_append_only(self):
        assert {fid: FRAME_TYPES[fid] for fid in range(1, 20)} == {
            1: "hello", 2: "welcome", 3: "error", 4: "task", 5: "result",
            6: "secure", 7: "secured", 8: "refused", 9: "poison", 10: "bye",
            11: "hb", 12: "reattach", 13: "takeover", 14: "task_batch",
            15: "result_batch", 16: "contract", 17: "poll", 18: "report",
            19: "violation",
        }
        assert {fid: FRAME_TYPES[fid] for fid in (20, 21, 22)} == {
            20: "budget", 21: "budget-ack", 22: "contract-ack",
        }
        assert len(FRAME_IDS) == len(FRAME_TYPES) == 22

    def test_every_frame_an_endpoint_sends_is_registered(self, monkeypatch):
        """Drive each endpoint pair for real and record the type of
        every frame put on a socket: in-process senders at the encoder,
        subprocess workers at the coordinator's reader, the scripted
        peer at its own reads and writes."""
        seen = set()

        def recording(fn):
            def encode(message, **kwargs):
                seen.add(message.get("type"))
                return fn(message, **kwargs)

            return encode

        async def farm_reads(reader, *, allowed=None):
            frame = await read_frame(reader, allowed=allowed)
            if frame is not None:
                seen.add(frame["type"])
            return frame

        monkeypatch.setattr(hier_wire, "encode_frame_v4", recording(encode_frame_v4))
        monkeypatch.setattr(dist_farm, "encode_frame_v4", recording(encode_frame_v4))
        monkeypatch.setattr(dist_farm, "read_frame", farm_reads)

        # -- the management plane: contract, budget, a tick with a violation
        tel = Telemetry()
        sharded = make_sharded(
            "thread",
            contract=ThroughputRangeContract(2.0, 1000.0),
            over_wire=True,
            autostart=False,
            telemetry=tel,
        )
        try:
            shard = sharded.shards[0]
            sharded.links[0].assign_contract(sharded.sub_contracts[0])
            sharded.links[0].set_budget(shard.budget)
            shard.controller.violations.append((0.0, "noLocalPlan"))
            sharded.parent_step()
            assert [kind for _, _, kind in sharded.violations] == ["noLocalPlan"]
        finally:
            sharded.shutdown()
        # the agents' frame counter keeps its labels
        for label in ("hello", "contract", "budget", "poll"):
            assert counter_value(
                tel, "repro_hier_wire_frames_total", shard=shard.name, type=label
            ) >= 1

        # -- the task plane, real workers: a lone task, a burst, a retirement
        farm = patient_farm(initial_workers=2, max_inflight=8, batch_size=8)
        try:
            farm.submit((0.0, 1))
            assert farm.drain_results(1, timeout=30.0) == [1]
            with farm._lock:  # one fill pass sees the whole burst: batches
                for i in range(24):
                    farm.submit((0.0, i))
            assert len(farm.drain_results(24, timeout=30.0)) == 24
            retiree = farm.remove_worker()
            wait_until(
                lambda: retiree.got_bye and "hb" in seen,
                message="the retiree's bye and a heartbeat",
            )
        finally:
            farm.shutdown()

        # -- the task plane, a scripted peer: version refusal, reattach,
        # secure handshake, a bounced task, poison at shutdown
        farm = patient_farm()
        try:

            async def peer():
                async def recv_until(reader, kind):
                    while True:
                        frame = await asyncio.wait_for(read_frame(reader), 15.0)
                        seen.add(frame["type"])
                        if frame["type"] == kind:
                            return frame

                _, writer, reply = await attach_v4(
                    farm.port, {"type": "hello", "worker_id": -1, "proto": 999}
                )
                seen.add(reply["type"])  # error
                writer.close()

                farm.adopt_worker(5)
                reader, writer, reply = await attach_v4(
                    farm.port,
                    {"type": "reattach", "worker_id": 5, "proto": PROTOCOL_VERSION,
                     "codecs": ["json"], "completed": 0},
                )
                seen.update(("reattach", reply["type"]))  # takeover
                loop = asyncio.get_running_loop()
                securing = loop.run_in_executor(None, farm.secure_worker, 5)
                challenge = await recv_until(reader, "secure")
                writer.write(
                    encode_frame_v4(
                        {"type": "secured",
                         "proof": prove_challenge(challenge["challenge"])}
                    )
                )
                assert await securing
                farm.submit((0.0, 7))
                task = await recv_until(reader, "task")  # encrypted whole-frame
                writer.write(
                    encode_frame_v4(
                        {"type": "refused", "task_id": task["task_id"],
                         "reason": "just testing"}
                    )
                )
                closing = loop.run_in_executor(None, farm.shutdown)
                await recv_until(reader, "poison")
                writer.close()
                await closing

            asyncio.run(peer())
        finally:
            farm.shutdown()

        assert seen == set(FRAME_TYPES.values())
