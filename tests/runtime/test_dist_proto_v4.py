"""Protocol v4: binary framing, codec negotiation, batches, fault edges.

Three layers of coverage:

* pure framing/codec units (no sockets): layout round-trips, the
  :class:`ProtocolError` diagnoses — a foreign first byte, unknown
  codec names and frame types, oversized lengths refused before
  allocation, empty batches;
* coordinator integration over real sockets with *scripted* peers: a
  malformed frame mid-stream is a worker fault (declared dead, window
  replayed — never a hang), duplicate entries inside a replayed
  ``result_batch`` dedupe to exactly-once, unknown codec offers are
  refused with the offending name in the error frame;
* real-worker integration: the pickle fast path round-trips values JSON
  cannot, and a stale-epoch session's ``task_batch`` bounces whole
  (``refused``/``task_ids``).
"""

import asyncio
import os
import subprocess
import sys

import pytest

from repro.obs.telemetry import Telemetry
from repro.runtime.dist_farm import DistFarm, fn_spec
from repro.runtime.dist_proto import (
    FLAG_ENC,
    MAGIC_V4,
    MAX_FRAME,
    PROTOCOL_VERSION,
    ProtocolError,
    available_codecs,
    encode_frame_v4,
    negotiate_codec,
    read_frame,
)

from .test_dist_farm import dist_task
from .waiting import wait_until


def feed(data, *, allowed=None):
    """Run one read_frame over raw bytes; returns the frame."""

    async def go():
        reader = asyncio.StreamReader()
        if data:
            reader.feed_data(data)
        reader.feed_eof()
        return await read_frame(reader, allowed=allowed)

    return asyncio.run(go())


def patient_farm(**overrides):
    """A DistFarm with timeouts generous enough for scripted peers."""
    defaults = dict(
        initial_workers=0,
        heartbeat_timeout=30.0,
        supervise_period=0.02,
        backoff_base=0.02,
        backoff_cap=0.2,
    )
    defaults.update(overrides)
    return DistFarm(dist_task, **defaults)


class TestFraming:
    @pytest.mark.parametrize("codec", available_codecs())
    def test_v4_roundtrip_every_codec(self, codec):
        msg = {"type": "task", "task_id": 7, "payload": [0.5, [1, 2]]}
        assert feed(encode_frame_v4(msg, codec=codec)) == msg

    def test_foreign_first_byte_is_a_named_protocol_error(self):
        # what the deleted v3 dialect looked like: a 4-byte length, JSON
        body = b'{"type":"hb","completed":3}'
        with pytest.raises(ProtocolError, match="first byte is 0x00"):
            feed(len(body).to_bytes(4, "big") + body)

    def test_secured_frame_is_opaque_and_roundtrips(self):
        msg = {"type": "task", "task_id": 1, "payload": {"k": "secret-value"}}
        data = encode_frame_v4(msg, codec="json", secured=True)
        assert b"secret-value" not in data  # body actually encrypted
        assert data[2] & FLAG_ENC
        assert feed(data) == msg
        # a tampered body is a protocol error, not garbage results
        with pytest.raises(ProtocolError):
            feed(data[:-3] + bytes(3))

    def test_unknown_frame_type_is_a_named_protocol_error(self):
        data = bytes([MAGIC_V4, 0xEE, 0, 0, 0, 0, 0])
        with pytest.raises(ProtocolError, match="frame type id 238"):
            feed(data)
        with pytest.raises(ProtocolError, match="no_such_type"):
            encode_frame_v4({"type": "no_such_type"})

    def test_unknown_codec_id_is_a_named_protocol_error(self):
        data = bytes([MAGIC_V4, 4, 0x0F, 0, 0, 0, 0])
        with pytest.raises(ProtocolError, match="codec id 15"):
            feed(data)
        with pytest.raises(ProtocolError, match="rot13"):
            encode_frame_v4({"type": "hb"}, codec="rot13")

    def test_unnegotiated_codec_refused_at_the_read_boundary(self):
        # codec smuggling: a pickle-flagged frame on a json session must
        # die at the frame reader, before any unpickling can happen
        data = encode_frame_v4({"type": "result", "task_id": 1}, codec="pickle")
        with pytest.raises(ProtocolError, match="not negotiated"):
            feed(data, allowed=("json",))

    def test_oversized_v4_length_rejected_before_allocation(self):
        # header only, no body: the reader must refuse from the length
        # field alone instead of waiting to buffer 64 MiB
        header = bytes([MAGIC_V4, 4, 0]) + (MAX_FRAME + 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError, match="exceeds MAX_FRAME"):
            feed(header)
        with pytest.raises(ValueError):  # nor does the encoder emit one
            encode_frame_v4({"type": "hb", "pad": "x" * (MAX_FRAME + 10)})

    def test_torn_frame_reads_as_peer_gone(self):
        whole = encode_frame_v4({"type": "task", "task_id": 5, "payload": "x" * 64})
        assert feed(whole[: len(whole) // 2]) is None  # EOF mid-body, not a hang
        assert feed(whole[:3]) is None  # EOF mid-header
        assert feed(b"") is None

    def test_empty_batch_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="empty task_batch"):
            encode_frame_v4({"type": "task_batch", "tasks": []})
        with pytest.raises(ProtocolError, match="empty result_batch"):
            encode_frame_v4({"type": "result_batch", "results": []})
        # and on decode, for a peer that crafts one by hand
        import json as _json

        body = _json.dumps({"tasks": []}).encode()
        data = bytes([MAGIC_V4, 14, 0]) + len(body).to_bytes(4, "big") + body
        with pytest.raises(ProtocolError, match="empty task_batch"):
            feed(data)


class TestNegotiation:
    def test_trusted_workers_get_the_pickle_fast_path(self):
        assert negotiate_codec(["pickle", "json"], trusted=True) == "pickle"
        assert negotiate_codec(["json"], trusted=True) == "json"

    def test_untrusted_peers_never_negotiate_pickle(self):
        assert negotiate_codec(["pickle", "json"], trusted=False) == "json"
        with pytest.raises(ProtocolError, match="coordinator-spawned"):
            negotiate_codec(["pickle"], trusted=False)

    def test_unknown_codec_names_are_diagnosed_by_name(self):
        with pytest.raises(ProtocolError, match="rot13"):
            negotiate_codec(["rot13"], trusted=True)
        with pytest.raises(ProtocolError, match="nothing"):
            negotiate_codec([], trusted=True)

    def test_allowed_pins_the_session_codec(self):
        assert negotiate_codec(["pickle", "json"], trusted=True, allowed="json") == "json"
        with pytest.raises(ProtocolError):
            negotiate_codec(["json"], trusted=True, allowed="pickle")


async def attach_v4(port, hello):
    """Open one scripted v4 peer connection; returns (reader, writer, reply)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(encode_frame_v4(hello))
    reply = await read_frame(reader)
    return reader, writer, reply


class TestCoordinatorEdges:
    def test_unknown_codec_offer_refused_with_named_diagnosis(self):
        farm = patient_farm()
        try:

            async def go():
                _, writer, reply = await attach_v4(
                    farm.port,
                    {"type": "hello", "worker_id": -1, "proto": PROTOCOL_VERSION,
                     "codecs": ["rot13"]},
                )
                writer.close()
                return reply

            reply = asyncio.run(go())
            assert reply["type"] == "error"
            assert "rot13" in reply["error"]
            assert farm.num_workers == 0  # nothing half-registered
        finally:
            farm.shutdown()

    def test_remote_attacher_negotiates_down_the_safe_list(self):
        farm = patient_farm()
        try:

            async def go():
                _, writer, reply = await attach_v4(
                    farm.port,
                    {"type": "hello", "worker_id": -1, "proto": PROTOCOL_VERSION,
                     "codecs": list(available_codecs())},
                )
                writer.close()
                return reply

            reply = asyncio.run(go())
            assert reply["type"] == "welcome"
            assert reply["proto"] == PROTOCOL_VERSION
            assert reply["codec"] != "pickle"  # unpickling runs code
        finally:
            farm.shutdown()

    @pytest.mark.parametrize(
        "garbage",
        [
            pytest.param(bytes([MAGIC_V4, 0xEE, 0, 0, 0, 0, 0]), id="unknown-type"),
            pytest.param(
                encode_frame_v4({"type": "result", "task_id": 0}, codec="pickle"),
                id="codec-smuggle",
            ),
            pytest.param(
                bytes([MAGIC_V4, 15, 0])
                + len(b'{"results":[]}').to_bytes(4, "big")
                + b'{"results":[]}',
                id="empty-result-batch",
            ),
            # frames that parse but have the wrong shape: the fault
            # surfaces in the coordinator's handler, not its reader
            pytest.param(
                encode_frame_v4({"type": "result", "value": 1, "completed": 1}),
                id="result-without-task-id",
            ),
            pytest.param(
                encode_frame_v4({"type": "result_batch", "results": "xx"}),
                id="result-batch-of-characters",
            ),
            pytest.param(
                encode_frame_v4({"type": "hb", "completed": "x"}),
                id="hb-completed-not-a-number",
            ),
            pytest.param(
                encode_frame_v4({"type": "hb", "completed": float("inf")}),
                id="hb-completed-infinite",
            ),
        ],
    )
    def test_malformed_frame_mid_stream_is_a_worker_fault(self, garbage):
        """A peer that sends protocol garbage after taking tasks is
        declared dead and its window replayed elsewhere — never waited
        out (the heartbeat timeout here is 30 s).  The task still
        completes, on a healthy worker."""
        tel = Telemetry()
        farm = patient_farm(max_inflight=8, batch_size=8, telemetry=tel)
        try:

            async def go():
                reader, writer, reply = await attach_v4(
                    farm.port,
                    {"type": "hello", "worker_id": -1, "proto": PROTOCOL_VERSION,
                     "codecs": ["json"]},
                )
                assert reply["type"] == "welcome"
                farm.submit((0.0, 4))
                # wait for the dispatch, then answer with garbage
                frame = await read_frame(reader)
                assert frame["type"] in ("task", "task_batch")
                sent_at = farm.now()
                writer.write(garbage)
                await writer.drain()
                # the coordinator hangs up on protocol garbage
                await asyncio.wait_for(reader.read(), 15.0)
                writer.close()
                return reply["worker_id"], sent_at

            bad_id, sent_at = asyncio.run(go())
            (declared_at,) = wait_until(
                lambda: [when for when, wid in farm.crashes if wid == bad_id],
                message="scripted peer to be declared dead",
            )
            assert declared_at - sent_at < 0.5
            handle = farm.workers[0]
            assert not handle.connected and not handle.active
            errors = tel.metrics.get("repro_dist_protocol_errors_total")
            assert errors.labels(farm=farm.name).value == 1
            farm.add_worker()  # healthy capacity; the replay lands here
            (result,) = farm.drain_results(1, timeout=30.0)
            assert result == 16
        finally:
            farm.shutdown()

    def test_entries_absorbed_before_a_bad_one_are_still_delivered(self):
        """One ``result_batch``: a good entry, then one without a task
        id.  The session dies on the second — but the first task is
        completed, so its result must reach the consumer, once; the
        second task is replayed and completes elsewhere."""
        farm = patient_farm(max_inflight=8, batch_size=8)
        try:

            async def go():
                reader, writer, _ = await attach_v4(
                    farm.port,
                    {"type": "hello", "worker_id": -1, "proto": PROTOCOL_VERSION,
                     "codecs": ["json"]},
                )
                for value in (3, 4):
                    farm.submit((0.0, value))
                tasks = []
                while len(tasks) < 2:
                    frame = await read_frame(reader)
                    tasks.extend(frame.get("tasks") or [frame])
                good = tasks[0]
                writer.write(
                    encode_frame_v4(
                        {"type": "result_batch",
                         "results": [
                             {"task_id": good["task_id"],
                              "value": good["payload"][1] ** 2},
                             {"value": 1},
                         ],
                         "completed": 2}
                    )
                )
                await asyncio.wait_for(reader.read(), 15.0)  # hung up on
                writer.close()

            asyncio.run(go())
            farm.add_worker()
            out = farm.drain_results(2, timeout=30.0)
            assert sorted(out) == [9, 16]
            assert farm.completed == 2 and farm.duplicates == 0
            assert farm.results.empty()  # the good result came out once
        finally:
            farm.shutdown()

    @pytest.mark.parametrize(
        "bad_field",
        [
            pytest.param({"worker_id": "abc"}, id="worker-id-not-a-number"),
            pytest.param({"codecs": 5}, id="codecs-not-a-list"),
            pytest.param({"type": "reattach", "completed": "x"}, id="completed-not-a-number"),
        ],
    )
    def test_ill_typed_greeting_is_hung_up_on(self, bad_field):
        """A greeting that parses but has the wrong shape is a bad
        client: hung up on at once, nothing half-registered."""
        farm = patient_farm()
        try:

            async def go():
                reader, writer, reply = await attach_v4(
                    farm.port,
                    {"type": "hello", "worker_id": -1, "proto": PROTOCOL_VERSION,
                     "codecs": ["json"], **bad_field},
                )
                assert reply is None
                got = await asyncio.wait_for(reader.read(), 1.0)
                writer.close()
                return got

            assert asyncio.run(go()) == b""
            assert farm.workers == []
        finally:
            farm.shutdown()

    def test_result_batch_duplicates_dedupe_to_exactly_once(self):
        """A replayed batch can re-ack tasks that already completed; the
        coordinator must dedupe per entry, exactly as it does for
        duplicate singleton results."""
        farm = patient_farm(max_inflight=8, batch_size=8)
        try:

            async def go():
                reader, writer, reply = await attach_v4(
                    farm.port,
                    {"type": "hello", "worker_id": -1, "proto": PROTOCOL_VERSION,
                     "codecs": ["json"]},
                )
                for i in range(3):
                    farm.submit((0.0, i))
                # a fill pass may race the submit burst, so the three
                # tasks can arrive as one batch or as batch+singleton
                tasks = []
                while len(tasks) < 3:
                    frame = await read_frame(reader)
                    assert frame["type"] in ("task", "task_batch")
                    tasks.extend(frame.get("tasks") or [frame])
                results = [
                    {"task_id": t["task_id"], "value": t["payload"][1] ** 2}
                    for t in tasks
                ]
                # first entry acked twice inside one batch
                writer.write(
                    encode_frame_v4(
                        {"type": "result_batch",
                         "results": [results[0]] + results,
                         "completed": 3},
                        codec="json",
                    )
                )
                await writer.drain()
                writer.close()

            asyncio.run(go())
            out = farm.drain_results(3, timeout=30.0)
            assert sorted(out) == [0, 1, 4]
            assert farm.completed == 3
            assert farm.duplicates == 1
        finally:
            farm.shutdown()


class TestRealWorkers:
    def test_pickle_fast_path_roundtrips_what_json_cannot(self):
        """Spawned workers are trusted, negotiate pickle by default, and
        a set — which the JSON wire must degrade to an error result —
        crosses intact."""
        tel = Telemetry()
        farm = DistFarm(
            dist_task, initial_workers=1, telemetry=tel, supervise_period=0.02
        )
        try:
            wait_until(
                lambda: any(w.connected for w in farm.workers),
                message="spawned worker to connect",
            )
            handle = farm.workers[0]
            assert handle.codec == "pickle"
            farm.submit((0.0, "unserializable"))
            (result,) = farm.drain_results(1, timeout=30.0)
            assert result == {1, 2, 3}
        finally:
            farm.shutdown()

    def test_batched_dispatch_serves_a_burst(self):
        tel = Telemetry()
        farm = DistFarm(
            dist_task,
            initial_workers=2,
            max_inflight=16,
            batch_size=8,
            telemetry=tel,
            supervise_period=0.02,
        )
        try:
            total = 60
            for i in range(total):
                farm.submit((0.0, i))
            results = farm.drain_results(total, timeout=30.0)
            assert sorted(results) == sorted(i * i for i in range(total))
            batched = tel.metrics.get("repro_dist_batched_tasks_total")
            assert batched is not None
            assert batched.labels(farm=farm.name).value > 0
        finally:
            farm.shutdown()

    def test_stale_epoch_session_bounces_a_whole_batch(self):
        """Epoch fencing sees through batches: a superseded coordinator
        incarnation sending ``task_batch`` gets every id back in one
        ``refused``/``task_ids`` frame, and nothing executes."""

        async def scenario():
            conns: "asyncio.Queue" = asyncio.Queue()

            async def on_connect(reader, writer):
                await conns.put((reader, writer))

            server = await asyncio.start_server(on_connect, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.runtime.dist_worker",
                 "--host", "127.0.0.1", "--port", str(port),
                 "--worker-id", "3", "--fn", fn_spec(dist_task),
                 "--reconnect-attempts", "5"],
                env=env,
                stdout=subprocess.DEVNULL,
            )
            try:
                # session 1: a high-epoch coordinator, then gone
                reader, writer = await asyncio.wait_for(conns.get(), 15.0)
                hello = await read_frame(reader)
                assert hello["type"] == "hello"
                writer.write(
                    encode_frame_v4(
                        {"type": "welcome", "worker_id": 3,
                         "proto": PROTOCOL_VERSION, "epoch": 5, "codec": "json"}
                    )
                )
                await writer.drain()
                writer.close()
                # session 2: a stale incarnation (lower epoch) redials
                reader, writer = await asyncio.wait_for(conns.get(), 15.0)
                reattach = await read_frame(reader)
                assert reattach["type"] == "reattach"
                writer.write(
                    encode_frame_v4(
                        {"type": "takeover", "worker_id": 3,
                         "proto": PROTOCOL_VERSION, "epoch": 2, "codec": "json"}
                    )
                )
                writer.write(
                    encode_frame_v4(
                        {"type": "task_batch",
                         "tasks": [{"task_id": 11, "payload": [0.0, 1]},
                                   {"task_id": 12, "payload": [0.0, 2]}]},
                        codec="json",
                    )
                )
                await writer.drain()
                while True:
                    frame = await read_frame(reader)
                    assert frame is not None, "worker hung up instead of refusing"
                    if frame["type"] != "hb":
                        break
                assert frame["type"] == "refused"
                assert sorted(frame["task_ids"]) == [11, 12]
                assert frame["reason"] == "stale epoch"
                writer.write(encode_frame_v4({"type": "poison"}))
                await writer.drain()
                writer.close()
            finally:
                server.close()
                await server.wait_closed()
                assert proc.wait(15.0) == 0

        asyncio.run(scenario())
