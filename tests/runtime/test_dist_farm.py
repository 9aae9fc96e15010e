"""Unit tests for the distributed farm: wire protocol, faults, telemetry.

The cross-backend invariants (no loss, exactly-once, monotone counts,
clean shutdown) live in ``test_backend_conformance.py``; this file
covers what is *specific* to the TCP substrate — the handshake's
version gate (framing itself is ``test_dist_proto_v4.py``'s), the
``module:qualname`` function hand-off, remotely attached workers,
secured payloads on the wire, dead-lettering, error results, and the
``repro_dist_*`` telemetry surface.
"""

import asyncio
import importlib.util
import json
import subprocess
import sys
import time

import pytest

from repro.obs.telemetry import Telemetry
from repro.runtime.dist_farm import DistFarm, fn_spec
from repro.runtime.dist_proto import PROTOCOL_VERSION, encode_frame_v4, read_frame
from repro.runtime.dist_worker import resolve_fn

from .waiting import wait_until


def dist_task(payload):
    """(work, value) -> value**2, with optional failure modes baked in."""
    work, value = payload
    if value == "boom":
        raise ValueError("task asked to fail")
    if value == "unserializable":
        return {1, 2, 3}  # a set cannot cross the JSON wire
    if work:
        time.sleep(work)
    return value * value


def quick_farm(**overrides):
    defaults = dict(
        initial_workers=2,
        heartbeat_period=0.05,
        heartbeat_timeout=0.5,
        supervise_period=0.02,
        backoff_base=0.02,
        backoff_cap=0.2,
        rate_window=0.5,
    )
    defaults.update(overrides)
    return DistFarm(dist_task, **defaults)


class TestWireProtocol:
    def test_mismatched_protocol_version_refused_with_clear_error(self):
        farm = quick_farm(initial_workers=1)

        async def attach(proto):
            reader, writer = await asyncio.open_connection("127.0.0.1", farm.port)
            hello = {"type": "hello", "worker_id": -1}
            if proto is not None:
                hello["proto"] = proto
            writer.write(encode_frame_v4(hello))
            reply = await read_frame(reader)
            writer.close()
            return reply

        try:
            for bad in (999, 3, None):
                reply = asyncio.run(attach(bad))
                assert reply is not None and reply["type"] == "error"
                assert "protocol version mismatch" in reply["error"]
                assert str(PROTOCOL_VERSION) in reply["error"]
                assert reply["proto"] == PROTOCOL_VERSION
            # the refusals registered nobody beyond the spawned worker
            assert farm.num_workers == 1
            # a matching version is welcomed as usual
            reply = asyncio.run(attach(PROTOCOL_VERSION))
            assert reply is not None and reply["type"] == "welcome"
            assert reply["proto"] == PROTOCOL_VERSION
        finally:
            farm.shutdown()

    def test_v3_framed_hello_is_hung_up_on(self):
        """The length-prefixed-JSON dialect is gone: a peer that opens
        with it is not speaking this protocol — hung up on at once (it
        could not read a v4 ``error`` frame), nothing registered, no
        task sent its way."""
        farm = quick_farm(initial_workers=0)
        body = json.dumps(
            {"type": "hello", "worker_id": -1, "proto": 3}, separators=(",", ":")
        ).encode()

        async def attach():
            reader, writer = await asyncio.open_connection("127.0.0.1", farm.port)
            writer.write(len(body).to_bytes(4, "big") + body)
            farm.submit((0.0, 3))
            got = await asyncio.wait_for(reader.read(), 1.0)  # EOF within 1 s
            writer.close()
            return got

        try:
            assert asyncio.run(attach()) == b""
            assert farm.num_workers == 0 and farm.workers == []
            assert farm.snapshot().pending == 1  # still waiting for a real worker
        finally:
            farm.shutdown()


class TestFnSpec:
    def test_roundtrips_module_level_callable(self):
        spec = fn_spec(dist_task)
        assert resolve_fn(spec) is dist_task

    def test_accepts_explicit_spec_string(self):
        assert fn_spec("pkg.mod:fn") == "pkg.mod:fn"
        with pytest.raises(ValueError):
            fn_spec("no-colon")

    def test_rejects_unimportable_callables(self):
        with pytest.raises(ValueError):
            fn_spec(lambda x: x)  # <locals> cannot be imported remotely

    def test_resolve_rejects_non_callable(self):
        with pytest.raises(TypeError):
            resolve_fn("time:altzone")


class TestRemoteAttach:
    def test_worker_started_by_hand_joins_the_farm(self):
        """The coordinator accepts workers it did not spawn — the
        distributed story: capacity can come from anywhere on the net."""
        farm = quick_farm(initial_workers=1)
        proc = None
        try:
            before = farm.num_workers
            proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.runtime.dist_worker",
                    "--host",
                    "127.0.0.1",
                    "--port",
                    str(farm.port),
                    "--fn",
                    fn_spec(dist_task),
                    "--heartbeat-period",
                    "0.05",
                ],
            )
            wait_until(
                lambda: farm.num_workers == before + 1,
                message="hand-started worker to attach",
            )
            total = 30
            for i in range(total):
                farm.submit((0.005, i))
            results = farm.drain_results(total, timeout=30.0)
            assert sorted(results) == [i * i for i in range(total)]
            # the attached worker genuinely served part of the stream
            attached = [w for w in farm.workers if w.process is None]
            assert attached and attached[0].reported_completed > 0
        finally:
            farm.shutdown()
            if proc is not None:
                proc.wait(10.0)

    def test_attach_beyond_max_workers_is_refused(self):
        farm = quick_farm(initial_workers=1, max_workers=1)
        proc = None
        try:
            proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.runtime.dist_worker",
                    "--host",
                    "127.0.0.1",
                    "--port",
                    str(farm.port),
                    "--fn",
                    fn_spec(dist_task),
                    "--connect-attempts",
                    "3",
                ],
            )
            # the coordinator closes the connection instead of welcoming
            assert proc.wait(30.0) != 0
            assert farm.num_workers == 1
        finally:
            farm.shutdown()
            if proc is not None and proc.poll() is None:
                proc.kill()


class TestCodecPinning:
    def test_env_var_pins_an_auto_session(self, monkeypatch):
        """``REPRO_DIST_CODEC`` forces the negotiated codec fleet-wide —
        the hook the CI msgpack conformance leg rides. Pinning to json is
        observable because spawned (trusted) workers would otherwise
        negotiate pickle."""
        monkeypatch.setenv("REPRO_DIST_CODEC", "json")
        farm = quick_farm(initial_workers=1)
        try:
            assert farm.codec == "json"
            farm.submit((0.0, 5))
            assert farm.drain_results(1, timeout=30.0) == [25]
            assert all(w.codec == "json" for w in farm.workers)
        finally:
            farm.shutdown()

    def test_explicit_codec_beats_the_env(self, monkeypatch):
        """The env var only resolves ``codec="auto"``; a call site that
        pinned a codec keeps it."""
        monkeypatch.setenv("REPRO_DIST_CODEC", "json")
        farm = quick_farm(initial_workers=1, codec="pickle")
        try:
            assert farm.codec == "pickle"
            farm.submit((0.0, 4))
            assert farm.drain_results(1, timeout=30.0) == [16]
            assert all(w.codec == "pickle" for w in farm.workers)
        finally:
            farm.shutdown()

    @pytest.mark.skipif(
        importlib.util.find_spec("msgpack") is None,
        reason="msgpack not installed (CI installs it via the codecs extra)",
    )
    def test_msgpack_session_end_to_end(self):
        farm = quick_farm(initial_workers=1, codec="msgpack")
        try:
            farm.submit((0.0, 6))
            assert farm.drain_results(1, timeout=30.0) == [36]
            assert all(w.codec == "msgpack" for w in farm.workers)
        finally:
            farm.shutdown()


class TestSecuredChannel:
    def test_secure_all_mid_stream_keeps_results_correct(self):
        farm = quick_farm()
        try:
            for i in range(10):
                farm.submit((0.0, i))
            farm.secure_all()
            for i in range(10, 20):
                farm.submit((0.0, i))
            results = farm.drain_results(20, timeout=30.0)
            assert sorted(results) == [i * i for i in range(20)]
            assert all(w.secured for w in farm.workers)
        finally:
            farm.shutdown()


class TestFaultEdges:
    def test_replay_budget_exhaustion_dead_letters(self):
        """max_attempts=1: the first crash a task is caught in consigns
        it to the dead-letter list instead of replaying forever."""
        farm = quick_farm(initial_workers=1, max_attempts=1)
        try:
            farm.submit((5.0, 1))
            farm.submit((5.0, 2))  # both fit the default dispatch window
            wait_until(
                lambda: any(w.outstanding for w in farm.workers),
                message="tasks in flight on the victim",
            )
            assert farm.drop_connection() is not None
            wait_until(
                lambda: len(farm.dead_letters) == 2,
                message="exhausted tasks to dead-letter",
            )
            assert sorted(d.payload[1] for d in farm.dead_letters) == [1, 2]
            assert all(d.attempts == 1 for d in farm.dead_letters)
            assert farm.completed == 0
        finally:
            farm.shutdown()

    def test_task_exception_surfaces_as_error_result(self):
        farm = quick_farm(initial_workers=1)
        try:
            farm.submit((0.0, "boom"))
            (result,) = farm.drain_results(1, timeout=30.0)
            assert isinstance(result, RuntimeError)
            assert "ValueError: task asked to fail" in str(result)
        finally:
            farm.shutdown()

    def test_unserializable_result_surfaces_as_error_result(self):
        """A value that cannot cross the JSON wire is an *error result*,
        not a lost task or a dead worker (pinned to the json codec: the
        pickle fast path would happily serialize a set)."""
        farm = quick_farm(initial_workers=1, codec="json")
        try:
            farm.submit((0.0, "unserializable"))
            farm.submit((0.0, 3))  # the worker must survive to serve this
            results = farm.drain_results(2, timeout=30.0)
            errors = [r for r in results if isinstance(r, RuntimeError)]
            values = [r for r in results if not isinstance(r, RuntimeError)]
            assert len(errors) == 1 and "TypeError" in str(errors[0])
            assert values == [9]
        finally:
            farm.shutdown()

    def test_retiring_worker_drains_window_before_exit(self):
        farm = quick_farm(initial_workers=2)
        try:
            total = 40
            for i in range(total):
                farm.submit((0.005, i))
            farm.remove_worker()
            results = farm.drain_results(total, timeout=30.0)
            assert sorted(results) == [i * i for i in range(total)]
            wait_until(
                lambda: farm.num_workers == 1,
                message="victim to retire after draining",
            )
            # a graceful retirement is not a crash
            assert not farm.crashes and not farm.dead_letters
        finally:
            farm.shutdown()


class TestDistTelemetry:
    def test_counters_and_spans_reach_the_registry(self):
        tel = Telemetry()
        farm = quick_farm(telemetry=tel)
        try:
            for i in range(20):
                farm.submit((0.01, i))
            wait_until(
                lambda: farm.snapshot().completed >= 5,
                message="stream in flight before the fault",
            )
            assert farm.drop_connection() is not None
            farm.drain_results(20, timeout=60.0)
            wait_until(
                lambda: "repro_dist_worker_crashes_total" in tel.metrics,
                message="crash counter to be registered",
            )
            crashes = tel.metrics.get("repro_dist_worker_crashes_total")
            assert crashes.labels(farm=farm.name).value >= 1
            replayed = tel.metrics.get("repro_dist_tasks_replayed_total")
            assert replayed is None or replayed.labels(farm=farm.name).value >= 0
            completed = tel.metrics.get("repro_dist_worker_completed_tasks")
            assert completed is not None and completed.samples()
            frames = tel.metrics.get("repro_dist_frames_total")
            assert frames is not None
            assert frames.labels(farm=farm.name, direction="rx").value > 0
        finally:
            farm.shutdown()
        spans = tel.spans.named("dist.worker", farm.name)
        assert spans, "every worker lifetime is a dist.worker span"
        assert any(s.attributes.get("outcome") == "crashed" for s in spans)
