"""E2E regression: a dist worker survives its coordinator.

These tests drive a **real** :func:`repro.runtime.dist_worker.run_worker`
(on an executor thread) against a scripted coordinator speaking the raw wire
protocol, pinning the three reattach guarantees the supervised dist
story depends on:

* an EOF with ``reconnect_attempts > 0`` redials the *same* port with
  capped backoff and announces a ``reattach`` frame carrying the id and
  completion count it already earned — a promoted standby answers
  ``takeover`` and work continues;
* the highest epoch ever served is sticky: a session announcing a lower
  epoch is a stale predecessor and every task frame it sends is bounced
  ``refused``/``stale epoch``, never executed;
* when the redial budget runs dry the worker exits 1 instead of spinning.

The full farm-level story (SupervisedFarm standby promotion, journal
replay, partitions) lives in the chaos tier of
``test_backend_conformance.py`` — this file is the protocol-level
regression net that keeps those tests debuggable.
"""

import asyncio
from functools import partial

import pytest

from repro.runtime.dist_proto import PROTOCOL_VERSION, encode_frame_v4, read_frame
from repro.runtime.dist_worker import run_worker


def _square(x):
    return x * x


class ScriptedSession:
    """One accepted worker connection, with hb-frames filtered out."""

    def __init__(self, reader, writer, greeting):
        self.reader = reader
        self.writer = writer
        self.greeting = greeting

    def send(self, message):
        self.writer.write(encode_frame_v4(message))

    async def recv(self, timeout=10.0):
        while True:
            frame = await asyncio.wait_for(read_frame(self.reader), timeout)
            if frame is None or frame.get("type") != "hb":
                return frame

    def close(self):
        try:
            self.writer.close()
        except Exception:  # noqa: BLE001 - already torn down
            pass


class ScriptedCoordinator:
    """A hand-rolled coordinator end: accept, script frames, die on cue."""

    def __init__(self, port=0):
        self.port = port
        self._server = None
        self._pending = asyncio.Queue()

    async def start(self):
        self._server = await asyncio.start_server(
            self._on_connection, "127.0.0.1", self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def _on_connection(self, reader, writer):
        await self._pending.put((reader, writer))

    async def accept(self, timeout=10.0):
        reader, writer = await asyncio.wait_for(self._pending.get(), timeout)
        greeting = await asyncio.wait_for(read_frame(reader), timeout)
        return ScriptedSession(reader, writer, greeting)

    async def stop(self):
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None


def _start_worker(port, **kwargs):
    return asyncio.get_running_loop().run_in_executor(
        None,
        partial(
            run_worker,
            "127.0.0.1",
            port,
            _square,
            heartbeat_period=0.05,
            connect_backoff=0.01,
            connect_backoff_cap=0.1,
            **kwargs,
        ),
    )


class TestDistWorkerReconnect:
    def test_reattach_to_restarted_coordinator_on_same_port(self):
        """Kill the coordinator mid-service; the worker redials the same
        port, reattaches under its old id with its completion count, and
        keeps serving the promoted successor."""

        async def scenario():
            coord = await ScriptedCoordinator().start()
            port = coord.port
            worker = _start_worker(port, reconnect_attempts=400)
            try:
                first = await coord.accept()
                assert first.greeting["type"] == "hello"
                assert first.greeting["proto"] == PROTOCOL_VERSION
                first.send(
                    {
                        "type": "welcome",
                        "worker_id": 7,
                        "proto": PROTOCOL_VERSION,
                        "epoch": 0,
                    }
                )
                first.send({"type": "task", "task_id": 1, "payload": 3})
                result = await first.recv()
                assert result["type"] == "result" and result["value"] == 9
                assert result["completed"] == 1

                # the coordinator dies: listener gone, connection cut
                await coord.stop()
                first.close()
                await asyncio.sleep(0.05)  # let a few redials bounce

                # the standby rebinds the same port and is reattached to
                standby = await ScriptedCoordinator(port).start()
                second = await standby.accept()
                assert second.greeting["type"] == "reattach"
                assert second.greeting["worker_id"] == 7
                assert second.greeting["completed"] == 1
                second.send(
                    {
                        "type": "takeover",
                        "worker_id": 7,
                        "proto": PROTOCOL_VERSION,
                        "epoch": 1,
                    }
                )
                second.send({"type": "task", "task_id": 2, "payload": 4})
                result = await second.recv()
                assert result["type"] == "result" and result["value"] == 16
                assert result["completed"] == 2

                second.send({"type": "poison"})
                bye = await second.recv()
                assert bye["type"] == "bye" and bye["completed"] == 2
                assert await asyncio.wait_for(worker, 10.0) == 0
                second.close()
                await standby.stop()
            finally:
                worker.cancel()
                await coord.stop()

        asyncio.run(asyncio.wait_for(scenario(), 30.0))

    def test_stale_epoch_sessions_cannot_extract_work(self):
        """The highest epoch served is sticky: a reattach welcomed with a
        *lower* epoch gets every task frame refused, and a later session
        at a higher epoch serves normally again."""

        async def scenario():
            coord = await ScriptedCoordinator().start()
            worker = _start_worker(coord.port, reconnect_attempts=400)
            try:
                first = await coord.accept()
                first.send(
                    {
                        "type": "welcome",
                        "worker_id": 3,
                        "proto": PROTOCOL_VERSION,
                        "epoch": 5,
                    }
                )
                first.send({"type": "task", "task_id": 1, "payload": 2})
                assert (await first.recv())["value"] == 4
                first.close()

                stale = await coord.accept()
                assert stale.greeting["type"] == "reattach"
                stale.send(
                    {
                        "type": "takeover",
                        "worker_id": 3,
                        "proto": PROTOCOL_VERSION,
                        "epoch": 3,  # a zombie predecessor incarnation
                    }
                )
                stale.send({"type": "task", "task_id": 9, "payload": 5})
                refusal = await stale.recv()
                assert refusal["type"] == "refused"
                assert refusal["reason"] == "stale epoch"
                assert refusal["task_id"] == 9
                stale.close()

                current = await coord.accept()
                current.send(
                    {
                        "type": "takeover",
                        "worker_id": 3,
                        "proto": PROTOCOL_VERSION,
                        "epoch": 6,
                    }
                )
                current.send({"type": "task", "task_id": 10, "payload": 5})
                result = await current.recv()
                assert result["type"] == "result" and result["value"] == 25
                # the refused task never executed: completion count says so
                assert result["completed"] == 2

                current.send({"type": "poison"})
                assert (await current.recv())["type"] == "bye"
                assert await asyncio.wait_for(worker, 10.0) == 0
                current.close()
            finally:
                worker.cancel()
                await coord.stop()

        asyncio.run(asyncio.wait_for(scenario(), 30.0))

    def test_redial_budget_exhaustion_exits_instead_of_spinning(self):
        """When the coordinator never comes back, the capped-backoff
        redial loop gives up and the worker reports failure."""

        async def scenario():
            coord = await ScriptedCoordinator().start()
            worker = _start_worker(coord.port, reconnect_attempts=3)
            try:
                first = await coord.accept()
                first.send(
                    {
                        "type": "welcome",
                        "worker_id": 0,
                        "proto": PROTOCOL_VERSION,
                        "epoch": 0,
                    }
                )
                first.send({"type": "task", "task_id": 1, "payload": 6})
                assert (await first.recv())["value"] == 36
                await coord.stop()
                first.close()
                assert await asyncio.wait_for(worker, 10.0) == 1
            finally:
                worker.cancel()
                await coord.stop()

        asyncio.run(asyncio.wait_for(scenario(), 30.0))

    def test_protocol_version_mismatch_is_fatal_not_retried(self):
        """A coordinator announcing a different protocol version is a
        deployment error, not an outage: the worker refuses to serve."""

        async def scenario():
            coord = await ScriptedCoordinator().start()
            worker = _start_worker(coord.port, reconnect_attempts=400)
            try:
                first = await coord.accept()
                first.send(
                    {
                        "type": "welcome",
                        "worker_id": 0,
                        "proto": PROTOCOL_VERSION + 1,
                        "epoch": 0,
                    }
                )
                assert await asyncio.wait_for(worker, 10.0) == 1
                first.close()
            finally:
                worker.cancel()
                await coord.stop()

        asyncio.run(asyncio.wait_for(scenario(), 30.0))


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
