"""Wire-level regression: ``dist_worker --require-secure`` enforces the
gate on its own side of the TCP connection.

These tests do NOT use :class:`DistFarm`.  They run a hand-rolled
coordinator speaking the raw frame protocol against a real
``python -m repro.runtime.dist_worker`` subprocess, because the property
under test is exactly that a *coordinator-independent* adversary — any
client that can speak the protocol — cannot push a task onto an
unsecured channel: the worker itself bounces the frame with ``refused``
and never executes it.
"""

import asyncio
import os
import subprocess
import sys

import pytest

from repro.runtime.dist_proto import (
    PROTOCOL_VERSION,
    encode_frame_v4,
    make_challenge,
    read_frame,
    verify_proof,
)

pytestmark = pytest.mark.multiconcern

WORKER_FN = "repro.experiments.fig4_live:live_task"  # (work, value) -> value²


async def start_coordinator():
    """A listening socket that hands the first worker connection back."""
    conn = asyncio.get_running_loop().create_future()

    async def on_connect(reader, writer):
        if not conn.done():
            conn.set_result((reader, writer))

    server = await asyncio.start_server(on_connect, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    return server, port, conn


def spawn_worker(port, *extra_args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.runtime.dist_worker",
            "--host",
            "127.0.0.1",
            "--port",
            str(port),
            "--worker-id",
            "7",
            "--fn",
            WORKER_FN,
            *extra_args,
        ],
        env=env,
        stdout=subprocess.DEVNULL,
    )


async def next_frame(reader, *, skip=("hb",), timeout=15.0):
    """The next non-heartbeat frame, or fail the test on EOF/timeout."""
    deadline = asyncio.get_running_loop().time() + timeout
    while True:
        remaining = deadline - asyncio.get_running_loop().time()
        frame = await asyncio.wait_for(read_frame(reader), timeout=max(0.1, remaining))
        assert frame is not None, "worker closed the connection unexpectedly"
        if frame.get("type") not in skip:
            return frame


class TestRequireSecureWire:
    def test_task_before_handshake_is_refused_then_served_after(self):
        async def scenario():
            server, port, conn = await start_coordinator()
            proc = spawn_worker(port, "--require-secure")
            try:
                reader, writer = await asyncio.wait_for(conn, timeout=15.0)
                hello = await next_frame(reader)
                assert hello["type"] == "hello"
                assert hello["worker_id"] == 7
                assert hello["proto"] == PROTOCOL_VERSION
                # v4 workers offer their codecs; json is always among them
                assert "json" in hello["codecs"]
                writer.write(
                    encode_frame_v4(
                        {"type": "welcome", "worker_id": 7, "proto": PROTOCOL_VERSION}
                    )
                )

                # 1. a task racing ahead of the handshake is bounced, not run
                writer.write(
                    encode_frame_v4(
                        {"type": "task", "task_id": 101, "payload": [0.0, 6]}
                    )
                )
                refused = await next_frame(reader)
                assert refused["type"] == "refused"
                assert refused["task_id"] == 101
                assert "handshake" in refused["reason"]

                # 2. the handshake: challenge out, valid proof back
                challenge = make_challenge()
                writer.write(
                    encode_frame_v4({"type": "secure", "challenge": challenge})
                )
                secured = await next_frame(reader)
                assert secured["type"] == "secured"
                assert verify_proof(challenge, secured["proof"])

                # 3. the same task is now executed
                writer.write(
                    encode_frame_v4(
                        {"type": "task", "task_id": 101, "payload": [0.0, 6]}
                    )
                )
                result = await next_frame(reader)
                assert result["type"] == "result"
                assert result["task_id"] == 101
                assert result["value"] == 36

                # 4. graceful retirement
                writer.write(encode_frame_v4({"type": "poison"}))
                bye = await next_frame(reader)
                assert bye["type"] == "bye"
                assert bye["completed"] == 1  # the refused task never ran
                writer.close()
            finally:
                server.close()
                await server.wait_closed()
                assert proc.wait(timeout=15.0) == 0

        asyncio.run(scenario())

    def test_worker_without_flag_accepts_pre_handshake_tasks(self):
        """Control: the gate is opt-in — a plain worker executes a task
        that arrives before any handshake (the PR-3 behaviour)."""

        async def scenario():
            server, port, conn = await start_coordinator()
            proc = spawn_worker(port)
            try:
                reader, writer = await asyncio.wait_for(conn, timeout=15.0)
                await next_frame(reader)  # hello
                writer.write(
                    encode_frame_v4(
                        {"type": "welcome", "worker_id": 7, "proto": PROTOCOL_VERSION}
                    )
                )
                writer.write(
                    encode_frame_v4(
                        {"type": "task", "task_id": 1, "payload": [0.0, 5]}
                    )
                )
                result = await next_frame(reader)
                assert result["type"] == "result"
                assert result["value"] == 25
                writer.write(encode_frame_v4({"type": "poison"}))
                bye = await next_frame(reader)
                assert bye["type"] == "bye"
                writer.close()
            finally:
                server.close()
                await server.wait_closed()
                assert proc.wait(timeout=15.0) == 0

        asyncio.run(scenario())

    def test_bad_proof_is_rejected_coordinator_side(self):
        """verify_proof is the coordinator's half of the gate: garbage,
        truncation and replayed proofs of other challenges all fail."""
        from repro.runtime.dist_proto import prove_challenge

        c1, c2 = make_challenge(), make_challenge()
        assert verify_proof(c1, prove_challenge(c1))
        assert not verify_proof(c1, prove_challenge(c2))  # replayed proof
        assert not verify_proof(c1, "not-base64!!")
        assert not verify_proof(c1, "")
