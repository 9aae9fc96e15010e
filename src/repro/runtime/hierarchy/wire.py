"""The parent ↔ shard management plane over TCP, in real frames.

The parent manager of a :class:`ShardedFarm` needs three calls of a
shard — assign a sub-contract, re-cap its budget, poll a report.  An
in-process :class:`~repro.runtime.hierarchy.shard.FarmShard` answers
them itself; this module puts the same three calls across a socket:
:class:`TcpShardLink` → :class:`ShardAgent`, spoken in
:mod:`repro.runtime.dist_proto` frames — the task plane's own header,
parser and :class:`~repro.runtime.dist_proto.ProtocolError` taxonomy —
carrying the ``contract`` / ``budget`` / ``poll`` requests and their
``contract-ack`` / ``budget-ack`` / ``violation`` + ``report``
replies.  A DistFarm shard's management plane therefore crosses the
wire just like its task plane does, and a future remote shard host
only needs to speak these frames.

Both ends read with ``allowed=("json",)``: a management link never
unpickles, whoever is on the other side.  Both enforce the
protocol-version handshake: a mismatched peer is refused with an
``error`` frame naming both versions, never with an opaque mid-stream
failure.
"""

from __future__ import annotations

import socket
import threading
from typing import List, Optional, Tuple

from ...core.contracts import Contract
from ...obs.telemetry import NOOP, Telemetry
from ..dist_proto import (
    PROTOCOL_VERSION,
    ProtocolError,
    encode_frame_v4,
    read_frame_blocking,
    refuse_hello,
)
from .codec import contract_from_wire, contract_to_wire
from .shard import FarmShard, ShardReport

__all__ = ["TcpShardLink", "ShardAgent"]

#: the only codec a management link reads (see the module docstring)
_ALLOWED = ("json",)


class ShardAgent:
    """TCP server exposing one :class:`FarmShard`'s management plane.

    Listens on an ephemeral loopback port; each connection handshakes
    (``hello``/``welcome`` with protocol versions, exactly like the
    task-plane dist protocol) and then serves ``contract`` / ``poll`` /
    ``budget`` requests.  Violations raised by the shard's controller
    since the previous poll travel as individual ``violation`` frames
    *before* the ``report`` frame answering the poll — the parent sees
    each violation exactly once, in order, tagged with the shard id.
    """

    def __init__(
        self,
        shard: FarmShard,
        *,
        host: str = "127.0.0.1",
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.shard = shard
        self.telemetry = telemetry if telemetry is not None else NOOP
        self._server = socket.create_server((host, 0))
        self.host, self.port = self._server.getsockname()[:2]
        self._shutdown = threading.Event()
        self.frames_served = 0
        self._lock = threading.Lock()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"{shard.name}-agent", daemon=True
        )
        self._accept_thread.start()

    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._shutdown.is_set():
            try:
                conn, _addr = self._server.accept()
            except OSError:
                return  # listening socket closed
            threading.Thread(
                target=self._serve, args=(conn,), daemon=True,
                name=f"{self.shard.name}-agent-conn",
            ).start()

    def _count(self, frame_type: str) -> None:
        with self._lock:
            self.frames_served += 1
        if self.telemetry.enabled:
            self.telemetry.metrics.counter(
                "repro_hier_wire_frames_total",
                "management-plane frames served by shard agents",
            ).labels(shard=self.shard.name, type=frame_type).inc()

    def _answer(self, kind: str, frame: dict) -> List[dict]:
        """Serve one request against the shard; the frames it is owed."""
        shard = self.shard
        if kind == "contract":
            contract = contract_from_wire(frame.get("contract") or {})
            shard.assign_contract(contract)
            return [{"type": "contract-ack", "contract": contract.describe()}]
        if kind == "budget":
            removed = shard.set_budget(int(frame.get("budget", 0)))
            return [{"type": "budget-ack", "removed": removed, "budget": shard.budget}]
        report = shard.poll()
        return [
            {"type": "violation", "shard_id": shard.shard_id, "time": when, "kind": violation}
            for when, violation in report.violations
        ] + [{"type": "report", "report": report.to_wire()}]

    def _serve(self, conn: socket.socket) -> None:
        rfile = conn.makefile("rb")

        def send(message: dict) -> None:
            conn.sendall(encode_frame_v4(message))

        try:
            refusal = refuse_hello(
                read_frame_blocking(rfile, allowed=_ALLOWED), role="shard agent"
            )
            if refusal is not None:
                conn.sendall(refusal)
                return
            send({"type": "welcome", "proto": PROTOCOL_VERSION,
                  "shard_id": self.shard.shard_id})
            self._count("hello")
            while not self._shutdown.is_set():
                frame = read_frame_blocking(rfile, allowed=_ALLOWED)
                if frame is None:
                    return
                kind = frame.get("type")
                if kind == "bye":
                    return
                if kind not in ("contract", "budget", "poll"):
                    send({"type": "error", "error": f"unknown frame type {kind!r}"})
                    continue
                try:
                    replies = self._answer(kind, frame)
                except Exception as exc:  # noqa: BLE001 - surfaced to peer
                    replies = [{"type": "error", "error": f"{type(exc).__name__}: {exc}"}]
                for reply in replies:
                    send(reply)
                self._count(kind)
        except ProtocolError as exc:
            # the stream is no longer frame-aligned: name the violation
            # (a peer that framed it as v4 can read this) and hang up
            try:
                send({"type": "error", "error": str(exc)})
            except OSError:
                pass
        except (ConnectionError, OSError):
            return
        finally:
            try:
                rfile.close()
                conn.close()
            except OSError:
                pass

    def close(self) -> None:
        """Stop accepting and wait for the accept thread to return.

        On Linux closing a listening socket does not wake a thread
        blocked in ``accept()`` on it; shutting it down does.  Left
        running, that thread would keep the agent — and through it the
        shard, its farm and the telemetry — alive for good.
        """
        self._shutdown.set()
        try:
            self._server.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # never listened, or already shut down
        self._server.close()
        self._accept_thread.join(5.0)


class TcpShardLink:
    """Client side of :class:`ShardAgent`: :class:`FarmShard`'s three
    calls — ``assign_contract``, ``set_budget``, ``poll`` — over TCP."""

    def __init__(self, host: str, port: int, *, shard_id: int, timeout: float = 10.0) -> None:
        self.shard_id = shard_id
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._rfile = self._sock.makefile("rb")
        self._lock = threading.Lock()
        self.frames_sent = 0
        self._send({"type": "hello", "proto": PROTOCOL_VERSION, "role": "parent"})
        welcome = self._recv()
        if welcome is None or welcome.get("type") == "error":
            detail = (welcome or {}).get("error", "connection closed during handshake")
            self.close()
            raise ConnectionError(f"shard agent refused link: {detail}")
        if welcome.get("type") != "welcome" or welcome.get("proto") != PROTOCOL_VERSION:
            self.close()
            raise ConnectionError(
                f"unexpected shard-agent handshake reply: {welcome!r}"
            )

    def _send(self, message: dict) -> None:
        self._sock.sendall(encode_frame_v4(message))
        self.frames_sent += 1

    def _recv(self) -> Optional[dict]:
        try:
            return read_frame_blocking(self._rfile, allowed=_ALLOWED)
        except ProtocolError:
            self._hang_up()  # the stream is no longer frame-aligned
            raise

    def _request(self, message: dict, expect: str) -> Tuple[dict, List[dict]]:
        """One request/response exchange; collects interleaved pushes."""
        with self._lock:
            self._send(message)
            pushed: List[dict] = []
            while True:
                reply = self._recv()
                if reply is None:
                    raise ConnectionError("shard agent link lost mid-request")
                if reply.get("type") == "error":
                    raise RuntimeError(f"shard agent error: {reply.get('error')}")
                if reply.get("type") == expect:
                    return reply, pushed
                pushed.append(reply)

    def assign_contract(self, contract: Contract) -> None:
        self._request(
            {"type": "contract", "contract": contract_to_wire(contract)},
            expect="contract-ack",
        )

    def set_budget(self, budget: int) -> int:
        reply, _ = self._request(
            {"type": "budget", "budget": budget}, expect="budget-ack"
        )
        return int(reply.get("removed", 0))

    def poll(self) -> ShardReport:
        reply, pushed = self._request({"type": "poll"}, expect="report")
        report = ShardReport.from_wire(reply["report"])
        # the agent pushes one `violation` frame per entry of the report's
        # list, ahead of it: the frames are the wire truth
        report.violations = [
            (float(f.get("time", 0.0)), str(f.get("kind")))
            for f in pushed
            if f.get("type") == "violation"
        ]
        return report

    def close(self) -> None:
        with self._lock:
            try:
                self._sock.sendall(encode_frame_v4({"type": "bye"}))
            except OSError:
                pass
        self._hang_up()

    def _hang_up(self) -> None:
        try:
            self._rfile.close()
            self._sock.close()
        except OSError:
            pass

