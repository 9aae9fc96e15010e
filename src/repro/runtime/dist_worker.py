"""The worker end of the v4 wire: connect, execute, ack.

Runnable directly, which is the whole point of the distributed backend::

    python -m repro.runtime.dist_worker \
        --host 127.0.0.1 --port 40123 --fn mypkg.tasks:render

A worker started this way on *any* host attaches to a listening
:class:`~repro.runtime.dist_farm.DistFarm` coordinator (``--worker-id``
defaults to −1, "assign me an id"), receives task frames, executes the
named function and acks each completion.  The coordinator spawns local
workers through exactly this entry point, so a locally spawned and a
remotely attached worker are indistinguishable on the wire.

The wire is protocol v4 (:mod:`.dist_proto`): binary frames, a payload
codec negotiated at ``hello`` (offer restricted with ``--codec``), and
multi-task ``task_batch`` frames executed in arrival order and acked in
``result_batch`` frames at most :data:`ACK_INTERVAL` behind the work —
microsecond tasks amortise a whole window into one ack, and a finished
result never sits out a slow neighbour.

What a worker *decides* — how a task is executed and stamped
(:func:`iter_entries`), how results degrade from a batch to per-entry
frames to an error (:func:`encode_results`), when a task is bounced and
how (:func:`refusal_reason`, :func:`refused_frame`), the handshake proof
(:func:`secured_frame`) — is plain functions under **one shell**: a
blocking loop on a connected socket that reads a frame, runs its window
inline, acks, and answers ``secure`` and ``poison`` in wire order (a
``poison`` queues *behind* earlier windows, which is what makes
coordinator-driven retirement graceful).  No event loop, no queue, no
executor hop: the only other thread is a daemon **heartbeat**, beating
every ``--heartbeat-period`` under the same send lock, so a worker deep
in one long task is still visibly alive and only real death (or a wedged
interpreter) silences it.

There are two ways of coming by the socket:

* :func:`run_worker` *dials* a coordinator over TCP — with capped
  exponential backoff (``--connect-attempts`` / ``--connect-backoff``),
  so workers can be launched *before* the coordinator finishes binding
  its port — and greets it.  EOF means the coordinator is gone: by
  default the worker exits at once (nobody left to ack to; in-flight
  work is replayed anyway), but with ``--reconnect-attempts N`` it
  redials and ``reattach``-es to whatever coordinator — typically a
  promoted standby — rebinds the port, refusing task frames from any
  session announcing an epoch older than the newest it has served.
* :func:`serve_forked` is the body of a child a
  :class:`~repro.runtime.process_farm.ProcessFarm` forked with one end
  of a socketpair already in hand, its greeting already written by the
  coordinator that forked it.

This module is a worker's whole start-up cost, so it imports what it
uses and nothing else: see "Worker import closure" in
``docs/ARCHITECTURE.md`` before adding an import here or to
:mod:`.dist_proto`.
"""

from __future__ import annotations

import argparse
import importlib
import os
import socket
import sys
import threading
import time
from typing import Any, Callable, Iterator, List, Optional, Sequence

from .dist_proto import (
    PROTOCOL_VERSION,
    ProtocolError,
    available_codecs,
    encode_frame_v4,
    prove_challenge,
    read_frame_blocking,
)

__all__ = ["resolve_fn", "run_worker", "serve_forked", "greeting", "main"]

#: the shell runs a window inline, so it bounds ack latency by time: a
#: finished result waits at most this long behind the rest of its
#: window.  Microsecond tasks still ack a whole window in one frame;
#: millisecond tasks ack one by one, and the coordinator's rate monitor
#: sees departures as they happen, not a window at a time
ACK_INTERVAL = 0.001


def resolve_fn(spec: str) -> Callable[[Any], Any]:
    """Import ``module:qualname`` and return the callable it names."""
    module_name, sep, qualname = spec.partition(":")
    if not sep or not module_name or not qualname:
        raise ValueError(f"fn spec must look like 'module:qualname', got {spec!r}")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not callable(obj):
        raise TypeError(f"{spec} resolved to non-callable {obj!r}")
    return obj


# ----------------------------------------------------------------------
# what a worker decides (no I/O)
# ----------------------------------------------------------------------
def greeting(
    kind: str, worker_id: int, offered: Sequence[str], completed: Optional[int] = None
) -> bytes:
    """The frame that opens a session: ``hello``, or ``reattach`` with
    the cumulative ``completed`` count a returning worker carries."""
    message = {
        "type": kind,
        "worker_id": worker_id,
        "proto": PROTOCOL_VERSION,
        "codecs": list(offered),
    }
    if completed is not None:
        message["completed"] = completed
    return encode_frame_v4(message)


def refusal_reason(stale: bool, require_secure: bool, secured: bool) -> Optional[str]:
    """Why a task frame is bounced rather than executed, or ``None``."""
    if stale:
        # this session belongs to a superseded coordinator incarnation:
        # never execute its work — single task or whole batch — tell it why
        return "stale epoch"
    if require_secure and not secured:
        # the worker-side half of the admission gate: bounce, never
        # execute, until the channel handshake is done
        return "security handshake required"
    return None


def refused_frame(items: List[dict], reason: str) -> bytes:
    ids = [it.get("task_id") for it in items]
    # a bounced batch names every id; a lone task keeps ``task_id``
    bounced = {"task_id": ids[0]} if len(ids) == 1 else {"task_ids": ids}
    return encode_frame_v4({"type": "refused", **bounced, "reason": reason})


def secured_frame(frame: dict) -> bytes:
    """The answer to a ``secure`` challenge: proof of the shared key."""
    proof = prove_challenge(str(frame.get("challenge", "")))
    return encode_frame_v4({"type": "secured", "proof": proof})


def iter_entries(
    fn: Callable[[Any], Any], items: List[dict], traced: bool, pid: int
) -> Iterator[dict]:
    """Execute one window in arrival order, a result entry at a time.

    On a ``traced`` frame each execution is stamped ``t = (start, end,
    pid)`` on its result entry (epoch seconds, the base the
    coordinator's WallClock uses) and the coordinator builds the
    ``task.exec`` span from that, under the dispatch span it already
    holds.  A secured frame's body was already decrypted by the frame
    reader.
    """
    for task_frame in items:
        task_id = task_frame.get("task_id")
        started = time.time()
        try:
            entry = {"task_id": task_id, "value": fn(task_frame["payload"])}
        except Exception as exc:  # noqa: BLE001 - surfaced as an error result
            entry = {"task_id": task_id, "error": f"{type(exc).__name__}: {exc}"}
        if traced:
            entry["t"] = (started, time.time(), pid)
        yield entry


def encode_results(entries: List[dict], completed: int, codec: str) -> bytes:
    """Result entries as wire bytes, batched when possible.

    Encoding is optimistic: if a batch refuses the session codec (one
    unserializable value), fall back to per-entry frames so only the
    offending task degrades to an error result.
    """
    if len(entries) > 1:
        try:
            return encode_frame_v4(
                {"type": "result_batch", "results": entries, "completed": completed},
                codec=codec,
            )
        except Exception:  # noqa: BLE001 - a value refused the codec
            pass
    frames = []
    for entry in entries:
        message = {"type": "result", **entry, "completed": completed}
        try:
            data = encode_frame_v4(message, codec=codec)
        except Exception as exc:  # noqa: BLE001 - unserializable value
            fallback = {
                "type": "result",
                "task_id": entry.get("task_id"),
                "error": f"{type(exc).__name__}: {exc}",
                "completed": completed,
            }
            if "t" in entry:  # the exec timing survives the fallback
                fallback["t"] = entry["t"]
            data = encode_frame_v4(fallback, codec=codec)
        frames.append(data)
    return b"".join(frames)


# ----------------------------------------------------------------------
# the one shell: a blocking session loop, and two ways to a socket
# ----------------------------------------------------------------------
class _Shell:
    """What a worker carries from one session to the next — its id, its
    cumulative ``completed``, the highest epoch it has served — and the
    loop that serves one session on a connected socket."""

    def __init__(
        self,
        fn: Callable[[Any], Any],
        *,
        worker_id: int,
        offered: Sequence[str],
        heartbeat_period: float,
        require_secure: bool,
        reconnects: bool,
    ) -> None:
        self.fn = fn
        self.worker_id = worker_id
        self.offered = tuple(offered)
        self.heartbeat_period = heartbeat_period
        self.require_secure = require_secure
        self.reconnects = reconnects  # EOF ends the session, not the process
        self.completed = 0
        self.max_epoch = -1  # highest coordinator epoch served
        self.attached = False  # whether a coordinator ever welcomed us

    def greeting(self) -> bytes:
        if self.attached:
            return greeting("reattach", self.worker_id, self.offered, self.completed)
        return greeting("hello", self.worker_id, self.offered)

    def _gone(self) -> str:
        """The coordinator vanished: nobody left to ack to.  The hard exit
        skips whatever a forked child inherited to run at exit, and does
        not wait for the tail of a long task."""
        if not self.reconnects:
            os._exit(1)
        return "eof"

    def _vet(self, welcome: dict, codec: str) -> Optional[str]:
        """Why this welcome ends the attachment, or ``None``."""
        if welcome.get("type") == "error":
            # the coordinator refused us (e.g. protocol-version mismatch,
            # no acceptable codec): surface its diagnosis
            return f"coordinator refused worker: {welcome.get('error', 'unknown error')}"
        if welcome.get("type") not in ("welcome", "takeover"):
            return "no welcome from the coordinator"
        if welcome.get("proto") != PROTOCOL_VERSION:
            return (
                f"protocol version mismatch: this worker speaks version "
                f"{PROTOCOL_VERSION}, the coordinator announced {welcome.get('proto')}"
            )
        if codec != "json" and codec not in self.offered:
            return (
                f"coordinator picked codec {codec!r}, which this "
                f"worker never offered (offered: {', '.join(self.offered)})"
            )
        return None

    def serve(self, sock: socket.socket, greet: bytes = b"") -> str:
        """Serve one session on ``sock`` and close it; returns how it
        ended: ``"poison"``, ``"refused"`` (reason on stderr) or — only
        when :attr:`reconnects` — ``"eof"``.

        ``greet`` opens the session unless the other end already holds
        this worker's greeting.  Each task frame's window runs inline, in
        arrival order, acked every :data:`ACK_INTERVAL`; ``secure`` and
        ``poison`` are answered in wire order, so a poison behind queued
        windows retires the worker only after every result is out.  A
        daemon thread beats independently of task execution — both write
        under one send lock — and is gone when this returns.
        """
        stop = threading.Event()
        send_lock = threading.Lock()

        def send(data: bytes) -> None:
            with send_lock:
                sock.sendall(data)

        def beat() -> None:
            while not stop.wait(self.heartbeat_period):
                try:
                    send(encode_frame_v4({"type": "hb", "completed": self.completed}))
                except OSError:
                    # mid-task this is how a dead coordinator is noticed;
                    # a surviving worker's reader meets the EOF itself
                    self._gone()
                    return

        heart = threading.Thread(target=beat, name="worker-hb", daemon=True)
        try:
            with sock, sock.makefile("rb") as rfile:
                send(greet)
                try:
                    welcome = read_frame_blocking(rfile, allowed=("json",)) or {}
                except ProtocolError:
                    welcome = {}
                # a welcome that names no codec means json
                codec = str(welcome.get("codec", "json"))
                problem = self._vet(welcome, codec)
                if problem is not None:
                    print(problem, file=sys.stderr)
                    return "refused"
                self.worker_id = int(welcome.get("worker_id", self.worker_id))
                self.attached = True
                epoch = int(welcome.get("epoch", 0))
                # sticky: a session announcing a lower epoch than one
                # already served is a superseded coordinator incarnation
                stale = epoch < self.max_epoch
                self.max_epoch = max(self.max_epoch, epoch)
                heart.start()
                try:
                    return self._pump(rfile, send, codec, stale)
                finally:
                    stop.set()
                    heart.join()
        except OSError:
            return self._gone()

    def _pump(
        self,
        rfile: Any,
        send: Callable[[bytes], None],
        codec: str,
        stale: bool,
    ) -> str:
        fn = self.fn
        # control frames travel as json, data frames as the session codec
        allowed = ("json", codec)
        pid = os.getpid()
        secured = False
        while True:
            try:
                frame = read_frame_blocking(rfile, allowed=allowed)
            except ProtocolError:
                frame = None  # a garbage stream reads like a dead one
            if frame is None:
                return self._gone()
            kind = frame.get("type")
            if kind in ("task", "task_batch"):
                items = frame["tasks"] if kind == "task_batch" else [frame]
                reason = refusal_reason(stale, self.require_secure, secured)
                if reason is not None:
                    send(refused_frame(items, reason))
                    continue
                entries: List[dict] = []
                acked = time.monotonic()
                for entry in iter_entries(fn, items, bool(frame.get("traced")), pid):
                    entries.append(entry)
                    if time.monotonic() - acked >= ACK_INTERVAL:
                        self.completed += len(entries)
                        send(encode_results(entries, self.completed, codec))
                        entries = []
                        acked = time.monotonic()
                if entries:
                    self.completed += len(entries)
                    send(encode_results(entries, self.completed, codec))
            elif kind == "secure":
                send(secured_frame(frame))
                secured = True
            elif kind == "poison":
                send(encode_frame_v4({"type": "bye", "completed": self.completed}))
                return "poison"


def _dial(
    host: str, port: int, attempts: int, backoff: float, backoff_cap: float
) -> socket.socket:
    """Open the coordinator connection, retrying with capped backoff."""
    delay = backoff
    for attempt in range(attempts):
        try:
            sock = socket.create_connection((host, port))
        except OSError:
            if attempt == attempts - 1:
                raise
            time.sleep(delay)
            delay = min(delay * 2.0, backoff_cap)
            continue
        # acks are small and latency is the point: without this, Nagle
        # and the peer's delayed ACK put 40 ms on every one of them
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock
    raise OSError("no connection attempt allowed")


def run_worker(
    host: str,
    port: int,
    fn: Callable[[Any], Any],
    *,
    worker_id: int = -1,
    heartbeat_period: float = 0.1,
    connect_attempts: int = 40,
    connect_backoff: float = 0.05,
    connect_backoff_cap: float = 2.0,
    require_secure: bool = False,
    reconnect_attempts: int = 0,
    codec: str = "auto",
) -> int:
    """Dial a coordinator and serve it until poisoned (returns 0),
    refused or out of redials (returns 1).  Blocks the calling thread.

    ``codec`` restricts the codec offer in the ``hello`` frame
    (``"auto"``: offer everything this interpreter can speak); the
    coordinator picks the session codec and announces it in ``welcome``.

    With ``require_secure`` the worker enforces the admission gate on
    its *own* side of the wire: any task frame arriving before the
    ``secure`` handshake completes is bounced with a ``refused`` frame,
    never executed — so even a hand-rolled client speaking the raw
    protocol cannot push work onto an unsecured channel.

    With ``reconnect_attempts > 0`` the worker *survives* losing its
    coordinator: on EOF it drops the session (the coordinator's journal
    replays what was in flight), redials with capped exponential backoff
    and announces itself with a ``reattach`` frame carrying the id it
    was already assigned.  A promoted standby answers ``takeover`` and
    the worker keeps serving under the new epoch.  The highest epoch
    ever seen is sticky: a session announcing a *lower* epoch is a stale
    predecessor, and every task frame it sends — single or batch — is
    bounced with a ``refused``/``stale epoch`` frame rather than
    executed; at most one coordinator incarnation can get work out of
    this worker.

    With ``reconnect_attempts <= 0`` (the default) EOF hard-exits the
    process with status 1: there is nobody to ack to.  Mid-task it is
    the heartbeat's failed write that notices, within two periods.
    """
    shell = _Shell(
        fn,
        worker_id=worker_id,
        offered=available_codecs() if codec == "auto" else (codec,),
        heartbeat_period=heartbeat_period,
        require_secure=require_secure,
        reconnects=reconnect_attempts > 0,
    )
    while True:
        try:
            sock = _dial(
                host,
                port,
                reconnect_attempts if shell.attached else connect_attempts,
                connect_backoff,
                connect_backoff_cap,
            )
        except OSError:
            # (re)dial exhausted: the coordinator never came (back)
            return 1
        outcome = shell.serve(sock, shell.greeting())
        if outcome != "eof":
            return 0 if outcome == "poison" else 1
        # "eof" with reconnect enabled: redial the same port — the
        # standby coordinator rebinds it on promotion


def serve_forked(
    sock: socket.socket,
    coordinator_end: socket.socket,
    fn: Callable[[Any], Any],
    heartbeat_period: float,
    require_secure: bool = False,
) -> None:
    """Serve the one session of a child a
    :class:`~repro.runtime.process_farm.ProcessFarm` forked, on the end
    of a socketpair it was born holding.

    The forking coordinator has already written this worker's ``hello``
    (it knows the id it forked, and offers pickle for it), so the
    session starts at the ``welcome``.  There is no reattach: EOF (or a
    write into a dead socket) is the coordinator gone, and the process
    hard-exits.
    """
    # this process's copy of the coordinator's end: while it is open, a
    # dead coordinator would not read as EOF here
    coordinator_end.close()
    shell = _Shell(
        fn,
        worker_id=-1,  # the welcome names it
        offered=("pickle",),
        heartbeat_period=heartbeat_period,
        require_secure=require_secure,
        reconnects=False,
    )
    if shell.serve(sock) != "poison":
        sys.exit(1)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.dist_worker",
        description="attach one task-farm worker to a DistFarm coordinator",
    )
    parser.add_argument("--host", required=True, help="coordinator host")
    parser.add_argument("--port", type=int, required=True, help="coordinator port")
    parser.add_argument(
        "--fn", required=True, metavar="MODULE:QUALNAME",
        help="importable task function this worker executes",
    )
    parser.add_argument(
        "--worker-id", type=int, default=-1,
        help="id assigned by a spawning coordinator (-1: ask for one)",
    )
    parser.add_argument("--heartbeat-period", type=float, default=0.1)
    parser.add_argument("--connect-attempts", type=int, default=40)
    parser.add_argument("--connect-backoff", type=float, default=0.05)
    parser.add_argument(
        "--codec", default="auto", choices=("auto", *available_codecs()),
        help="payload codec(s) to offer at hello (auto: everything this "
        "interpreter can speak; the coordinator picks the session codec)",
    )
    parser.add_argument(
        "--require-secure", action="store_true",
        help="refuse task frames until the secure-channel handshake completes",
    )
    parser.add_argument(
        "--reconnect-attempts", type=int, default=0,
        help="redials after losing the coordinator (0: exit on EOF, the "
        "pre-v3 behaviour); each redial backs off exponentially, capped",
    )
    args = parser.parse_args(argv)

    fn = resolve_fn(args.fn)
    try:
        return run_worker(
            args.host,
            args.port,
            fn,
            worker_id=args.worker_id,
            heartbeat_period=args.heartbeat_period,
            connect_attempts=args.connect_attempts,
            connect_backoff=args.connect_backoff,
            require_secure=args.require_secure,
            reconnect_attempts=args.reconnect_attempts,
            codec=args.codec,
        )
    except (OSError, KeyboardInterrupt):
        return 1


if __name__ == "__main__":
    sys.exit(main())
