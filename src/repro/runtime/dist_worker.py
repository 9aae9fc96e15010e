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
multi-task ``task_batch`` frames executed in arrival order with results
accumulated and acked in ``result_batch`` frames — flushed whenever the
input queue drains or enough results pile up, so a busy worker amortises
acks without ever sitting on a finished result while idle.

What a worker *decides* — how a task is executed and stamped
(:func:`iter_entries`), how results degrade from a batch to per-entry
frames to an error (:func:`encode_results`), when a task is bounced and
how (:func:`refusal_reason`, :func:`refused_frame`), the handshake proof
(:func:`secured_frame`) — is plain functions, under two thin shells:

* :func:`run_worker`, one asyncio loop for a worker that *dials* a
  coordinator over TCP (three coroutines, below) and may outlive it;
* :func:`serve_forked`, a blocking loop for a child a
  :class:`~repro.runtime.process_farm.ProcessFarm` forked with one end of
  a socketpair already in hand — no loop to start, no executor hop.

The asyncio shell's coroutines:

* **reader** — drains frames into an in-order queue; EOF means the
  coordinator is gone.  By default the worker exits immediately (nobody
  left to ack to; in-flight work is replayed anyway), but with
  ``--reconnect-attempts N`` it instead redials with capped backoff and
  ``reattach``-es to whatever coordinator — typically a promoted
  standby — rebinds the port, refusing task frames from any session
  announcing an epoch older than the newest it has served.
* **executor** — pulls tasks from the queue and runs the (blocking)
  task function on a single-thread executor, so a long CPU/sleep task
  never stalls the loop; a ``poison`` frame queues *behind* earlier
  tasks, which is what makes coordinator-driven retirement graceful.
* **heartbeat** — beats every ``--heartbeat-period`` independently of
  task execution: only real death (or a wedged interpreter) silences a
  worker.

Connection establishment retries with capped exponential backoff
(``--connect-attempts`` / ``--connect-backoff``), so workers can be
launched *before* the coordinator finishes binding its port.
"""

from __future__ import annotations

import argparse
import asyncio
import concurrent.futures
import importlib
import os
import socket
import sys
import threading
import time
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from .dist_proto import (
    PROTOCOL_VERSION,
    ProtocolError,
    available_codecs,
    encode_frame_v4,
    prove_challenge,
    read_frame,
    read_frame_blocking,
)

__all__ = ["resolve_fn", "run_worker", "serve_forked", "greeting", "main"]

#: flush accumulated results once this many pile up even if the input
#: queue never drains — bounds ack latency under a sustained stream
RESULT_FLUSH = 32

#: the blocking shell runs a window inline, so it bounds ack latency by
#: time: a finished result waits at most this long behind the rest of its
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
# what a worker decides (no I/O): both shells call these
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


def run_entries(
    fn: Callable[[Any], Any], items: List[dict], traced: bool, pid: int
) -> List[dict]:
    """:func:`iter_entries`, to the end (what a pool thread is handed)."""
    return list(iter_entries(fn, items, traced, pid))


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
# the asyncio shell: a worker that dials its coordinator
# ----------------------------------------------------------------------
async def _connect(
    host: str, port: int, attempts: int, backoff: float, backoff_cap: float
) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Open the coordinator connection, retrying with capped backoff."""
    delay = backoff
    for attempt in range(attempts):
        try:
            return await asyncio.open_connection(host, port)
        except OSError:
            if attempt == attempts - 1:
                raise
            await asyncio.sleep(delay)
            delay = min(delay * 2.0, backoff_cap)
    raise OSError("unreachable")  # pragma: no cover - loop always returns/raises


async def run_worker(
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
    """Run one worker until poisoned (returns 0) or orphaned.

    ``codec`` restricts the codec offer in the ``hello`` frame
    (``"auto"``: offer everything this interpreter can speak); the
    coordinator picks the session codec and announces it in ``welcome``.

    With ``require_secure`` the worker enforces the admission gate on
    its *own* side of the wire: any task frame arriving before the
    ``secure`` handshake completes is bounced with a ``refused`` frame,
    never executed — so even a hand-rolled client speaking the raw
    protocol cannot push work onto an unsecured channel.

    With ``reconnect_attempts > 0`` the worker *survives* losing its
    coordinator: on EOF it drops in-flight state (the coordinator's
    journal replays those tasks anyway), redials with capped exponential
    backoff and announces itself with a ``reattach`` frame carrying the
    id it was already assigned.  A promoted standby answers ``takeover``
    and the worker keeps serving under the new epoch.  The highest epoch
    ever seen is sticky: a session announcing a *lower* epoch is a stale
    predecessor, and every task frame it sends — single or batch — is
    bounced with a ``refused``/``stale epoch`` frame rather than
    executed; at most one coordinator incarnation can get work out of
    this worker.

    With ``reconnect_attempts <= 0`` (the default and the pre-v3
    behaviour) EOF hard-exits the process: there is nobody to ack to,
    and the hard exit guarantees no non-daemon executor thread keeps an
    orphan alive for the tail of a long task.
    """
    loop = asyncio.get_running_loop()
    pool = concurrent.futures.ThreadPoolExecutor(
        max_workers=1, thread_name_prefix=f"dworker-{worker_id}"
    )
    completed = 0
    max_epoch = -1  # highest coordinator epoch this worker has served
    attached = False  # whether a coordinator ever assigned us an id
    offered = available_codecs() if codec == "auto" else (codec,)

    async def session() -> str:
        """One coordinator attachment; returns how it ended."""
        nonlocal worker_id, completed, max_epoch, attached
        reader, writer = await _connect(
            host,
            port,
            reconnect_attempts if attached else connect_attempts,
            connect_backoff,
            connect_backoff_cap,
        )
        if attached:
            writer.write(greeting("reattach", worker_id, offered, completed))
        else:
            writer.write(greeting("hello", worker_id, offered))
        try:
            welcome = await read_frame(reader, allowed=("json",)) or {}
        except ProtocolError:
            welcome = {}
        session_codec = str(welcome.get("codec", "json"))
        problem = None  # why this attachment ends here, for stderr
        if welcome.get("type") == "error":
            # the coordinator refused us (e.g. protocol-version
            # mismatch, no acceptable codec): surface its diagnosis
            # instead of dying silently
            problem = f"coordinator refused worker: {welcome.get('error', 'unknown error')}"
        elif welcome.get("type") not in ("welcome", "takeover"):
            problem = "no welcome from the coordinator"
        elif welcome.get("proto") != PROTOCOL_VERSION:
            problem = (
                f"protocol version mismatch: this worker speaks version "
                f"{PROTOCOL_VERSION}, the coordinator announced {welcome.get('proto')}"
            )
        elif session_codec != "json" and session_codec not in offered:
            problem = (
                f"coordinator picked codec {session_codec!r}, which this "
                f"worker never offered (offered: {', '.join(offered)})"
            )
        if problem is not None:
            print(problem, file=sys.stderr)
            writer.close()
            return "refused"
        worker_id = int(welcome.get("worker_id", worker_id))
        attached = True
        epoch = int(welcome.get("epoch", 0))
        stale = max_epoch >= 0 and epoch < max_epoch
        max_epoch = max(max_epoch, epoch)

        # queue items: ([task entries], traced) batches, or None (poison)
        tasks: "asyncio.Queue[Optional[Tuple[List[dict], bool]]]" = asyncio.Queue()
        pid = os.getpid()
        secured = False
        out_buf: List[dict] = []

        def send(data: bytes) -> None:
            try:
                writer.write(data)
            except Exception:  # noqa: BLE001 - connection died under us
                pass

        def flush_results() -> None:
            if out_buf:
                send(encode_results(out_buf, completed, session_codec))
                out_buf.clear()

        async def reader_loop() -> str:
            nonlocal secured
            while True:
                try:
                    frame = await read_frame(reader, allowed=("json", session_codec))
                except ProtocolError:
                    # a malformed/torn frame means the coordinator-side
                    # stream is garbage; treat it exactly like EOF
                    frame = None
                if frame is None:
                    # the coordinator vanished mid-connection
                    if reconnect_attempts <= 0:
                        os._exit(1)
                    return "eof"
                kind = frame.get("type")
                if kind in ("task", "task_batch"):
                    items = frame["tasks"] if kind == "task_batch" else [frame]
                    reason = refusal_reason(stale, require_secure, secured)
                    if reason is not None:
                        send(refused_frame(items, reason))
                        continue
                    await tasks.put((items, bool(frame.get("traced"))))
                elif kind == "secure":
                    send(secured_frame(frame))
                    secured = True
                elif kind == "poison":
                    await tasks.put(None)
                    return "poison"

        async def executor_loop() -> None:
            nonlocal completed
            while True:
                item = await tasks.get()
                if item is None:
                    flush_results()
                    send(encode_frame_v4({"type": "bye", "completed": completed}))
                    await writer.drain()
                    return
                items, traced = item
                # one executor hop for the whole batch: the per-task
                # submit/wakeup round trip through the pool was the
                # dominant worker-side cost for cheap tasks, and the
                # event loop stays free for heartbeats either way
                entries = await loop.run_in_executor(
                    pool, run_entries, fn, items, traced, pid
                )
                completed += len(entries)
                out_buf.extend(entries)
                if len(out_buf) >= RESULT_FLUSH or tasks.empty():
                    # idle (or the queue drained): never sit on results
                    flush_results()

        async def heartbeat_loop() -> None:
            while True:
                await asyncio.sleep(heartbeat_period)
                send(encode_frame_v4({"type": "hb", "completed": completed}))

        t_reader = asyncio.ensure_future(reader_loop())
        t_exec = asyncio.ensure_future(executor_loop())
        t_hb = asyncio.ensure_future(heartbeat_loop())
        done, _ = await asyncio.wait(
            {t_reader, t_exec}, return_when=asyncio.FIRST_COMPLETED
        )
        outcome = "eof"
        try:
            if t_reader in done:
                outcome = t_reader.result()
                if outcome == "poison":
                    # let already-queued tasks finish, then bye
                    await t_exec
            else:
                # executor finished first: only happens after poison
                outcome = "poison"
        finally:
            for task in (t_reader, t_exec, t_hb):
                task.cancel()
            await asyncio.gather(t_reader, t_exec, t_hb, return_exceptions=True)
            try:
                writer.close()
            except Exception:  # noqa: BLE001
                pass
        return outcome

    try:
        while True:
            try:
                outcome = await session()
            except OSError:
                # redial exhausted: the coordinator never came back
                return 1
            if outcome == "poison":
                return 0
            if outcome == "refused":
                return 1
            # "eof" with reconnect enabled: in-flight frames are dropped
            # (the journal replays them) and we redial the same port —
            # the standby coordinator rebinds it on promotion
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


# ----------------------------------------------------------------------
# the blocking shell: a child its coordinator forked
# ----------------------------------------------------------------------
def serve_forked(
    sock: socket.socket,
    coordinator_end: socket.socket,
    fn: Callable[[Any], Any],
    heartbeat_period: float,
    require_secure: bool = False,
) -> None:
    """Serve one v4 session on ``sock`` until poisoned; the child body
    of a :class:`~repro.runtime.process_farm.ProcessFarm` worker.

    The forking coordinator has already written this worker's ``hello``
    (it knows the id it forked), so the first frame read here is the
    ``welcome``.  Each task frame's window runs inline, in arrival
    order, acked every :data:`ACK_INTERVAL`; a daemon thread beats
    independently of task execution, so a worker crunching one long
    CPU-bound task is still visibly alive — both write under one send
    lock.  There is no reattach: EOF (or any write into a dead socket)
    is the coordinator gone, and the process hard-exits.
    """
    # this process's copy of the coordinator's end: while it is open, a
    # dead coordinator would not read as EOF here
    coordinator_end.close()
    rfile = sock.makefile("rb")
    send_lock = threading.Lock()
    completed = 0

    def recv(allowed: Tuple[str, ...]) -> dict:
        try:
            frame = read_frame_blocking(rfile, allowed=allowed)
        except ProtocolError:
            frame = None  # a garbage stream reads like a dead one
        if frame is None:
            os._exit(1)
        return frame

    def send(data: bytes) -> None:
        try:
            with send_lock:
                sock.sendall(data)
        except OSError:
            os._exit(1)

    def beat() -> None:
        while True:
            time.sleep(heartbeat_period)
            send(encode_frame_v4({"type": "hb", "completed": completed}))

    # the coordinator is this process's own image, a moment older: its
    # welcome needs no vetting, only reading
    codec = str(recv(("json",))["codec"])
    pid = os.getpid()
    secured = False
    threading.Thread(target=beat, name="worker-hb", daemon=True).start()
    while True:
        frame = recv(("json", codec))
        kind = frame.get("type")
        if kind in ("task", "task_batch"):
            items = frame["tasks"] if kind == "task_batch" else [frame]
            # a forked worker serves one coordinator, one epoch: never stale
            reason = refusal_reason(False, require_secure, secured)
            if reason is not None:
                send(refused_frame(items, reason))
                continue
            entries: List[dict] = []
            acked = time.monotonic()
            for entry in iter_entries(fn, items, bool(frame.get("traced")), pid):
                entries.append(entry)
                completed += 1
                if time.monotonic() - acked >= ACK_INTERVAL:
                    send(encode_results(entries, completed, codec))
                    entries = []
                    acked = time.monotonic()
            if entries:
                send(encode_results(entries, completed, codec))
        elif kind == "secure":
            send(secured_frame(frame))
            secured = True
        elif kind == "poison":
            send(encode_frame_v4({"type": "bye", "completed": completed}))
            return


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
        return asyncio.run(
            run_worker(
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
        )
    except (OSError, KeyboardInterrupt):
        return 1


if __name__ == "__main__":
    sys.exit(main())
