"""Stream-coordinated task farms: one asyncio coordinator, v4 frames, worker processes.

The coordinator here is written against a *stream* — an asyncio
``(StreamReader, StreamWriter)`` pair carrying the binary batched
protocol of :mod:`.dist_proto` (struct-packed frame headers, a payload
codec negotiated per worker at ``hello``, multi-task
``task_batch``/``result_batch`` frames) — and does not care how a worker
came to hold the other end.  There are two ways, and one farm for each:

* :class:`DistFarm` (this module) binds a TCP port and spawns workers
  through ``python -m repro.runtime.dist_worker``, which dial it — and
  since that entry point is just a CLI, extra workers can be attached by
  hand from any host that can reach ``host:port``.  The first substrate
  with a real *network* boundary between manager and managed, which is
  the platform shape the paper's behavioural skeletons actually target
  (GCM/ProActive components steered across a grid).
* :class:`~repro.runtime.process_farm.ProcessFarm` forks each worker
  with one end of a ``socket.socketpair()`` and hands the other to the
  loop; it binds nothing.

Everything else — :class:`_StreamFarm` — is shared.  Fault tolerance is
:class:`~repro.runtime.farm_core.FarmCore`'s; the stream coordinator
decides only *when* a worker is lost:

* every dispatched task is tracked until its result frame returns;
* workers are declared dead on connection EOF, on heartbeat silence
  beyond ``heartbeat_timeout``, or when their local process exits;
* a dead worker's un-acked tasks are *replayed* with capped exponential
  backoff (at-least-once), deduplicated by task id on the way out
  (exactly-once results), and parked in ``dead_letters`` after
  ``max_attempts`` dispatches;
* lost *capacity* is restored by the ordinary ``CheckRateLow`` rule
  through :class:`~repro.runtime.controller.FarmController` — recovery
  is contract enforcement, exactly as §2 frames it.

Dispatch is *windowed*: each worker holds at most ``max_inflight``
un-acked tasks; everything else waits in a coordinator-side ready queue
and flows to whichever worker frees a slot first.  That keeps the
replay set per crash small, makes queue lengths self-balancing (so
``balance_load`` has genuinely nothing to move), and gives backpressure
a single obvious place to live.

Threading model: one asyncio loop in a daemon thread owns every socket;
the synchronous :class:`~repro.runtime.backend.FarmBackend` surface is
called from other threads and communicates with the loop only through
``call_soon_threadsafe``.  Shared bookkeeping sits behind one re-entrant
lock, held only for short, non-blocking sections.  The hops are charged
per frame, not per task: ``submit`` tracks, queues and claims the one
pending fill pass in a single hold of the lock (the loop is called only
when no pass is pending); a result frame is completed in one pass under
one hold and handed to the draining thread with one ``put_many``, which
``drain_results`` takes in one acquisition of the queue's mutex.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import threading
import time
import queue
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..obs.rows import DispatchRow, ExecRow
from ..obs.telemetry import Telemetry
from .dist_proto import (
    PROTOCOL_VERSION,
    ProtocolError,
    encode_frame_v4,
    make_challenge,
    negotiate_codec,
    read_frame,
    refuse_hello,
    verify_proof,
)
from .farm_core import FarmCore, TaskRecord

__all__ = ["DistFarm", "DistWorkerHandle", "fn_spec"]

#: what handling a peer's frame may raise when the frame parses but has
#: the wrong shape (a ``result`` without ``task_id``, ``results: "xx"``,
#: ``completed: "x"``, ``worker_id: "abc"``, ``completed: Infinity``):
#: the connection loop treats all of it as one peer fault
_PEER_FAULT = (
    ProtocolError, KeyError, TypeError, ValueError, AttributeError, OverflowError
)

_POISON = encode_frame_v4({"type": "poison"})

#: a wait for a worker's session to open is woken by ``_connected``; it
#: times out this often only to re-check that the worker is still alive
_RECHECK = 0.05


def fn_spec(fn: Any) -> str:
    """Derive the ``module:qualname`` spec a worker process can import.

    The task function crosses a process (and potentially host) boundary
    by *name*, never by value — the same constraint multiprocessing's
    ``spawn`` start method imposes, made explicit.
    """
    if isinstance(fn, str):
        if ":" not in fn:
            raise ValueError(f"fn spec must look like 'module:qualname', got {fn!r}")
        return fn
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname:
        raise ValueError(f"cannot derive an import spec for {fn!r}")
    if module == "__main__" or "<locals>" in qualname:
        raise ValueError(
            f"DistFarm task functions must be importable module-level callables "
            f"(got {module}:{qualname}); move the function into a module"
        )
    return f"{module}:{qualname}"


class _ResultBus(queue.Queue):
    """A ``queue.Queue`` that can deliver a whole result batch at once.

    ``put`` wakes the consumer (and trades the GIL) once *per item*; on
    the batched wire a single ``result_batch`` frame carries dozens of
    results, and that per-item handoff storm between the loop thread
    and the draining caller was a measurable share of the transport
    cost.  ``put_many`` appends the batch under one lock acquisition
    and one wakeup.  Items are still individual results — only the
    producer-side granularity changes.
    """

    def put_many(self, items: List[Any]) -> None:
        if not items:
            return
        with self.mutex:
            self.queue.extend(items)
            self.unfinished_tasks += len(items)
            self.not_empty.notify(len(items))


@dataclass
class DistWorkerHandle:
    """Coordinator-side view of one worker (spawned, forked or attached)."""

    worker_id: int
    #: local child process (a ``Popen`` the DistFarm spawned, a
    #: ``multiprocessing.Process`` the ProcessFarm forked), or None for
    #: a remotely attached worker
    process: Any = None
    writer: Optional[asyncio.StreamWriter] = None
    #: the task serving a stream the coordinator opened itself (a forked
    #: worker's); held here because the loop holds tasks only weakly
    session: Any = None
    connected: bool = False
    ever_connected: bool = False
    secured: bool = False
    quarantined: bool = False
    active: bool = True
    retiring: bool = False
    got_bye: bool = False
    spawned_at: float = 0.0
    last_seen: float = 0.0
    #: payload codec negotiated at hello for this session's data frames
    codec: str = "json"
    reported_completed: int = 0
    dispatched: int = 0
    #: un-acked task id -> the dispatch attempt it went out under (None
    #: untraced): a result is matched to *this worker's* attempt,
    #: however late it arrives and whatever the task has done since
    outstanding: Dict[int, Optional[DispatchRow]] = field(default_factory=dict)
    span: Any = None  # detached dist.worker telemetry span
    completed_gauge: Any = None  # this worker's bound completed-tasks gauge
    #: in-flight secure handshake state (challenge sent, waiter to wake)
    secure_challenge: Optional[str] = None
    secure_waiter: Optional[threading.Event] = None
    #: the actor of the ``task.exec`` spans this worker's results stamp
    exec_actor: str = field(init=False)

    def __post_init__(self) -> None:
        self.exec_actor = f"dworker-{self.worker_id}"

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None


class _StreamFarm(FarmCore):
    """The coordinator of a farm whose workers sit at the far end of a stream.

    The transport is the v4 wire: a central ready queue feeding bounded
    per-worker windows (``_fill``), result batches and heartbeats read
    off each connection, the secure handshake, retirement by ``poison``.
    A farm supplies what differs with how a worker is come by: whether a
    listening socket is bound (:meth:`_bind`), how a worker is started
    (``add_worker``) and how its local process is asked whether it has
    exited, and reaped (:meth:`_reap`) — cold paths all.
    """

    #: ``add_worker`` accepts ``require_secure=True``, starting workers
    #: that enforce the admission gate on their own side of the wire
    #: (coordinators without the capability simply rely on quarantine)
    SUPPORTS_REQUIRE_SECURE = True

    _METRICS = "repro_dist"
    _ACKS = "result frames"
    #: a spawned worker that never manages to connect within this budget
    #: is declared dead (interpreter start + imports happen in here, so
    #: it is deliberately generous)
    CONNECT_GRACE = 15.0
    #: backpressure threshold: a worker whose socket write buffer exceeds
    #: this is skipped by dispatch until it drains (the supervisor tick
    #: and every ack re-run the fill pass)
    MAX_BUFFERED_BYTES = 256 * 1024

    def __init__(
        self,
        name: str,
        *,
        heartbeat_period: float,
        heartbeat_timeout: float,
        supervise_period: float,
        max_inflight: int,
        batch_size: int,
        codec: str,
        epoch: int = 0,
        **core: Any,
    ) -> None:
        super().__init__(name, **core)
        self.codec = codec
        self.batch_size = batch_size
        self._fill_scheduled = False
        self.heartbeat_period = heartbeat_period
        self.heartbeat_timeout = heartbeat_timeout
        self.supervise_period = supervise_period
        self.max_inflight = max_inflight
        # data-path instruments, bound once like the core's dispatch pair
        metrics = self.telemetry.metrics
        self._batched_tasks_total = metrics.counter(
            "repro_dist_batched_tasks_total",
            "tasks dispatched inside multi-task batch frames",
        ).labels(farm=name)
        frames = metrics.counter("repro_dist_frames_total", "protocol frames exchanged")
        self._frames_tx = frames.labels(farm=name, direction="tx")
        self._frames_rx = frames.labels(farm=name, direction="rx")
        self.epoch = epoch

        self.results: "_ResultBus" = _ResultBus()
        self._ready: "deque[int]" = deque()
        self._ready_set: Set[int] = set()
        #: notified (under the farm lock) whenever a worker's session opens
        self._connected = threading.Condition(self._lock)

        self._shutdown = threading.Event()
        self._server: Optional[asyncio.AbstractServer] = None
        self._supervisor_task: Optional[asyncio.Task] = None
        self.port: int = 0  # stays 0 on a farm that binds nothing

        self._loop = asyncio.new_event_loop()
        self._loop_ready = threading.Event()
        self._loop_thread = threading.Thread(
            target=self._loop_main, name=f"{name}-loop", daemon=True
        )

    def _start_loop(self, timeout: float) -> None:
        """Start the coordinator thread; returns once it is serving."""
        self._loop_thread.start()
        if not self._loop_ready.wait(timeout):
            raise RuntimeError("coordinator event loop failed to start")

    # ------------------------------------------------------------------
    # what a farm supplies
    # ------------------------------------------------------------------
    async def _bind(self) -> None:
        """Open the listening socket, on a farm whose workers dial in."""

    @staticmethod
    def _reap(process: Any, timeout: float) -> bool:
        """Wait up to ``timeout`` (0: just look) for this local worker
        process to exit, reaping it; True if it has."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # event-loop thread
    # ------------------------------------------------------------------
    def _loop_main(self) -> None:
        asyncio.set_event_loop(self._loop)

        async def boot() -> None:
            await self._bind()
            self._supervisor_task = self._loop.create_task(self._supervise_coro())

        self._loop.run_until_complete(boot())
        self._loop_ready.set()
        self._loop.run_forever()
        try:
            self._loop.run_until_complete(self._finalize())
        finally:
            self._loop.close()

    async def _finalize(self) -> None:
        """Post-``loop.stop()`` cleanup: no socket survives shutdown."""
        if self._server is not None:
            self._server.close()
        with self._lock:
            writers = [w.writer for w in self.workers if w.writer is not None]
        for writer in writers:
            try:
                writer.transport.abort()
            except Exception:  # noqa: BLE001
                pass
        pending = [
            t for t in asyncio.all_tasks(self._loop) if t is not asyncio.current_task()
        ]
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)
        # the cancelled supervisor keeps its last frame, and that frame this
        # farm: let go, so a dead farm is freed at once and not by the next
        # full collection
        self._supervisor_task = None

    async def _on_connection(self, reader, writer) -> None:
        """One connected worker: handshake, then pump its frames."""
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            # teardown (crash/shutdown) cancelled this handler mid-read;
            # swallowing the cancellation keeps 3.11's streams done-
            # callback from logging it as an unhandled task exception
            return

    async def _serve_connection(self, reader, writer) -> None:
        try:
            # the greeting travels as codec 0 (json)
            hello = await read_frame(reader, allowed=("json",))
            handle, reply = self._admit(hello, writer)
        except _PEER_FAULT:
            # a violation before identification is just a bad client: it
            # has no window to replay, and one that did not open with a
            # v4 frame could not read an ``error`` frame either
            handle, reply = None, b""
        writer.write(reply)
        if handle is None:
            try:
                await writer.drain()  # a refusal reaches the peer, then EOF
            except (ConnectionError, OSError):
                pass
            writer.close()
            return
        self._frames_tx.inc()
        # after negotiation the connection may only carry json (control
        # frames) and the session codec; anything else is a violation
        allowed = ("json", handle.codec)
        while True:
            try:
                frame = await read_frame(reader, allowed=allowed)
                if frame is None:
                    break
                self._frames_rx.inc()
                self._handle_message(handle, frame)
            except _PEER_FAULT:
                # torn batch, oversized length, codec smuggling, or a
                # well-framed message of the wrong shape: the peer is
                # faulty — disconnect, declare dead, replay its window
                # elsewhere.  Never wait it out.
                self._count(
                    "protocol_errors_total",
                    "connections dropped for wire-protocol violations",
                )
                break
        writer.close()
        self._on_disconnect(handle)

    def _admit(
        self, hello: Optional[dict], writer
    ) -> Tuple[Optional[DistWorkerHandle], bytes]:
        """Decide one greeting (loop thread, no I/O): ``(handle, reply)``.

        A refused peer has no handle, and ``reply`` is what it is owed
        before the hang-up (an ``error`` frame, or nothing).  Every
        field of the greeting is parsed before any farm state changes,
        so one of the wrong shape raises out with nothing registered.
        """
        refusal = refuse_hello(hello, role="coordinator", kinds=("hello", "reattach"))
        if refusal is not None:
            return None, refusal
        claimed = int(hello.get("worker_id", -1))
        peer_completed = int(hello.get("completed", 0))
        with self._lock:
            handle = self._find_worker(claimed) if claimed >= 0 else None
            try:
                codec = negotiate_codec(
                    hello.get("codecs") or ["json"],
                    # pickle is only negotiated with workers whose
                    # *process* this coordinator owns (spawned or
                    # adopted); a remote attacher negotiates down the
                    # safe list
                    trusted=handle is not None and handle.process is not None,
                    allowed=self.codec,
                )
            except ProtocolError as exc:
                return None, encode_frame_v4(
                    {"type": "error", "error": str(exc), "proto": PROTOCOL_VERSION}
                )
            reattaching = (
                hello.get("type") == "reattach"
                and handle is not None
                and handle.active
                and not handle.connected
            )
            if reattaching:
                # a worker that outlived its previous coordinator:
                # reactivate its registration instead of allocating a
                # fresh identity.  Channel trust does not survive the
                # crash — the secure handshake must be redone — and any
                # outstanding attempts recorded against the old life are
                # replayed rather than waited for.
                handle.retiring = False
                handle.got_bye = False
                handle.secured = False
                handle.reported_completed = max(
                    handle.reported_completed, peer_completed
                )
                now = self.now()
                for task_id in sorted(handle.outstanding):
                    record = self._tasks.get(task_id)
                    if record is not None:
                        self._attempt_failed(
                            record, handle.worker_id, "redispatched", now
                        )
                handle.outstanding.clear()
            elif handle is None or handle.connected or not handle.active:
                # remotely attached (or stale-id) worker: register fresh
                try:
                    self._require_slot()
                except RuntimeError:
                    return None, b""
                handle = self._register_worker(self._next_id, process=None)
            handle.writer = writer
            handle.connected = True
            handle.ever_connected = True
            handle.last_seen = self.now()
            handle.codec = codec
            retiring = handle.retiring
            self._connected.notify_all()
        reply = encode_frame_v4(
            {
                "type": "takeover" if reattaching else "welcome",
                "worker_id": handle.worker_id,
                "proto": PROTOCOL_VERSION,
                "epoch": self.epoch,
                "codec": codec,
            }
        )
        if reattaching:
            self._count(
                "reattach_total", "workers reattached after a coordinator failover"
            )
        # ready tasks may have been waiting for this worker to appear; the
        # pass runs after the caller has written the reply
        self._request_fill()
        if retiring or self._shutdown.is_set():
            # retired (or farm torn down) before it finished connecting
            reply += _POISON
        return handle, reply

    def _on_disconnect(self, handle: DistWorkerHandle) -> None:
        with self._lock:
            handle.connected = False
            handle.writer = None
            if not handle.active:
                return
            if handle.retiring and handle.got_bye and not handle.outstanding:
                handle.active = False  # clean retirement, nothing to replay
                self._end_worker_span(handle, outcome="retired")
            else:
                self._worker_lost(handle, self.now())
        self._request_fill()

    # ------------------------------------------------------------------
    # message handling (runs in the loop thread)
    # ------------------------------------------------------------------
    def _handle_message(self, handle: DistWorkerHandle, frame: dict) -> None:
        kind = frame.get("type")
        if kind == "secured":
            self._handle_secured(handle, frame)
            return
        if kind == "refused":
            self._handle_refused(handle, frame)
            return
        if kind in ("result", "result_batch"):
            # a result_batch acks a whole window in one frame; a lone
            # result frame is just a batch of one
            entries = frame["results"] if kind == "result_batch" else (frame,)
            deliver: List[Any] = []
            try:
                with self._lock:
                    now = self.now()
                    handle.last_seen = now
                    self._note_worker_counter(handle, int(frame.get("completed", 0)))
                    self._complete(
                        now,
                        (self._absorb_result(handle, entry) for entry in entries),
                        deliver,
                    )
            finally:
                # an entry of the wrong shape ends the session (the
                # caller's peer-fault path), but the entries absorbed
                # before it are completed and must still be delivered
                self.results.put_many(deliver)
            self._fill()  # freed slots may unblock the ready queue
            return
        with self._lock:
            handle.last_seen = self.now()
            if kind == "bye":
                handle.got_bye = True
            if kind in ("hb", "bye"):
                self._note_worker_counter(handle, int(frame.get("completed", 0)))

    def _absorb_result(
        self, handle: DistWorkerHandle, entry: dict
    ) -> Tuple[int, Any, bool]:
        """Read one result entry off ``handle``'s window (lock held).

        Returns the ``(task_id, result, failed)`` that :meth:`_complete`
        accounts — and drops if the task has already completed: the
        at-least-once replay that also finished on its original worker,
        including duplicates *inside* one replayed batch.
        """
        task_id = int(entry["task_id"])
        dispatch = handle.outstanding.pop(task_id, None)
        if self.telemetry.enabled:
            # record the worker-side exec span even for a duplicate
            # result: both executions of an at-least-once replay
            # belong in the task's one trace tree
            self._record_exec(handle, dispatch, entry)
        if "error" in entry:
            return task_id, RuntimeError(entry["error"]), True
        return task_id, entry.get("value"), False

    def _record_exec(
        self, handle: DistWorkerHandle, dispatch: Optional[DispatchRow], entry: dict
    ) -> None:
        """Land one execution's ``task.exec`` span in the store (lock held).

        A traced worker only stamps ``t = (start, end, pid)`` on its
        result entry; the span's row is kept here, under the dispatch
        attempt this worker was sent the task with.  The field comes off
        the wire: one that does not parse is dropped — the result still
        counts — never raised in the loop.
        """
        try:
            timing = entry.get("t")
            if dispatch is not None and isinstance(timing, (list, tuple)):
                start, end, pid = timing
                run = ExecRow(
                    dispatch,
                    handle.exec_actor,
                    handle.worker_id,
                    int(pid),
                    float(start),
                    float(end),
                    "error" if "error" in entry else "ok",
                )
                self.telemetry.spans._add_row(run)
        except (TypeError, ValueError, KeyError, AttributeError):
            pass

    def _handle_secured(self, handle: DistWorkerHandle, frame: dict) -> None:
        """A worker answered a ``secure`` challenge (loop thread)."""
        with self._lock:
            handle.last_seen = self.now()
            challenge = handle.secure_challenge
            ok = challenge is not None and verify_proof(
                challenge, str(frame.get("proof", ""))
            )
            if ok:
                handle.secured = True
            handle.secure_challenge = None
            waiter = handle.secure_waiter
            handle.secure_waiter = None
        if self.telemetry.enabled:
            self.telemetry.metrics.counter(
                "repro_dist_secure_handshakes_total",
                "secure-channel handshake answers, by outcome",
            ).labels(farm=self.name, outcome="ok" if ok else "bad-proof").inc()
        if waiter is not None:
            waiter.set()

    def _handle_refused(self, handle: DistWorkerHandle, frame: dict) -> None:
        """A ``--require-secure`` worker bounced a task (loop thread).

        The bounce counts as a failed dispatch attempt: the task is
        replayed elsewhere, and a task that only ever meets refusals is
        dead-lettered rather than ping-ponged forever.
        """
        raw_ids = frame.get("task_ids")
        task_ids = (
            [int(t) for t in raw_ids]
            if raw_ids
            else [int(frame.get("task_id", -1))]
        )
        with self._lock:
            now = handle.last_seen = self.now()
            for task_id in task_ids:
                handle.outstanding.pop(task_id, None)
                record = self._tasks.get(task_id)
                if record is not None:
                    self._attempt_failed(record, handle.worker_id, "refused", now)
        self._count(
            "refused_frames_total",
            "task frames bounced by workers awaiting the handshake",
        )
        self._fill()

    # ------------------------------------------------------------------
    # stream
    # ------------------------------------------------------------------
    def submit(
        self,
        payload: Any,
        *,
        tenant: Optional[str] = None,
        traceparent: Optional[str] = None,
        task_id: Optional[int] = None,
    ) -> None:
        """Track one task and queue it for dispatch.

        ``tenant``, ``traceparent`` and ``task_id`` (a supervisor's) shape
        the task's record and root span; see
        :meth:`FarmCore._track <repro.runtime.farm_core.FarmCore._track>`.
        """
        with self._lock:
            self._dispatch(self._track(payload, tenant, traceparent, task_id))
            if not self._claim_fill():
                return  # the pass already pending takes this task too
        self._post_fill()

    def _dispatch(self, record: TaskRecord) -> None:
        """Append to the ready queue exactly once (lock held); the next
        ``_fill`` pass puts it on a wire."""
        task_id = record.task_id
        if task_id not in self._ready_set:
            self._ready.append(task_id)
            self._ready_set.add(task_id)

    def _request_fill(self) -> None:
        """Schedule a dispatch pass on the loop thread (thread-safe).

        Coalesced: a burst of submits lands one ``_fill`` on the loop,
        not one per task — the single biggest win of the batched wire,
        since that one pass then drains the whole burst as batch frames.
        """
        with self._lock:
            if not self._claim_fill():
                return
        self._post_fill()

    def _claim_fill(self) -> bool:
        """Claim the one pending fill pass (lock held); False if one is
        already pending or the farm is shutting down."""
        if self._fill_scheduled or self._shutdown.is_set():
            return False
        self._fill_scheduled = True
        return True

    def _post_fill(self) -> None:
        """Hand a claimed fill pass to the loop; a closed loop drops the
        claim."""
        if not self._on_loop(self._fill):
            with self._lock:
                self._fill_scheduled = False

    def _on_loop(self, fn: Callable[..., Any], *args: Any) -> bool:
        """Hand ``fn(*args)`` to the loop thread — the only way any other
        thread touches a socket.  False: the loop is already closed."""
        try:
            self._loop.call_soon_threadsafe(fn, *args)
        except RuntimeError:
            return False
        return True

    def _writable(self, w: DistWorkerHandle) -> bool:
        """Backpressure check: is this worker's socket buffer shallow enough?

        A worker that stops reading (wedged, partitioned, slow) piles
        bytes into its transport buffer; skipping it keeps the pipeline
        streaming to workers that are actually draining, and the next
        ack or supervisor tick retries the skipped one.
        """
        writer = w.writer
        if writer is None:
            return False
        try:
            return writer.transport.get_write_buffer_size() < self.MAX_BUFFERED_BYTES
        except Exception:  # noqa: BLE001 - transport mid-teardown
            return True

    def _fill(self) -> None:
        """Dispatch ready tasks into free worker windows (loop thread only).

        Each pass fills the least-loaded worker's free window slots with
        up to ``batch_size`` tasks in one ``task_batch`` frame and moves
        on, so a burst of submits streams out as a handful of writes
        instead of a write per task.
        """
        with self._lock:
            self._fill_scheduled = False
            while self._ready:
                candidates = [
                    w
                    for w in self._serving()
                    if w.connected
                    and w.writer is not None
                    and len(w.outstanding) < self.max_inflight
                    and self._writable(w)
                ]
                if not candidates:
                    return
                worker = min(
                    candidates, key=lambda w: (len(w.outstanding), w.worker_id)
                )
                budget = min(
                    self.max_inflight - len(worker.outstanding), self.batch_size
                )
                entries: List[TaskRecord] = []
                while self._ready and len(entries) < budget:
                    task_id = self._ready.popleft()
                    self._ready_set.discard(task_id)
                    record = self._tasks.get(task_id)
                    if record is None or record.worker_id is not None:
                        continue  # completed or already dispatched meanwhile
                    self._begin_attempt(record, worker)
                    worker.outstanding[task_id] = record.dispatch
                    entries.append(record)
                if not entries:
                    continue
                try:
                    data = self._encode_dispatch(worker, entries)
                    frames = 1
                except Exception:  # noqa: BLE001 - a payload refused the codec
                    data, entries = self._encode_one_by_one(worker, entries)
                    frames = len(entries)
                    if not entries:
                        continue
                try:
                    worker.writer.write(data)
                except Exception:  # noqa: BLE001 - transport died under us
                    now = self.now()
                    for record in entries:
                        worker.outstanding.pop(record.task_id, None)
                        self._attempt_failed(
                            record, worker.worker_id, "write-failed", now
                        )
                    return
                self._frames_tx.inc(frames)
                self._count_dispatch(worker, len(entries))
                if frames == 1 and len(entries) > 1:
                    self._batched_tasks_total.inc(len(entries))

    def _encode_dispatch(
        self, worker: DistWorkerHandle, entries: List[TaskRecord]
    ) -> bytes:
        """Encode one dispatch window as one frame (lock held).

        A singleton keeps the ``task`` shape; a window of two or more
        rides one ``task_batch``; either is encrypted whole-frame when
        the channel is secured.  A traced frame carries one ``traced``
        flag, not a context per entry: the worker answers with exec
        timings and the coordinator, which holds the dispatch spans,
        builds the exec spans from them.
        """
        if len(entries) == 1:
            record = entries[0]
            message = {
                "type": "task",
                "task_id": record.task_id,
                "payload": record.payload,
            }
        else:
            message = {
                "type": "task_batch",
                "tasks": [
                    {"task_id": record.task_id, "payload": record.payload}
                    for record in entries
                ],
            }
        if entries[0].dispatch is not None:
            message["traced"] = True
        return encode_frame_v4(message, codec=worker.codec, secured=worker.secured)

    def _encode_one_by_one(
        self, worker: DistWorkerHandle, entries: List[TaskRecord]
    ) -> Tuple[bytes, List[TaskRecord]]:
        """A window that will not encode as one frame, as one frame per
        task (lock held): the worker's ``encode_results`` fallback.

        A task whose payload the session codec refuses completes as a
        failed result naming the codec's error; the others go out, as do
        the tasks of a window over ``MAX_FRAME`` that each fit.  Returns
        the frames and the tasks they carry.
        """
        frames: List[bytes] = []
        sent: List[TaskRecord] = []
        refused: List[Tuple[int, Any, bool]] = []
        for record in entries:
            try:
                frames.append(self._encode_dispatch(worker, [record]))
            except Exception as exc:  # noqa: BLE001 - unserializable payload
                worker.outstanding.pop(record.task_id, None)
                error = RuntimeError(f"{type(exc).__name__}: {exc}")
                refused.append((record.task_id, error, True))
            else:
                sent.append(record)
        deliver: List[Any] = []
        self._complete(self.now(), refused, deliver)
        self.results.put_many(deliver)
        return b"".join(frames), sent

    # ------------------------------------------------------------------
    # supervision: liveness + replay of due retries
    # ------------------------------------------------------------------
    async def _supervise_coro(self) -> None:
        while True:
            await asyncio.sleep(self.supervise_period)
            try:
                self.supervise_once()
            except Exception:  # noqa: BLE001 - the supervisor must survive
                continue

    def supervise_once(self) -> List[int]:
        """One supervision pass (public so tests can drive it directly).

        Returns the ids of workers declared dead in this pass.
        """
        dead = self._supervise_pass()
        self._request_fill()
        return dead

    def _is_lost(self, w: DistWorkerHandle, now: float) -> bool:
        """Dead: the local process has exited, a connected worker has
        been silent for ``heartbeat_timeout``, or a spawned one never
        connected within ``CONNECT_GRACE`` (lock held)."""
        proc_exited = w.process is not None and self._reap(w.process, 0.0)
        if w.connected:
            return proc_exited or now - w.last_seen > self.heartbeat_timeout
        if w.retiring and w.got_bye and not w.outstanding:
            w.active = False  # clean retirement observed late
            self._end_worker_span(w, outcome="retired")
            return False
        grace = self.CONNECT_GRACE if not w.ever_connected else 0.0
        return proc_exited or now - w.last_seen > max(grace, self.heartbeat_timeout)

    def _sever(self, w: DistWorkerHandle) -> None:
        w.connected = False
        self._wake_secure_waiter(w)
        if w.process is not None and not self._reap(w.process, 0.0):
            try:
                # wedged or partitioned: make it official.  For a forked
                # worker the kill is the whole of it — its younger
                # siblings inherited this end of its socket, so closing
                # ours would never read as EOF over there
                w.process.kill()
            except Exception:  # noqa: BLE001
                pass
        if w.writer is not None:
            writer = w.writer
            w.writer = None
            self._on_loop(writer.transport.abort)
        self._end_worker_span(w, outcome="crashed")

    def _wake_secure_waiter(self, w: DistWorkerHandle) -> None:
        """A ``secure_worker()`` caller may be blocked on this worker's
        handshake; wake it so it reports failure instead of timing out."""
        if w.secure_waiter is not None:
            w.secure_challenge = None
            w.secure_waiter.set()
            w.secure_waiter = None

    # ------------------------------------------------------------------
    # actuators
    # ------------------------------------------------------------------
    def _register_worker(
        self,
        worker_id: int,
        *,
        process: Any,
        secured: bool = False,
        quarantined: bool = False,
    ) -> DistWorkerHandle:
        """Create and track one worker handle under ``worker_id`` (lock
        held by caller)."""
        handle = DistWorkerHandle(
            worker_id=worker_id,
            process=process,
            secured=secured,
            quarantined=quarantined,
            spawned_at=self.now(),
            last_seen=self.now(),
        )
        self._enroll(handle)
        handle.completed_gauge = self._completed_gauge(handle.worker_id)
        if self.telemetry.enabled:
            handle.span = self.telemetry.start_span(
                "dist.worker",
                actor=self.name,
                worker=handle.worker_id,
                local=process is not None,
            )
        return handle

    def _end_worker_span(self, handle: DistWorkerHandle, *, outcome: str) -> None:
        if handle.span is not None:
            self.telemetry.end_span(
                handle.span, outcome=outcome, completed=handle.reported_completed
            )
            handle.span = None

    def secure_worker(self, worker_id: int, timeout: float = 10.0) -> bool:
        """Secure one worker's channel via the wire-level handshake.

        Blocks (off the loop thread) until the worker proves possession
        of the shared key, then flips ``secured`` so every subsequent
        task payload to it travels encrypted.  Returns ``False`` on an
        unknown/dead worker, a connection that never appears, a bad
        proof, or timeout — the caller must *not* admit the worker in
        that case.
        """
        if not self.telemetry.enabled:
            return self._secure_worker_inner(worker_id, timeout)
        span = self.telemetry.start_span(
            "dist.secure", actor=self.name, worker=worker_id
        )
        ok = False
        try:
            ok = self._secure_worker_inner(worker_id, timeout)
            return ok
        finally:
            self.telemetry.end_span(span, outcome="secured" if ok else "failed")

    def _secure_worker_inner(self, worker_id: int, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        with self._lock:
            w = self._find_worker(worker_id)
            if w is None or not w.active:
                return False
            if w.secured:
                return True
        # wait for the connection: a just-spawned worker may still be
        # importing its task function
        with self._connected:
            # woken by the worker's session opening; the short timeout is
            # only to notice a worker declared dead meanwhile
            while not self._connected.wait_for(
                lambda: w.connected and w.writer is not None,
                min(_RECHECK, max(0.0, deadline - time.monotonic())),
            ):
                if not w.active or time.monotonic() >= deadline:
                    return False
        waiter = threading.Event()
        frame = None
        with self._lock:
            if not (w.active and w.connected and w.writer is not None):
                return False
            if w.secured:
                return True
            if w.secure_waiter is not None:
                # another thread's handshake is already in flight (e.g.
                # the GM commit racing the reactive security tick): join
                # it instead of overwriting its challenge — a second
                # challenge would make the first proof verify against the
                # wrong nonce
                waiter = w.secure_waiter
            else:
                w.secure_challenge = make_challenge()
                w.secure_waiter = waiter
                frame = encode_frame_v4(
                    {"type": "secure", "challenge": w.secure_challenge}
                )
            writer = w.writer
        if frame is not None:
            if not self._on_loop(writer.write, frame):
                return False
            self._frames_tx.inc()
        if not waiter.wait(max(0.0, deadline - time.monotonic())):
            with self._lock:
                # only the handshake owner tears the state down, and only
                # if it is still the current handshake — a joiner timing
                # out early must not yank a live exchange out from under
                # the owner (or a proof still in flight)
                if frame is not None and w.secure_waiter is waiter:
                    w.secure_challenge = None
                    w.secure_waiter = None
            return False
        with self._lock:
            return w.secured

    def admit_worker(self, worker_id: int) -> bool:
        """Lift the admission gate: the worker joins the dispatch set."""
        admitted = super().admit_worker(worker_id)
        if admitted:
            self._request_fill()
        return admitted

    def remove_worker(self) -> Optional[DistWorkerHandle]:
        """Retire the newest worker gracefully.

        The poison frame queues *behind* tasks already sent to the
        victim, so it drains its window before exiting; the supervisor
        replays anything still un-acked if it dies instead.
        """
        with self._lock:
            victim = self._pick_retiree()
            if victim is None:
                return None
            victim.retiring = True
            writer = victim.writer
        if writer is not None:
            self._on_loop(writer.write, _POISON)
        # not yet connected: _admit poisons it right after welcome
        return victim

    def balance_load(self) -> int:
        """Nothing to move, by construction.

        Tasks queue centrally and flow into bounded per-worker windows
        (``max_inflight``), so no worker can hoard a backlog another
        worker could steal — the imbalance the thread farm corrects
        here cannot arise.  Returns 0.
        """
        return 0

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def inject_crash(self, worker_id: Optional[int] = None) -> Optional[int]:
        """SIGKILL one live local worker process (the newest, unless given).

        For an attached worker with no local process the fault in reach
        is its connection, which is aborted instead.  Detection, replay
        and capacity recovery then proceed through the ordinary
        supervision/rule machinery — nothing is short-circuited.
        """
        with self._lock:
            victim = self._pick_victim(worker_id)
            if victim is None:
                return None
            process = victim.process
        if process is None:
            return self._abort_connection(victim)
        try:
            process.kill()
        except Exception:  # noqa: BLE001
            return None
        return victim.worker_id

    def _abort_connection(self, victim: DistWorkerHandle) -> Optional[int]:
        """Abort one worker's connection; its id, or None with none to abort."""
        with self._lock:
            writer = victim.writer
        if writer is None:
            return None
        return victim.worker_id if self._on_loop(writer.transport.abort) else None

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def crash(self) -> List[DistWorkerHandle]:
        """Simulate this coordinator process dying (SIGKILL semantics).

        The event loop stops dead: the server socket (if any) closes,
        every worker connection aborts (workers that dialled in see EOF
        and — if spawned with reconnect attempts — start redialing the
        port), no poison is sent and no worker process is touched.  Open
        dispatch state ends as ``coordinator-crashed`` spans; nothing is
        flushed — a dead process flushes nothing.

        Returns the handles whose local worker processes are still
        running: what becomes of them is the farm's to say (a DistFarm's
        are adopted by the promoted standby; a ProcessFarm's die with
        the coordinator that forked them).
        """
        if self._shutdown.is_set():
            return []
        self._shutdown.set()
        with self._lock:
            survivors: List[DistWorkerHandle] = []
            self._abandon_all("coordinator-crashed")
            self._ready.clear()
            self._ready_set.clear()
            for w in self.workers:
                if w.active and w.process is not None and not self._reap(w.process, 0.0):
                    survivors.append(w)
                w.active = False
                w.connected = False
                self._end_worker_span(w, outcome="coordinator-crashed")
                self._wake_secure_waiter(w)
        # _finalize (post-stop) closes the server and aborts every worker
        # transport — the EOF the workers react to
        self._on_loop(self._loop.stop)
        self._loop_thread.join(5.0)
        return survivors

    def shutdown(self, timeout: float = 10.0) -> None:
        """Poison every worker, close every socket, stop the loop."""
        if self._shutdown.is_set():
            return
        self._shutdown.set()
        with self._lock:
            workers = list(self.workers)
            writers = [w.writer for w in workers if w.writer is not None]
            for w in workers:
                w.active = False
                self._end_worker_span(w, outcome="shutdown")
        for writer in writers:
            self._on_loop(writer.write, _POISON)
        deadline = time.monotonic() + timeout
        for w in workers:
            if w.process is None:
                continue
            if not self._reap(w.process, max(0.05, deadline - time.monotonic())):
                w.process.kill()
                self._reap(w.process, 1.0)
        self._on_loop(self._loop.stop)
        self._loop_thread.join(max(1.0, deadline - time.monotonic()))
        # abandoned tasks must not leak open spans into the export
        if self.telemetry.enabled:
            self.telemetry.flush()


class DistFarm(_StreamFarm):
    """A live task farm whose executors sit across a TCP boundary.

    Workers dial the port this coordinator binds: the ones it spawns
    (``python -m repro.runtime.dist_worker``) and any attached by hand
    from another host.  Satisfies the
    :class:`~repro.runtime.backend.FarmBackend` surface, so
    :class:`~repro.runtime.controller.FarmController` drives it with
    the unmodified Figure 5 rules.  Extra knobs:

    ``host``
        interface the coordinator binds (default loopback; use
        ``"0.0.0.0"`` to accept workers from other hosts).
    ``heartbeat_period`` / ``heartbeat_timeout``
        workers beat every period; a *connected* worker silent for the
        timeout is declared dead (wedged or partitioned).
    ``backoff_base`` / ``backoff_cap`` / ``max_attempts``
        replay delay for attempt *n* is ``min(base * 2**(n-1), cap)``,
        dead-lettered after ``max_attempts`` dispatches.
    ``max_inflight``
        un-acked tasks a worker may hold; the rest queue centrally.
    ``port``
        TCP port to bind (default 0: pick a free one).  A promoted
        standby passes the dead coordinator's port so surviving workers
        redialing it land on the successor.
    ``epoch``
        coordinator incarnation counter, announced in every
        ``welcome``/``takeover`` frame; workers refuse task frames from
        an epoch older than the newest they have served.
    ``worker_reconnect_attempts``
        spawn workers with ``--reconnect-attempts N`` so they survive a
        coordinator crash and reattach to the promoted standby (0, the
        default: workers exit on coordinator EOF, the pre-v3 behaviour).
    ``codec``
        payload codec for data frames: ``"auto"`` (default) negotiates
        per worker — pickle for workers this coordinator spawned or
        adopted, the safe list for remote attachers — or a codec name
        to pin every session to it.
    ``batch_size``
        most tasks one ``task_batch`` frame carries; with the default
        ``max_inflight`` of 2 batches degenerate to singletons, so
        throughput configs raise both together.
    """

    #: how long ``__init__`` waits for the loop and the initial workers
    #: to connect
    START_TIMEOUT = 30.0

    def __init__(
        self,
        fn: Any,
        *,
        initial_workers: int = 2,
        name: str = "dfarm",
        rate_window: float = 5.0,
        max_workers: int = 64,
        host: str = "127.0.0.1",
        heartbeat_period: float = 0.1,
        heartbeat_timeout: float = 2.0,
        backoff_base: float = 0.05,
        backoff_cap: float = 1.0,
        max_attempts: int = 5,
        supervise_period: float = 0.05,
        max_inflight: int = 2,
        telemetry: Optional[Telemetry] = None,
        clock: Callable[[], float] = time.monotonic,
        port: int = 0,
        epoch: int = 0,
        worker_reconnect_attempts: int = 0,
        codec: str = "auto",
        batch_size: int = 32,
    ) -> None:
        if initial_workers < 0:
            # 0 is legal: a promoted standby starts empty and adopts the
            # dead coordinator's surviving workers instead of spawning
            raise ValueError("initial_workers must be non-negative")
        if max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if codec == "auto":
            # REPRO_DIST_CODEC pins every session without touching call
            # sites — how the CI msgpack conformance leg forces the
            # optional codec onto the whole grow/crash story
            codec = os.environ.get("REPRO_DIST_CODEC") or "auto"
        super().__init__(
            name,
            rate_window=rate_window,
            max_workers=max_workers,
            clock=clock,
            telemetry=telemetry,
            backoff_base=backoff_base,
            backoff_cap=backoff_cap,
            max_attempts=max_attempts,
            heartbeat_period=heartbeat_period,
            heartbeat_timeout=heartbeat_timeout,
            supervise_period=supervise_period,
            max_inflight=max_inflight,
            batch_size=batch_size,
            codec=codec,
            epoch=epoch,
        )
        self.fn_spec = fn_spec(fn)
        self._host = host
        self.worker_reconnect_attempts = worker_reconnect_attempts
        self._requested_port = port
        self._start_loop(self.START_TIMEOUT)
        try:
            for _ in range(initial_workers):
                self.add_worker()
            self._wait_for_connections(initial_workers, self.START_TIMEOUT)
        except Exception:
            self.shutdown()
            raise

    async def _bind(self) -> None:
        self._server = await asyncio.start_server(
            self._on_connection, self._host, self._requested_port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    @staticmethod
    def _reap(process: subprocess.Popen, timeout: float) -> bool:
        try:
            process.wait(timeout)
        except subprocess.TimeoutExpired:
            return False
        return True

    def add_worker(
        self,
        *,
        secured: bool = False,
        quarantined: bool = False,
        require_secure: bool = False,
        worker_id: Optional[int] = None,
    ) -> DistWorkerHandle:
        """Spawn one local worker process and point it at the coordinator.

        ``require_secure`` spawns the worker with ``--require-secure``,
        so the admission gate is enforced on *both* ends of the wire:
        the coordinator never dispatches to a quarantined worker, and
        the worker itself bounces any task frame (e.g. from a hand-
        rolled client) that beats the handshake.
        """
        with self._lock:
            self._require_slot()
            worker_id = self._claim_id(worker_id)
            cmd = [
                sys.executable,
                "-m",
                "repro.runtime.dist_worker",
                "--host",
                self._host,
                "--port",
                str(self.port),
                "--worker-id",
                str(worker_id),
                "--fn",
                self.fn_spec,
                "--heartbeat-period",
                str(self.heartbeat_period),
            ]
            if require_secure:
                cmd.append("--require-secure")
            if self.codec != "auto":
                # a pinned farm spawns workers that offer exactly that
                # codec, so negotiation cannot land anywhere else
                cmd += ["--codec", self.codec]
            if self.worker_reconnect_attempts > 0:
                cmd += ["--reconnect-attempts", str(self.worker_reconnect_attempts)]
            env = dict(os.environ)
            # the child must see the parent's exact import surface — the
            # task function may live in a package only sys.path knows about
            env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
            process = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
            return self._register_worker(
                worker_id, process=process, secured=secured, quarantined=quarantined
            )

    def adopt_worker(
        self,
        worker_id: int,
        *,
        process: Optional[subprocess.Popen] = None,
        quarantined: bool = False,
    ) -> DistWorkerHandle:
        """Pre-register a worker that already exists (standby promotion).

        A promoted coordinator inherits the dead one's surviving worker
        processes: each keeps its old id, so the ``reattach`` frame it
        sends when it redials this port finds its registration and
        reactivates it.  The handle starts unconnected and *unsecured* —
        channel trust does not survive a coordinator crash — and
        ``CONNECT_GRACE`` applies until the worker actually reattaches.
        """
        with self._lock:
            worker_id = self._claim_id(worker_id)
            self._require_slot()
            handle = self._register_worker(
                worker_id, process=process, quarantined=quarantined
            )
            if handle.span is not None:
                handle.span.set_attribute("adopted", True)
            return handle

    def _wait_for_connections(self, count: int, timeout: float) -> None:
        deadline = time.monotonic() + timeout

        def connected() -> bool:
            return sum(1 for w in self.workers if w.connected) >= count

        with self._connected:
            # woken by the session that opens; the short timeout is only
            # to notice a child that died before it could dial
            while not self._connected.wait_for(connected, _RECHECK):
                exited = [
                    w.worker_id
                    for w in self.workers
                    if w.process is not None
                    and w.process.poll() is not None
                    and not w.ever_connected
                ]
                if exited:
                    raise RuntimeError(
                        f"worker(s) {exited} exited before connecting — is the task "
                        f"function importable as {self.fn_spec!r}?"
                    )
                if time.monotonic() >= deadline:
                    raise RuntimeError(f"workers failed to connect within {timeout}s")

    def drop_connection(self, worker_id: Optional[int] = None) -> Optional[int]:
        """Abort one worker's TCP connection — the network-level fault.

        The coordinator sees EOF and replays; the orphaned worker sees
        EOF on its side and exits.  This is the fault a real deployment
        meets most often (a partition, a crashed gateway).
        """
        with self._lock:
            if worker_id is None:
                # the newest worker may not have connected yet; a fault
                # on a connection that does not exist is a no-op
                live = [w for w in self._serving() if w.writer is not None]
                victim = live[-1] if live else None
            else:
                victim = self._pick_victim(worker_id)
        return None if victim is None else self._abort_connection(victim)
