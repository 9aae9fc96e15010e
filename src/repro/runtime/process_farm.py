"""Process-based task farm: real parallelism, real crash fault-tolerance.

The third substrate behind the Figure 5 rules, after the deterministic
simulator (:class:`repro.sim.farm.SimFarm`) and the thread farm
(:class:`repro.runtime.farm_runtime.ThreadFarm`).  Workers here are OS
processes, so CPU-bound stages genuinely scale past the GIL — and a
worker *death* is a real event (``SIGKILL``-able), not a simulated one.

Fault tolerance follows the paper's §2 framing — the manager "takes care
of performing all those activities needed to restore ... after a fault"
— split between two layers:

* **mechanism (this module's transport under
  :class:`~repro.runtime.farm_core.FarmCore`'s task lifecycle)**: every
  dispatched task is tracked until a completion ack returns over the
  result pipe.  Workers are supervised
  by heartbeats (a daemon thread in each child beats every
  ``heartbeat_period`` even while the main thread grinds a long task).
  When a worker dies, its un-acked tasks are *replayed* to survivors
  with capped exponential backoff; a task that keeps dying is parked in
  the dead-letter list after ``max_attempts`` dispatches.  Replay is
  at-least-once — a task whose ack was in flight at crash time runs
  twice — and the farm dedupes acks by task id, so the *results stream*
  stays exactly-once.
* **policy (the unmodified rules)**: a crash shrinks capacity, measured
  departure rate sags below the contract stripe, and the ordinary
  ``CheckRateLow`` rule fires ``ADD_EXECUTOR`` through
  :class:`~repro.runtime.controller.FarmController` — recovery is just
  contract enforcement, exactly as in the simulated fault experiments.

Telemetry is process-safe by construction: workers only ever *send*
(acks, heartbeats, per-worker completion counters) over the result
pipe; the parent's pump thread is the single writer into the shared
:class:`repro.obs.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from ..obs.propagation import TraceContext, make_span_record
from ..obs.telemetry import Telemetry
from ..security.crypto import decrypt, encrypt
from .farm_core import FarmCore, TaskRecord

__all__ = ["ProcessFarm", "ProcessWorkerHandle", "default_start_method"]

_SECRET = b"repro-channel-key"

#: poison sentinel understood by the worker loop
_POISON = ("__poison__",)


def default_start_method() -> str:
    """``fork`` where the platform offers it (cheap, closures allowed),
    ``spawn`` otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _worker_main(
    worker_id: int,
    farm_name: str,
    fn: Callable[[Any], Any],
    task_q: "multiprocessing.Queue",
    result_q: "multiprocessing.Queue",
    heartbeat_period: float,
) -> None:
    """Child-process body: drain the task queue, ack every completion.

    A daemon heartbeat thread beats independently of task execution, so
    a worker crunching one long CPU-bound task is still visibly alive;
    only real death (or a wedged process) silences it.

    Each task envelope may carry a ``traceparent`` naming the parent-side
    dispatch span; the worker then records its execution as a span
    *record* (plain dict — the parent has the only SpanRecorder) and
    ships it back on the ``done`` ack, where it is re-parented into the
    coordinator's trace store.  Timestamps are epoch seconds, the same
    base the parent's WallClock uses.
    """
    completed = 0
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(heartbeat_period):
            try:
                result_q.put(("hb", worker_id, completed))
            except Exception:  # noqa: BLE001 - parent gone; nothing to report to
                return

    hb = threading.Thread(target=beat, name=f"pfarm-hb-{worker_id}", daemon=True)
    hb.start()

    while True:
        item = task_q.get()
        if item == _POISON:
            stop.set()
            result_q.put(("bye", worker_id, completed))
            return
        task_id, payload, enc, traceparent = item
        if enc:
            payload = pickle.loads(decrypt(_SECRET, payload))
        started = time.time()
        try:
            result = fn(payload)
        except Exception as exc:  # noqa: BLE001 - surfaced via results
            result = exc
        if isinstance(result, Exception):
            try:  # an unpicklable exception must not wedge the ack path
                pickle.dumps(result)
            except Exception:  # noqa: BLE001
                result = RuntimeError(f"worker {worker_id}: {result!r}")
        span_rec = None
        parent_ctx = TraceContext.from_traceparent(traceparent)
        if parent_ctx is not None:
            span_rec = make_span_record(
                parent_ctx.exec_child(worker_id),
                "task.exec",
                actor=f"{farm_name}-w{worker_id}",
                start=started,
                end=time.time(),
                attributes={
                    "worker": worker_id,
                    "pid": os.getpid(),
                    "outcome": "error" if isinstance(result, Exception) else "ok",
                },
            )
        completed += 1
        result_q.put(("done", worker_id, task_id, result, completed, span_rec))


@dataclass
class ProcessWorkerHandle:
    """Parent-side handle of one worker process."""

    worker_id: int
    process: multiprocessing.Process
    task_queue: "multiprocessing.Queue"
    secured: bool = False
    quarantined: bool = False
    active: bool = True
    retiring: bool = False
    last_seen: float = 0.0
    reported_completed: int = 0
    dispatched: int = 0
    outstanding: set = field(default_factory=set)  # task ids awaiting ack
    completed_gauge: Any = None  # this worker's bound completed-tasks gauge

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid


class ProcessFarm(FarmCore):
    """A live task farm whose executors are supervised OS processes.

    The transport is one ``multiprocessing`` task queue per worker and a
    shared result pipe.  Satisfies the same
    :class:`~repro.runtime.backend.FarmBackend` surface as
    :class:`~repro.runtime.farm_runtime.ThreadFarm`; the extra knobs are
    all fault-tolerance tuning:

    ``heartbeat_period`` / ``heartbeat_timeout``
        children beat every period; a worker silent for the timeout (or
        whose process has exited) is declared dead.
    ``backoff_base`` / ``backoff_cap``
        replay delay for attempt *n* is ``min(base * 2**(n-1), cap)``.
    ``max_attempts``
        dispatch budget per task before it is dead-lettered.
    ``start_method``
        multiprocessing start method; ``fork`` (default on POSIX) allows
        closures as ``fn``, ``spawn`` needs a module-level callable.
    """

    _METRICS = "repro_process"

    def __init__(
        self,
        fn: Callable[[Any], Any],
        *,
        initial_workers: int = 2,
        name: str = "pfarm",
        rate_window: float = 5.0,
        max_workers: int = 64,
        heartbeat_period: float = 0.1,
        heartbeat_timeout: float = 2.0,
        backoff_base: float = 0.05,
        backoff_cap: float = 1.0,
        max_attempts: int = 5,
        supervise_period: float = 0.05,
        start_method: Optional[str] = None,
        telemetry: Optional[Telemetry] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if initial_workers < 1:
            raise ValueError("need at least one worker")
        super().__init__(
            name,
            rate_window=rate_window,
            max_workers=max_workers,
            clock=clock,
            telemetry=telemetry,
            backoff_base=backoff_base,
            backoff_cap=backoff_cap,
            max_attempts=max_attempts,
        )
        self.fn = fn
        self.heartbeat_period = heartbeat_period
        self.heartbeat_timeout = heartbeat_timeout
        self.supervise_period = supervise_period
        self._ctx = multiprocessing.get_context(start_method or default_start_method())
        self._rr = 0
        self._result_q: "multiprocessing.Queue" = self._ctx.Queue()

        self._shutdown = threading.Event()
        for _ in range(initial_workers):
            self.add_worker()
        self._pump = threading.Thread(
            target=self._pump_loop, name=f"{name}-pump", daemon=True
        )
        self._pump.start()
        self._supervisor = threading.Thread(
            target=self._supervise_loop, name=f"{name}-supervisor", daemon=True
        )
        self._supervisor.start()

    # ------------------------------------------------------------------
    # stream
    # ------------------------------------------------------------------
    def submit(
        self,
        payload: Any,
        *,
        tenant: Optional[str] = None,
        traceparent: Optional[str] = None,
    ) -> None:
        """Track one task and dispatch it to a worker (round robin).

        ``tenant`` and ``traceparent`` shape the task's root span; see
        :meth:`FarmCore._track <repro.runtime.farm_core.FarmCore._track>`.
        """
        with self._lock:
            self._dispatch(self._track(payload, tenant, traceparent))

    def _dispatch(self, record: TaskRecord) -> None:
        """Send one tracked task to a serving worker (lock held).

        With no serving worker (e.g. every process just crashed) the
        record is parked, due at once; the supervisor re-dispatches as
        soon as capacity returns.
        """
        serving = self._serving()
        if not serving:
            self._park(record, self.now())
            return
        self._rr = (self._rr + 1) % len(serving)
        worker = serving[self._rr]
        self._begin_attempt(record, worker)
        worker.outstanding.add(record.task_id)
        worker.task_queue.put(self._envelope(record, worker))
        self._count_dispatch(worker)

    def _envelope(self, record: TaskRecord, worker: "ProcessWorkerHandle") -> tuple:
        """What travels to ``worker`` for one attempt: the payload —
        encrypted on a secured channel — and the dispatch span's
        traceparent, under which the worker records its execution."""
        traceparent = (
            record.dispatch.context.traceparent() if record.dispatch is not None else None
        )
        if worker.secured:
            return (
                record.task_id,
                encrypt(_SECRET, pickle.dumps(record.payload)),
                True,
                traceparent,
            )
        return (record.task_id, record.payload, False, traceparent)

    # ------------------------------------------------------------------
    # result pump: the single reader of the result pipe (and the single
    # writer into the metrics registry)
    # ------------------------------------------------------------------
    def _pump_loop(self) -> None:
        while not self._shutdown.is_set():
            try:
                msg = self._result_q.get(timeout=0.1)
            except queue.Empty:
                continue
            except (EOFError, OSError):  # queue closed during shutdown
                return
            self._handle_message(msg)

    def _handle_message(self, msg: tuple) -> None:
        kind, worker_id = msg[0], msg[1]
        with self._lock:
            handle = self._find_worker(worker_id)
            now = self.now()
            if handle is not None:
                handle.last_seen = now
            if kind in ("hb", "bye"):
                self._note_worker_counter(handle, msg[2])
                return
            if kind != "done":
                return
            _, _, task_id, result, completed, span_rec = msg
            self._note_worker_counter(handle, completed)
            if self.telemetry.enabled:
                # import the worker-side exec span even for a duplicate
                # ack: both executions of an at-least-once replay belong
                # in the task's one trace tree
                self.telemetry.import_span(span_rec)
            if handle is not None:
                handle.outstanding.discard(task_id)
            if not self._complete(task_id, now, isinstance(result, Exception)):
                return
        self.results.put(result)

    # ------------------------------------------------------------------
    # supervision: heartbeat liveness + replay of due retries
    # ------------------------------------------------------------------
    def _supervise_loop(self) -> None:
        while not self._shutdown.wait(self.supervise_period):
            try:
                self.supervise_once()
            except Exception:  # noqa: BLE001 - the supervisor must survive
                continue

    def supervise_once(self) -> List[int]:
        """One supervision pass (public so tests can drive it directly).

        Returns the ids of workers declared dead in this pass.
        """
        return self._supervise_pass()

    def _is_lost(self, w: "ProcessWorkerHandle", now: float) -> bool:
        """Dead: the process has exited, or beats have stopped for
        ``heartbeat_timeout`` (lock held)."""
        alive = w.process.is_alive()
        silent = (w.last_seen > 0.0 or not alive) and now - w.last_seen > self.heartbeat_timeout
        if alive and not silent:
            return False
        if w.retiring and not alive and not w.outstanding:
            w.active = False  # clean retirement, nothing to replay
            return False
        return True

    def _sever(self, w: "ProcessWorkerHandle") -> None:
        if w.process.is_alive():  # wedged, not dead: make it official
            try:
                w.process.kill()
            except Exception:  # noqa: BLE001
                pass

    # ------------------------------------------------------------------
    # actuators
    # ------------------------------------------------------------------
    def add_worker(
        self, *, secured: bool = False, quarantined: bool = False
    ) -> ProcessWorkerHandle:
        with self._lock:
            self._require_slot()
            worker_id = self._next_id
            task_q = self._ctx.Queue()
            proc = self._ctx.Process(
                target=_worker_main,
                args=(
                    worker_id,
                    self.name,
                    self.fn,
                    task_q,
                    self._result_q,
                    self.heartbeat_period,
                ),
                name=f"{self.name}-w{worker_id}",
                daemon=True,
            )
            handle = ProcessWorkerHandle(
                worker_id=worker_id,
                process=proc,
                task_queue=task_q,
                secured=secured,
                quarantined=quarantined,
                last_seen=self.now(),
                completed_gauge=self._completed_gauge(worker_id),
            )
            proc.start()
            return self._enroll(handle)

    def remove_worker(self) -> Optional[ProcessWorkerHandle]:
        """Retire the newest worker gracefully.

        The poison sentinel queues *behind* any tasks already dispatched
        to the victim, so it drains its backlog before exiting; the
        supervisor replays anything still un-acked if it dies instead.
        """
        with self._lock:
            victim = self._pick_retiree()
            if victim is None:
                return None
            victim.retiring = True
            victim.task_queue.put(_POISON)
            return victim

    def balance_load(self) -> int:
        """Steal queued (not yet started) tasks from long queues to short.

        The parent is a legitimate extra consumer of a worker's task
        queue, so stealing is just ``get_nowait`` + re-dispatch; sizes
        are approximate under concurrency, as on every real runtime.
        """
        moved = 0
        with self._lock:
            live = self._serving()
            if len(live) < 2:
                return 0
            for _ in range(1000):
                live.sort(key=self._backlog)
                shortest, longest = live[0], live[-1]
                if self._backlog(longest) - self._backlog(shortest) <= 1:
                    break
                try:
                    item = longest.task_queue.get_nowait()
                except queue.Empty:
                    break
                if item == _POISON:
                    longest.task_queue.put(item)
                    break
                task_id = item[0]
                longest.outstanding.discard(task_id)
                shortest.outstanding.add(task_id)
                record = self._tasks.get(task_id)
                if record is not None:
                    # a steal is not a fresh attempt against the replay
                    # budget; the envelope is re-made so the exec span
                    # parents under the steal, not the superseded dispatch
                    record.worker_id = shortest.worker_id
                    if record.root is not None:
                        self._chain_dispatch(record, shortest, outcome="rebalanced")
                    item = self._envelope(record, shortest)
                shortest.task_queue.put(item)
                self._count_dispatch(shortest)
                moved += 1
        return moved

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def inject_crash(self, worker_id: Optional[int] = None) -> Optional[int]:
        """SIGKILL one live worker process (the newest, unless given).

        Returns the killed worker id, or ``None`` if no worker was
        killable.  Detection, replay and capacity recovery then proceed
        through the ordinary supervision/rule machinery — nothing is
        short-circuited for the test.
        """
        with self._lock:
            victim = self._pick_victim(worker_id)
            if victim is None:
                return None
            pid = victim.pid
        if pid is None:
            return None
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            return None
        return victim.worker_id

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Simulate the coordinator process dying (SIGKILL semantics).

        The children are this coordinator's process *group* in spirit:
        a real coordinator SIGKILL orphans them mid-task and they die
        with (or are reaped right after) their parent, so the simulation
        SIGKILLs them outright — no poison, no graceful join.  Open task
        state ends as ``coordinator-crashed`` spans and nothing is
        flushed — a dead process flushes nothing.
        """
        self._shutdown.set()  # stops the pump and supervisor loops
        with self._lock:
            workers = list(self.workers)
            for w in workers:
                w.active = False
            self._abandon_all("coordinator-crashed")
        for w in workers:
            if w.process.is_alive():
                try:
                    w.process.kill()
                except Exception:  # noqa: BLE001
                    pass
        for w in workers:
            w.process.join(1.0)
        self._close_channels(workers)

    def _close_channels(self, workers: List[ProcessWorkerHandle]) -> None:
        """Stop the pump and supervisor threads, then close every pipe."""
        for t in (self._pump, self._supervisor):
            t.join(1.0)
        for w in workers:
            w.task_queue.close()
            w.task_queue.cancel_join_thread()
        self._result_q.close()
        self._result_q.cancel_join_thread()

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop supervision, then every worker (pending tasks abandoned)."""
        self._shutdown.set()
        with self._lock:
            workers = list(self.workers)
            for w in workers:
                w.active = False
        for w in workers:
            try:
                w.task_queue.put_nowait(_POISON)
            except Exception:  # noqa: BLE001 - queue may already be closed
                pass
        deadline = time.monotonic() + timeout
        for w in workers:
            w.process.join(max(0.0, deadline - time.monotonic()))
            if w.process.is_alive():
                w.process.kill()
                w.process.join(1.0)
        self._close_channels(workers)
        # abandoned tasks must not leak open spans into the export
        if self.telemetry.enabled:
            self.telemetry.flush()
