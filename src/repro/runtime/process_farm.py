"""Process-based task farm: real parallelism, real crash fault-tolerance.

The third substrate behind the Figure 5 rules, after the deterministic
simulator (:class:`repro.sim.farm.SimFarm`) and the thread farm
(:class:`repro.runtime.farm_runtime.ThreadFarm`).  Workers here are OS
processes, so CPU-bound stages genuinely scale past the GIL — and a
worker *death* is a real event (``SIGKILL``-able), not a simulated one.

Fault tolerance follows the paper's §2 framing — the manager "takes care
of performing all those activities needed to restore ... after a fault"
— split between two layers:

* **mechanism (this module)**: every dispatched task is tracked until a
  completion ack returns over the result pipe.  Workers are supervised
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
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs.propagation import TraceContext, make_span_record, task_context
from ..obs.telemetry import NOOP, Telemetry
from ..security.crypto import decrypt, encrypt
from ..sim.metrics import WindowRateEstimator, queue_length_stats
from .backend import DispatchCounters, RuntimeFarmSnapshot, TaskRecord, drain_queue

__all__ = ["ProcessFarm", "ProcessWorkerHandle", "DeadLetter", "default_start_method"]

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


@dataclass(frozen=True)
class DeadLetter:
    """A task abandoned after exhausting its replay budget."""

    task_id: int
    payload: Any
    attempts: int
    last_worker_id: Optional[int]


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


class ProcessFarm:
    """A live task farm whose executors are supervised OS processes.

    Satisfies the same :class:`~repro.runtime.backend.FarmBackend`
    surface as :class:`~repro.runtime.farm_runtime.ThreadFarm`; the
    extra knobs are all fault-tolerance tuning:

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
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.fn = fn
        self.name = name
        self.max_workers = max_workers
        self.heartbeat_period = heartbeat_period
        self.heartbeat_timeout = heartbeat_timeout
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.max_attempts = max_attempts
        self.supervise_period = supervise_period
        self.telemetry = telemetry if telemetry is not None else NOOP
        self._dispatches = DispatchCounters(self.telemetry, name)
        self._ctx = multiprocessing.get_context(start_method or default_start_method())
        self._clock = clock
        self._t0 = clock()

        self.results: "queue.Queue[Any]" = queue.Queue()
        self._lock = threading.RLock()
        self.workers: List[ProcessWorkerHandle] = []
        self._next_id = 0
        self._rr = 0
        self._result_q: "multiprocessing.Queue" = self._ctx.Queue()

        self.arrival_est = WindowRateEstimator(rate_window, start_time=0.0)
        self.departure_est = WindowRateEstimator(rate_window, start_time=0.0)
        self.rate_window = rate_window
        self._latencies: "deque" = deque()  # (completion_time, latency)

        self._tasks: Dict[int, TaskRecord] = {}
        self._completed_ids: set = set()
        self._task_seq = 0
        self.submitted = 0
        self.completed = 0
        self.dead_letters: List[DeadLetter] = []
        self.crashes: List[Tuple[float, int]] = []  # (time, worker_id)
        self.replays = 0
        self.duplicates = 0

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
    # time base
    # ------------------------------------------------------------------
    def now(self) -> float:
        return self._clock() - self._t0

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

        With ``traceparent`` (a supervisor resubmitting across a
        coordinator crash) this farm's span is a ``task.attempt`` child
        of the caller's root instead of a fresh root, so every
        incarnation's attempt chains into one tree.
        """
        with self._lock:
            now = self.now()
            self.arrival_est.mark(now)
            self.submitted += 1
            task_id = self._task_seq
            self._task_seq += 1
            record = TaskRecord(task_id, payload, now)
            if self.telemetry.enabled:
                parent = (
                    TraceContext.from_traceparent(traceparent) if traceparent else None
                )
                if parent is not None:
                    record.root = self.telemetry.start_span(
                        "task.attempt",
                        actor=self.name,
                        context=parent.child(f"{self.name}/task/{task_id}"),
                        task_id=task_id,
                        **({"tenant": tenant} if tenant is not None else {}),
                    )
                else:
                    record.root = self.telemetry.start_span(
                        "task",
                        actor=self.name,
                        context=task_context(self.name, task_id),
                        task_id=task_id,
                        **({"tenant": tenant} if tenant is not None else {}),
                    )
            self._tasks[task_id] = record
            self._dispatch(record)

    def _dispatch(self, record: TaskRecord) -> None:
        """Send one tracked task to a live worker (lock held).

        With no live worker (e.g. every process just crashed) the record
        stays queued with a due retry; the supervisor re-dispatches as
        soon as capacity returns.  Quarantined workers are never
        candidates — fresh submits and fault replays alike wait for
        admitted capacity.
        """
        live = [w for w in self.workers if w.active and not w.retiring and not w.quarantined]
        if not live:
            record.worker_id = None
            record.next_retry_at = self.now()
            return
        self._rr = (self._rr + 1) % len(live)
        worker = live[self._rr]
        record.attempts += 1
        record.worker_id = worker.worker_id
        worker.outstanding.add(record.task_id)
        traceparent = self._trace_dispatch(record, worker)
        if worker.secured:
            item = (
                record.task_id,
                encrypt(_SECRET, pickle.dumps(record.payload)),
                True,
                traceparent,
            )
        else:
            item = (record.task_id, record.payload, False, traceparent)
        worker.task_queue.put(item)
        self._dispatches.count(worker)

    def _trace_dispatch(
        self,
        record: TaskRecord,
        worker: ProcessWorkerHandle,
        outcome: Optional[str] = None,
    ) -> Optional[str]:
        """Chain one dispatch-attempt span; returns its traceparent.

        The first attempt parents under the task root; every later one
        (crash replay, rebalance steal) parents under the attempt it
        supersedes — the replayed execution lands *inside* the failed
        dispatch's subtree, which is what makes the fault story legible.
        """
        if record.root is None:
            return None
        prev = record.dispatch
        if prev is not None and outcome is not None:
            self.telemetry.end_span(prev, outcome=outcome)
        record.dispatch_seq += 1
        parent = prev.context if prev is not None else record.root.context
        seed = f"{self.name}/task/{record.task_id}/dispatch/{record.dispatch_seq}"
        record.dispatch = self.telemetry.start_span(
            "task.dispatch",
            actor=self.name,
            context=parent.child(seed),
            worker=worker.worker_id,
            attempt=record.attempts,
            secured=worker.secured,
        )
        return record.dispatch.context.traceparent()

    def drain_results(self, count: int, timeout: float = 30.0) -> List[Any]:
        """Collect ``count`` results (order of completion, deduplicated)."""
        return drain_queue(self.results, count, timeout)

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
            if kind == "hb":
                self._note_worker_counter(handle, msg[2])
                return
            if kind == "bye":
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
            if task_id in self._completed_ids:
                # a replayed task also finished on its original worker:
                # at-least-once underneath, exactly-once outward
                self.duplicates += 1
                if self.telemetry.enabled:
                    self.telemetry.metrics.counter(
                        "repro_process_duplicate_results_total",
                        "acks dropped because the task already completed",
                    ).labels(farm=self.name).inc()
                return
            self._completed_ids.add(task_id)
            record = self._tasks.pop(task_id, None)
            if handle is not None:
                handle.outstanding.discard(task_id)
            mark = max(now, self.departure_est._last_mark or 0.0)
            self.departure_est.mark(mark)
            self.completed += 1
            if record is not None:
                self._latencies.append((mark, mark - record.submitted_at))
                outcome = "error" if isinstance(result, Exception) else "ok"
                self.telemetry.end_span(record.dispatch, outcome=outcome)
                self.telemetry.end_span(record.root, outcome=outcome)
        self.results.put(result)

    def _note_worker_counter(self, handle: Optional[ProcessWorkerHandle], completed: int) -> None:
        """Fold a per-worker completion counter into the metrics registry."""
        if handle is None:
            return
        handle.reported_completed = max(handle.reported_completed, completed)
        handle.completed_gauge.set(handle.reported_completed)

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
        dead: List[int] = []
        with self._lock:
            now = self.now()
            for w in list(self.workers):
                if not w.active:
                    continue
                alive = w.process.is_alive()
                silent = (
                    w.last_seen > 0.0 or not alive
                ) and now - w.last_seen > self.heartbeat_timeout
                if alive and not silent:
                    continue
                if w.retiring and not alive and not w.outstanding:
                    w.active = False  # clean retirement, nothing to replay
                    continue
                self._declare_dead(w, now)
                dead.append(w.worker_id)
            self._dispatch_due_retries(now)
        return dead

    def _declare_dead(self, w: ProcessWorkerHandle, now: float) -> None:
        """Crash handling: replay every un-acked task of ``w`` (lock held)."""
        w.active = False
        self._gauge_quarantined()
        if w.process.is_alive():  # wedged, not dead: make it official
            try:
                w.process.kill()
            except Exception:  # noqa: BLE001
                pass
        self.crashes.append((now, w.worker_id))
        if self.telemetry.enabled:
            self.telemetry.metrics.counter(
                "repro_process_worker_crashes_total",
                "workers declared dead by the supervisor",
            ).labels(farm=self.name).inc()
        replayed = 0
        for task_id in sorted(w.outstanding):
            record = self._tasks.get(task_id)
            if record is None:
                continue
            # the attempt in flight died with the worker; its span stays
            # referenced by the record so the replay parents under it
            self.telemetry.end_span(record.dispatch, outcome="crashed")
            if record.attempts >= self.max_attempts:
                del self._tasks[task_id]
                self.telemetry.end_span(record.root, outcome="dead-letter")
                self.dead_letters.append(
                    DeadLetter(
                        task_id=task_id,
                        payload=record.payload,
                        attempts=record.attempts,
                        last_worker_id=w.worker_id,
                    )
                )
                if self.telemetry.enabled:
                    self.telemetry.metrics.counter(
                        "repro_process_dead_letter_total",
                        "tasks abandoned after exhausting the replay budget",
                    ).labels(farm=self.name).inc()
                continue
            delay = min(self.backoff_base * (2 ** (record.attempts - 1)), self.backoff_cap)
            record.worker_id = None
            record.next_retry_at = now + delay
            replayed += 1
        self.replays += replayed
        if replayed and self.telemetry.enabled:
            self.telemetry.metrics.counter(
                "repro_process_tasks_replayed_total",
                "task dispatches replayed after a worker death",
            ).labels(farm=self.name).inc(replayed)
        w.outstanding.clear()

    def _dispatch_due_retries(self, now: float) -> None:
        """Re-dispatch replayed tasks whose backoff has elapsed (lock held)."""
        if not any(w.active and not w.retiring for w in self.workers):
            return
        due = [
            r
            for r in self._tasks.values()
            if r.worker_id is None and r.next_retry_at <= now
        ]
        for record in sorted(due, key=lambda r: r.task_id):
            self._dispatch(record)

    # ------------------------------------------------------------------
    # monitoring
    # ------------------------------------------------------------------
    def snapshot(self) -> RuntimeFarmSnapshot:
        with self._lock:
            now = self.now()
            live = [w for w in self.workers if w.active and not w.quarantined]
            quarantined = sum(1 for w in self.workers if w.active and w.quarantined)
            lengths = tuple(len(w.outstanding) for w in live)
            _, var, _, _ = queue_length_stats(lengths)
            cutoff = now - self.rate_window
            while self._latencies and self._latencies[0][0] <= cutoff:
                self._latencies.popleft()
            mean_lat = (
                sum(lat for _, lat in self._latencies) / len(self._latencies)
                if self._latencies
                else 0.0
            )
            return RuntimeFarmSnapshot(
                time=now,
                arrival_rate=self.arrival_est.rate(now),
                departure_rate=self.departure_est.rate(now),
                num_workers=len(live),
                queue_lengths=lengths,
                queue_variance=var,
                completed=self.completed,
                pending=len(self._tasks),
                mean_latency=mean_lat,
                quarantined=quarantined,
            )

    @property
    def num_workers(self) -> int:
        """Serving capacity: live workers past the admission gate."""
        return sum(1 for w in self.workers if w.active and not w.quarantined)

    @property
    def quarantined_workers(self) -> int:
        return sum(1 for w in self.workers if w.active and w.quarantined)

    def _find_worker(self, worker_id: int) -> Optional[ProcessWorkerHandle]:
        for w in self.workers:
            if w.worker_id == worker_id:
                return w
        return None

    # ------------------------------------------------------------------
    # actuators
    # ------------------------------------------------------------------
    def add_worker(
        self, *, secured: bool = False, quarantined: bool = False
    ) -> ProcessWorkerHandle:
        with self._lock:
            # quarantined workers count against the limit: they hold a
            # real executor slot even while held out of dispatch
            if sum(1 for w in self.workers if w.active) >= self.max_workers:
                raise RuntimeError(f"worker limit {self.max_workers} reached")
            worker_id = self._next_id
            self._next_id += 1
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
                completed_gauge=self.telemetry.metrics.gauge(
                    "repro_process_worker_completed_tasks",
                    "cumulative tasks completed, as reported by each worker",
                ).labels(farm=self.name, worker=worker_id),
            )
            proc.start()
            self.workers.append(handle)
            self._gauge_quarantined()
            return handle

    def secure_worker(self, worker_id: int) -> bool:
        """Switch one worker's channel to encrypted payloads.

        The task pipe is parent-local, so as on the thread farm securing
        is flipping the emitter-side cipher on; the worker decrypts per
        item via the ``enc`` flag it already honours.
        """
        with self._lock:
            w = self._find_worker(worker_id)
            if w is None or not w.active:
                return False
            w.secured = True
            return True

    def admit_worker(self, worker_id: int) -> bool:
        """Lift the admission gate: the worker joins the dispatch set."""
        with self._lock:
            w = self._find_worker(worker_id)
            if w is None or not w.active:
                return False
            w.quarantined = False
            self._gauge_quarantined()
            # capacity just appeared: anything parked for retry can go now
            self._dispatch_due_retries(self.now())
            return True

    def _gauge_quarantined(self) -> None:
        if self.telemetry.enabled:
            self.telemetry.metrics.gauge(
                "repro_mc_quarantined_workers", "workers held at the admission gate"
            ).labels(farm=self.name).set(
                sum(1 for w in self.workers if w.active and w.quarantined)
            )

    def remove_worker(self) -> Optional[ProcessWorkerHandle]:
        """Retire the newest worker gracefully.

        The poison sentinel queues *behind* any tasks already dispatched
        to the victim, so it drains its backlog before exiting; the
        supervisor replays anything still un-acked if it dies instead.
        """
        with self._lock:
            # a retiring worker is already on its way out: it neither
            # counts toward the floor nor may be "removed" a second time;
            # quarantined workers are not serving capacity, so they are
            # neither victims nor part of the floor
            live = [w for w in self.workers if w.active and not w.retiring and not w.quarantined]
            if len(live) <= 1:
                return None
            victim = live[-1]
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
            live = [
                w for w in self.workers if w.active and not w.retiring and not w.quarantined
            ]
            if len(live) < 2:
                return 0
            for _ in range(1000):
                live.sort(key=lambda w: len(w.outstanding))
                shortest, longest = live[0], live[-1]
                if len(longest.outstanding) - len(shortest.outstanding) <= 1:
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
                    record.worker_id = shortest.worker_id
                    if record.root is not None:
                        # re-stamp the envelope so the exec span parents
                        # under the steal, not the superseded dispatch
                        tp = self._trace_dispatch(
                            record, shortest, outcome="rebalanced"
                        )
                        item = (item[0], item[1], item[2], tp)
                shortest.task_queue.put(item)
                self._dispatches.count(shortest)
                moved += 1
        return moved

    def secure_all(self) -> None:
        with self._lock:
            for w in self.workers:
                w.secured = True

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
            if worker_id is None:
                # default victims are serving workers: killing a
                # quarantined one proves nothing about fault recovery
                live = [
                    w
                    for w in self.workers
                    if w.active and not w.retiring and not w.quarantined
                ]
                if not live:
                    return None
                victim = live[-1]
            else:
                victim = self._find_worker(worker_id)
                if victim is None or not victim.active:
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
            for record in self._tasks.values():
                self.telemetry.end_span(record.dispatch, outcome="coordinator-crashed")
                self.telemetry.end_span(record.root, outcome="coordinator-crashed")
            self._tasks.clear()
        for w in workers:
            if w.process.is_alive():
                try:
                    w.process.kill()
                except Exception:  # noqa: BLE001
                    pass
        for w in workers:
            w.process.join(1.0)
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
        for t in (self._pump, self._supervisor):
            t.join(1.0)
        for w in workers:
            w.task_queue.close()
            w.task_queue.cancel_join_thread()
        self._result_q.close()
        self._result_q.cancel_join_thread()
        # abandoned tasks must not leak open spans into the export
        if self.telemetry.enabled:
            self.telemetry.flush()
