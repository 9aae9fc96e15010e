"""Thread-based task farm: live execution of the farm behavioural skeleton.

This is the wall-clock counterpart of :class:`repro.sim.farm.SimFarm`:
real worker threads executing a real Python callable over a stream of
tasks, with the same monitoring surface (arrival/departure rates, queue
lengths) and the same actuators (add/remove worker, rebalance, secure).
Python's GIL limits the parallel speed-up for CPU-bound functions
(repro-band note), so the quantitative experiments use the simulator;
this runtime exists to show that the identical manager/rule machinery
drives genuine concurrent execution — see
:class:`~repro.runtime.controller.ThreadFarmController`.

Secured channels are real here: task payloads (pickled) are encrypted by
the emitter and decrypted by the worker with the toy cipher from
:mod:`repro.security.crypto`, so securing a worker has an actual,
measurable cost.
"""

from __future__ import annotations

import pickle
import queue
import threading
import time
from collections import deque
from typing import Any, Callable, List, Optional

from ..obs.propagation import TraceContext, task_context
from ..obs.spans import Span
from ..obs.telemetry import NOOP, Telemetry
from ..security.crypto import decrypt, encrypt
from ..sim.metrics import WindowRateEstimator, queue_length_stats
from .backend import DispatchCounters, RuntimeFarmSnapshot, drain_queue

__all__ = ["ThreadFarm", "ThreadWorker", "RuntimeFarmSnapshot"]

_SECRET = b"repro-channel-key"


class _Poison:
    """Queue sentinel stopping one worker."""


class _TaskTrace:
    """Trace-context bookkeeping riding one task envelope in-process.

    Holds the task's root span and the *current* dispatch-attempt span;
    every re-dispatch (worker removal, rebalance) chains a new attempt
    span under the previous one, so the whole itinerary of a task is one
    tree however many queues it visited.
    """

    __slots__ = ("task_id", "root", "dispatch", "attempt")

    def __init__(self, task_id: int, root: Span) -> None:
        self.task_id = task_id
        self.root = root
        self.dispatch: Optional[Span] = None
        self.attempt = 0


class ThreadWorker:
    """One worker thread with a private task queue."""

    def __init__(
        self,
        farm: "ThreadFarm",
        worker_id: int,
        *,
        secured: bool = False,
        quarantined: bool = False,
    ) -> None:
        self.farm = farm
        self.worker_id = worker_id
        self.secured = secured
        self.quarantined = quarantined
        self.queue: "queue.Queue[Any]" = queue.Queue()
        self.completed = 0
        self.dispatched = 0
        self.active = True
        self._thread = threading.Thread(
            target=self._run, name=f"{farm.name}-w{worker_id}", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self.active = False
        self.queue.put(_Poison())

    def join(self, timeout: float = 10.0) -> None:
        self._thread.join(timeout)

    def _run(self) -> None:
        while True:
            item = self.queue.get()
            if isinstance(item, _Poison):
                return
            payload, enc, submitted_at, trace = item
            if enc:
                payload = pickle.loads(decrypt(_SECRET, payload))
            exec_span = self.farm._trace_exec(trace, self.worker_id)
            try:
                result = self.farm.fn(payload)
            except Exception as exc:  # noqa: BLE001 - surfaced via results
                result = exc
            if exec_span is not None:
                self.farm.telemetry.end_span(
                    exec_span,
                    outcome="error" if isinstance(result, Exception) else "ok",
                )
            self.completed += 1
            self.farm._deliver(
                result, secured=self.secured, submitted_at=submitted_at, trace=trace
            )


class ThreadFarm:
    """A live task farm executing ``fn`` over submitted tasks."""

    def __init__(
        self,
        fn: Callable[[Any], Any],
        *,
        initial_workers: int = 2,
        name: str = "tfarm",
        rate_window: float = 5.0,
        max_workers: int = 64,
        clock: Callable[[], float] = time.monotonic,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if initial_workers < 1:
            raise ValueError("need at least one worker")
        self.fn = fn
        self.name = name
        self.max_workers = max_workers
        self.telemetry = telemetry if telemetry is not None else NOOP
        self._dispatches = DispatchCounters(self.telemetry, name)
        self.results: "queue.Queue[Any]" = queue.Queue()
        self._lock = threading.Lock()
        self.workers: List[ThreadWorker] = []
        self._next_id = 0
        self._rr = 0
        self._clock = clock
        self._t0 = clock()
        self.arrival_est = WindowRateEstimator(rate_window, start_time=0.0)
        self.departure_est = WindowRateEstimator(rate_window, start_time=0.0)
        self.rate_window = rate_window
        self._latencies: "deque" = deque()  # (completion_time, latency)
        self.submitted = 0
        self.completed = 0
        self.end_of_stream = False
        for _ in range(initial_workers):
            self.add_worker()

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
        """Dispatch one task to an admitted worker (round robin).

        ``tenant`` (optional) names the submitting tenant; it is stamped
        on the task's root span so ``repro.obs.explain --tenant`` can
        reconstruct a single tenant's story from an export.

        ``traceparent`` (optional) parents this farm's span under a
        caller-owned root: the span becomes a ``task.attempt`` child
        instead of a fresh root, which is how a supervisor chains the
        attempts of successive coordinator incarnations into one tree.
        """
        with self._lock:
            self.arrival_est.mark(self.now())
            task_id = self.submitted
            self.submitted += 1
            live = [w for w in self.workers if w.active and not w.quarantined]
            if not live:
                raise RuntimeError("farm has no admitted workers")
            self._rr = (self._rr + 1) % len(live)
            worker = live[self._rr]
            now = self.now()
            trace = self._trace_submit(
                task_id, worker, tenant=tenant, traceparent=traceparent
            )
            if worker.secured:
                worker.queue.put(
                    (encrypt(_SECRET, pickle.dumps(payload)), True, now, trace)
                )
            else:
                worker.queue.put((payload, False, now, trace))
            self._dispatches.count(worker)

    # -- trace context -------------------------------------------------
    def _trace_submit(
        self,
        task_id: int,
        worker: ThreadWorker,
        tenant: Optional[str] = None,
        traceparent: Optional[str] = None,
    ) -> Optional[_TaskTrace]:
        """Open the task's root span + first dispatch attempt (lock held)."""
        if not self.telemetry.enabled:
            return None
        parent = TraceContext.from_traceparent(traceparent) if traceparent else None
        if parent is not None:
            root = self.telemetry.start_span(
                "task.attempt",
                actor=self.name,
                context=parent.child(f"{self.name}/task/{task_id}"),
                task_id=task_id,
                **({"tenant": tenant} if tenant is not None else {}),
            )
        else:
            root = self.telemetry.start_span(
                "task",
                actor=self.name,
                context=task_context(self.name, task_id),
                task_id=task_id,
                **({"tenant": tenant} if tenant is not None else {}),
            )
        trace = _TaskTrace(task_id, root)
        self._trace_dispatch(trace, worker)
        return trace

    def _trace_dispatch(
        self, trace: Optional[_TaskTrace], worker: ThreadWorker, outcome: Optional[str] = None
    ) -> None:
        """Chain one dispatch-attempt span onto a task's trace.

        The first attempt parents under the task root; every later
        attempt parents under the attempt it supersedes, which is what
        makes a replayed task read as one causal chain.
        """
        if trace is None:
            return
        prev = trace.dispatch
        if prev is not None and outcome is not None:
            self.telemetry.end_span(prev, outcome=outcome)
        trace.attempt += 1
        parent = prev.context if prev is not None else trace.root.context
        seed = f"{self.name}/task/{trace.task_id}/dispatch/{trace.attempt}"
        trace.dispatch = self.telemetry.start_span(
            "task.dispatch",
            actor=self.name,
            context=parent.child(seed),
            worker=worker.worker_id,
            attempt=trace.attempt,
            secured=worker.secured,
        )

    def _trace_exec(self, trace: Optional[_TaskTrace], worker_id: int) -> Optional[Span]:
        """Open the worker-side execution span (worker thread)."""
        if trace is None or trace.dispatch is None:
            return None
        return self.telemetry.start_span(
            "task.exec",
            actor=f"{self.name}-w{worker_id}",
            context=trace.dispatch.context.exec_child(worker_id),
            worker=worker_id,
        )

    def _trace_done(self, trace: Optional[_TaskTrace], *, error: bool) -> None:
        if trace is None:
            return
        outcome = "error" if error else "ok"
        self.telemetry.end_span(trace.dispatch, outcome=outcome)
        self.telemetry.end_span(trace.root, outcome=outcome)

    def _deliver(
        self,
        result: Any,
        *,
        secured: bool,
        submitted_at: float = 0.0,
        trace: Optional[_TaskTrace] = None,
    ) -> None:
        self._trace_done(trace, error=isinstance(result, Exception))
        with self._lock:
            now = max(self.now(), self.departure_est._last_mark or 0.0)
            self.departure_est.mark(now)
            self.completed += 1
            self._latencies.append((now, now - submitted_at))
        self.results.put(result)

    def drain_results(self, count: int, timeout: float = 30.0) -> List[Any]:
        """Collect ``count`` results (order of completion)."""
        return drain_queue(self.results, count, timeout)

    # ------------------------------------------------------------------
    # monitoring
    # ------------------------------------------------------------------
    def snapshot(self) -> RuntimeFarmSnapshot:
        with self._lock:
            now = self.now()
            live = [w for w in self.workers if w.active and not w.quarantined]
            quarantined = sum(1 for w in self.workers if w.active and w.quarantined)
            lengths = tuple(w.queue.qsize() for w in live)
            _, var, _, _ = queue_length_stats(lengths)
            cutoff = now - self.rate_window
            while self._latencies and self._latencies[0][0] <= cutoff:
                self._latencies.popleft()
            mean_lat = (
                sum(l for _, l in self._latencies) / len(self._latencies)
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
                pending=self.submitted - self.completed,
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

    # ------------------------------------------------------------------
    # actuators
    # ------------------------------------------------------------------
    def add_worker(self, *, secured: bool = False, quarantined: bool = False) -> ThreadWorker:
        with self._lock:
            # quarantined workers count against the limit: they hold a
            # real executor slot even while held out of dispatch
            if sum(1 for w in self.workers if w.active) >= self.max_workers:
                raise RuntimeError(f"worker limit {self.max_workers} reached")
            w = ThreadWorker(self, self._next_id, secured=secured, quarantined=quarantined)
            self._next_id += 1
            self.workers.append(w)
            self._gauge_quarantined()
            return w

    def secure_worker(self, worker_id: int) -> bool:
        """Switch one worker's channel to encrypted payloads.

        In-process queues have no wire to handshake over; securing a
        thread worker is flipping the emitter-side cipher on, exactly
        what :meth:`secure_all` does farm-wide.
        """
        with self._lock:
            for w in self.workers:
                if w.worker_id == worker_id and w.active:
                    w.secured = True
                    return True
        return False

    def admit_worker(self, worker_id: int) -> bool:
        """Lift the admission gate: the worker joins the dispatch set."""
        with self._lock:
            for w in self.workers:
                if w.worker_id == worker_id and w.active:
                    w.quarantined = False
                    self._gauge_quarantined()
                    return True
        return False

    def _gauge_quarantined(self) -> None:
        if self.telemetry.enabled:
            self.telemetry.metrics.gauge(
                "repro_mc_quarantined_workers", "workers held at the admission gate"
            ).labels(farm=self.name).set(
                sum(1 for w in self.workers if w.active and w.quarantined)
            )

    def remove_worker(self) -> Optional[ThreadWorker]:
        """Retire the newest admitted worker; its queued tasks are re-dispatched."""
        with self._lock:
            live = [w for w in self.workers if w.active and not w.quarantined]
            if len(live) <= 1:
                return None
            victim = live[-1]
            victim.active = False
        # drain outside the lock: submit() re-acquires it
        leftovers = []
        while True:
            try:
                item = victim.queue.get_nowait()
            except queue.Empty:
                break
            if not isinstance(item, _Poison):
                leftovers.append(item)
        victim.queue.put(_Poison())
        with self._lock:
            survivors = [w for w in self.workers if w.active and not w.quarantined]
            for i, item in enumerate(leftovers):
                target = survivors[i % len(survivors)]
                self._trace_dispatch(item[3], target, outcome="redispatched")
                target.queue.put(item)
                self._dispatches.count(target)
        return victim

    def balance_load(self) -> int:
        """Crude rebalance: move tasks from longest to shortest queues.

        Queue sizes are approximate under concurrency; this mirrors the
        best a real runtime can do and is sufficient for the actuator
        contract.
        """
        moved = 0
        with self._lock:
            live = [w for w in self.workers if w.active and not w.quarantined]
            if len(live) < 2:
                return 0
            for _ in range(1000):
                live.sort(key=lambda w: w.queue.qsize())
                shortest, longest = live[0], live[-1]
                if longest.queue.qsize() - shortest.queue.qsize() <= 1:
                    break
                try:
                    item = longest.queue.get_nowait()
                except queue.Empty:
                    break
                if isinstance(item, _Poison):
                    longest.queue.put(item)
                    break
                self._trace_dispatch(item[3], shortest, outcome="rebalanced")
                shortest.queue.put(item)
                self._dispatches.count(shortest)
                moved += 1
        return moved

    def secure_all(self) -> None:
        with self._lock:
            for w in self.workers:
                w.secured = True

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Simulate the coordinator process dying (SIGKILL semantics).

        Thread workers live *inside* the coordinator process, so they
        die with it: every queued envelope is dropped on the floor (its
        spans closed as ``coordinator-crashed``), every worker is
        stopped, and nothing is flushed — a dead process flushes
        nothing.  A task already executing may still finish and deliver
        into ``results``; the supervisor's journal dedup makes that
        at-least-once tail harmless.
        """
        with self._lock:
            workers = list(self.workers)
            for w in workers:
                w.active = False
        for w in workers:
            while True:
                try:
                    item = w.queue.get_nowait()
                except queue.Empty:
                    break
                if isinstance(item, _Poison):
                    continue
                trace = item[3]
                if trace is not None:
                    self.telemetry.end_span(trace.dispatch, outcome="coordinator-crashed")
                    self.telemetry.end_span(trace.root, outcome="coordinator-crashed")
            w.queue.put(_Poison())

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop every worker (pending tasks are abandoned)."""
        with self._lock:
            workers = list(self.workers)
            for w in workers:
                w.active = False
        for w in workers:
            w.queue.put(_Poison())
        for w in workers:
            w.join(timeout)
        # abandoned tasks must not leak open spans into the export
        if self.telemetry.enabled:
            self.telemetry.flush()
