"""Thread-based task farm: live execution of the farm behavioural skeleton.

This is the wall-clock counterpart of :class:`repro.sim.farm.SimFarm`:
real worker threads executing a real Python callable over a stream of
tasks, with the same monitoring surface (arrival/departure rates, queue
lengths) and the same actuators (add/remove worker, rebalance, secure).
Python's GIL limits the parallel speed-up for CPU-bound functions
(repro-band note), so the quantitative experiments use the simulator;
this runtime exists to show that the identical manager/rule machinery
drives genuine concurrent execution — see
:class:`~repro.runtime.controller.FarmController`.

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
from typing import Any, Callable, Optional

from ..obs.rows import ExecRow
from ..obs.telemetry import Telemetry
from ..security.crypto import decrypt, encrypt
from .backend import RuntimeFarmSnapshot
from .farm_core import FarmCore, TaskRecord

__all__ = ["ThreadFarm", "ThreadWorker", "RuntimeFarmSnapshot"]

_SECRET = b"repro-channel-key"


class _Poison:
    """Queue sentinel stopping one worker."""


class ThreadWorker:
    """One worker thread with a private task queue."""

    #: a removed thread worker stops at once (its backlog is re-queued),
    #: so there is no retiring state to pass through
    retiring = False

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
        self.name = f"{farm.name}-w{worker_id}"  # its thread, its exec spans' actor
        self.secured = secured
        self.quarantined = quarantined
        self.queue: "queue.Queue[Any]" = queue.Queue()
        self.completed = 0
        self.dispatched = 0
        self.active = True
        self._thread = threading.Thread(
            target=self._run, name=self.name, daemon=True
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
            payload, enc, _, record = item
            if enc:
                payload = pickle.loads(decrypt(_SECRET, payload))
            run = self.farm._trace_exec(record, self)
            try:
                result = self.farm.fn(payload)
            except Exception as exc:  # noqa: BLE001 - surfaced via results
                result = exc
            if run is not None:
                run.close(
                    self.farm.telemetry.clock.now(),
                    "error" if isinstance(result, Exception) else "ok",
                )
            self.completed += 1
            self.farm._deliver(record, result)


class ThreadFarm(FarmCore):
    """A live task farm executing ``fn`` over submitted tasks.

    The transport is an in-process queue per worker.  An envelope is
    ``(payload, encrypted?, submit time, record)``; the record is the
    task's :class:`~repro.runtime.farm_core.TaskRecord`, or ``None`` on
    an envelope somebody put on a queue by hand, which is executed and
    delivered but was never tracked.  A thread worker cannot be lost, so
    the core's replay machinery never runs here.
    """

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
        super().__init__(
            name,
            rate_window=rate_window,
            max_workers=max_workers,
            clock=clock,
            telemetry=telemetry,
        )
        self.fn = fn
        self._rr = 0
        self.end_of_stream = False
        for _ in range(initial_workers):
            self.add_worker()

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

        ``tenant`` and ``traceparent`` shape the task's root span; see
        :meth:`FarmCore._track <repro.runtime.farm_core.FarmCore._track>`.
        """
        with self._lock:
            serving = self._serving()
            if not serving:
                raise RuntimeError("farm has no admitted workers")
            self._rr = (self._rr + 1) % len(serving)
            worker = serving[self._rr]
            record = self._track(payload, tenant, traceparent)
            if worker.secured:
                payload = encrypt(_SECRET, pickle.dumps(payload))
            self._put((payload, worker.secured, record.submitted_at, record), worker)

    def _put(self, item: tuple, worker: ThreadWorker, outcome: Optional[str] = None) -> None:
        """Queue one envelope on ``worker`` (lock held); ``outcome`` says
        why it left the queue it was on before."""
        record = item[3]
        if record is not None:
            self._begin_attempt(record, worker, outcome)
        worker.queue.put(item)
        self._count_dispatch(worker)

    def _trace_exec(
        self, record: Optional[TaskRecord], worker: ThreadWorker
    ) -> Optional[ExecRow]:
        """Open the worker-side execution span, as a row (worker thread)."""
        if record is None or record.dispatch is None:
            return None
        run = ExecRow(
            record.dispatch, worker.name, worker.worker_id, None, self.telemetry.clock.now()
        )
        self.telemetry.spans._add_row(run)
        return run

    def _deliver(self, record: Optional[TaskRecord], result: Any) -> None:
        if record is not None:
            with self._lock:
                # a thread worker is never lost, so no task is replayed
                # and no result can be a duplicate: every one is delivered
                self._complete(
                    self.now(),
                    ((record.task_id, result, isinstance(result, Exception)),),
                    [],
                )
        self.results.put(result)

    def _backlog(self, worker: ThreadWorker) -> int:
        return worker.queue.qsize()

    # ------------------------------------------------------------------
    # actuators
    # ------------------------------------------------------------------
    def add_worker(self, *, secured: bool = False, quarantined: bool = False) -> ThreadWorker:
        with self._lock:
            self._require_slot()
            return self._enroll(
                ThreadWorker(self, self._next_id, secured=secured, quarantined=quarantined)
            )

    def remove_worker(self) -> Optional[ThreadWorker]:
        """Retire the newest admitted worker; its queued tasks are re-dispatched."""
        with self._lock:
            victim = self._pick_retiree()
            if victim is None:
                return None
            victim.active = False
            leftovers = self._drain(victim)
            survivors = self._serving()
            for i, item in enumerate(leftovers):
                self._put(item, survivors[i % len(survivors)], outcome="redispatched")
        return victim

    def _drain(self, worker: ThreadWorker) -> list:
        """Empty a stopping worker's queue and poison it; returns the
        envelopes that were still waiting."""
        leftovers = []
        while True:
            try:
                item = worker.queue.get_nowait()
            except queue.Empty:
                break
            if not isinstance(item, _Poison):
                leftovers.append(item)
        worker.queue.put(_Poison())
        return leftovers

    def balance_load(self) -> int:
        """Crude rebalance: move tasks from longest to shortest queues.

        Queue sizes are approximate under concurrency; this mirrors the
        best a real runtime can do and is sufficient for the actuator
        contract.
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
                    item = longest.queue.get_nowait()
                except queue.Empty:
                    break
                if isinstance(item, _Poison):
                    longest.queue.put(item)
                    break
                self._put(item, shortest, outcome="rebalanced")
                moved += 1
        return moved

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Simulate the coordinator process dying (SIGKILL semantics).

        Thread workers live *inside* the coordinator process, so they
        die with it: every open task ends as ``coordinator-crashed``,
        every queued envelope is dropped on the floor, every worker is
        stopped, and nothing is flushed — a dead process flushes
        nothing.  A task already executing may still finish and deliver
        into ``results``; the supervisor's journal dedup makes that
        at-least-once tail harmless.
        """
        with self._lock:
            for w in self.workers:
                w.active = False
                self._drain(w)
            self._abandon_all("coordinator-crashed")

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
