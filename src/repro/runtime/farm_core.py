"""One farm core under two transports.

The paper keeps a skeleton's *mechanism* — the ABC's monitor and
actuator services — apart from the policy that steers it, and takes
that mechanism as uniform whatever the substrate underneath.
:class:`FarmCore` is that mechanism for the live farms, written once:
:class:`~repro.runtime.farm_runtime.ThreadFarm` (in-process queues) and
the stream coordinator of :mod:`~repro.runtime.dist_farm` — under both
:class:`~repro.runtime.process_farm.ProcessFarm` and
:class:`~repro.runtime.dist_farm.DistFarm` — inherit it and add only
their transport.

The core owns

* the **task lifecycle** on :class:`TaskRecord`: track a task and open
  its root span, begin and chain dispatch attempts, fail an attempt
  (crash, refusal, write failure, reattach) into a capped-exponential
  backoff on one retry heap and from there to a replay or a
  :class:`DeadLetter`, complete a task exactly once, abandon everything
  when the coordinator dies — after which it completes nothing;
* the **worker registry and admission gate**: the serving predicate,
  ``num_workers``/``quarantined_workers``, the worker limit, the admit
  flip, ``secure_all``, victim choice, the per-worker completed gauge;
* the **monitor**: ``now()``, the rate and latency windows, the one
  ``snapshot()``, ``drain_results``;
* every lifecycle **counter**, named under the farm's ``_METRICS``
  prefix and bound on first use (they are all cold paths).

A transport supplies: how a worker is started and stopped
(``add_worker``/``remove_worker``/``shutdown``/``crash``), how one
attempt is put on the channel (``_dispatch``), how acks and heartbeats
are read, the liveness test (``_is_lost``), what severing a lost worker
takes (``_sever``), its queue-length view (``_backlog``), steal
(``balance_load``) and, where there is a wire, the secure handshake.

Worker handles are the farm's own type; the core reads ``worker_id``,
``active``, ``retiring``, ``quarantined``, ``secured``, ``dispatched``
and — on farms that can lose a worker — ``outstanding`` (the task ids
awaiting an ack), ``reported_completed`` and ``completed_gauge``.

Locking: one re-entrant ``_lock`` guards all of the above.  Public
methods take it; every ``_``-prefixed method here expects the caller to
hold it, and none of them blocks.

A supervisor books its tasks here and nowhere else
(:mod:`repro.runtime.supervision`): it submits under its own stable id
(``task_id=``), points ``results`` at its own queue, and sets two
write-ahead hooks.  ``_on_complete(frame)`` is called once per
:meth:`~FarmCore._complete` pass that has fresh results, with the list
of that frame's fresh ``(task_id, result, failed)``, before any of them
is delivered; it returns ``None``, or the frame's results as it
journaled them (a result it could not record comes back as the failure
it recorded instead), which are then what is delivered.  If it raises,
the frame is delivered nowhere.  ``_on_worker_lost(worker_id)`` is
called once per lost worker.  Both run under ``_lock`` on whichever
thread completes or loses; they must take no lock of the supervisor's,
which calls into the farm holding its own.  A farm without the hook
builds no frame list.
"""

from __future__ import annotations

import heapq
import queue
import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..obs.rows import DispatchRow, TaskRow
from ..obs.telemetry import NOOP, Telemetry
from ..sim.metrics import WindowRateEstimator, queue_length_stats
from ..sim.resources import TRUSTED_DEFAULT, Node
from .backend import RuntimeFarmSnapshot, drain_queue

__all__ = ["FarmCore", "TaskRecord", "DeadLetter"]


class TaskRecord:
    """The farm's bookkeeping for one not-yet-acknowledged task."""

    __slots__ = (
        "task_id", "payload", "submitted_at", "attempts", "worker_id",
        "next_retry_at", "root", "dispatch",
    )

    def __init__(self, task_id: int, payload: Any, submitted_at: float) -> None:
        self.task_id = task_id
        self.payload = payload
        self.submitted_at = submitted_at
        self.attempts = 0
        self.worker_id: Optional[int] = None  # None: awaiting (re)dispatch
        self.next_retry_at = 0.0
        # trace rows (traced farms only): the task's root and its current
        # (or most recent) dispatch attempt, which a worker's execution
        # is stamped under
        self.root: Optional[TaskRow] = None
        self.dispatch: Optional[DispatchRow] = None


@dataclass(frozen=True)
class DeadLetter:
    """A task abandoned after exhausting its replay budget."""

    task_id: int
    payload: Any
    attempts: int
    last_worker_id: Optional[int]


class FarmCore:
    """Task lifecycle, worker registry, admission gate and monitor of a farm."""

    #: prefix of this farm's lifecycle series (``<_METRICS>_dead_letter_total`` …)
    _METRICS = "repro_farm"
    #: what this farm's transport calls a completion message, for the
    #: duplicate counter's help text
    _ACKS = "acks"
    #: one end of every task channel: the coordinator, on the trusted
    #: local domain (the security concern judges a link by its two ends)
    emitter_node = Node("emitter", domain=TRUSTED_DEFAULT)
    #: a supervisor's write-ahead hooks (see the module docstring)
    _on_complete: Optional[
        Callable[[List[Tuple[int, Any, bool]]], Optional[List[Any]]]
    ] = None
    _on_worker_lost: Optional[Callable[[int], None]] = None

    def __init__(
        self,
        name: str,
        *,
        rate_window: float,
        max_workers: int,
        clock: Callable[[], float],
        telemetry: Optional[Telemetry],
        backoff_base: float = 0.05,
        backoff_cap: float = 1.0,
        max_attempts: int = 5,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.name = name
        self.max_workers = max_workers
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.max_attempts = max_attempts
        self.telemetry = telemetry if telemetry is not None else NOOP
        # dispatch accounting, bound once (a disabled telemetry hands back
        # inert instruments, so the dispatch path counts without asking)
        metrics = self.telemetry.metrics
        self._dispatch_total = metrics.counter(
            "repro_mc_dispatch_total", "tasks handed to a worker queue"
        ).labels(farm=name)
        self._dispatch_insecure = metrics.counter(
            "repro_mc_insecure_dispatch_total",
            "tasks handed to a worker over an unsecured channel",
        ).labels(farm=name)
        self._clock = clock
        self._t0 = clock()

        self.results: "queue.Queue[Any]" = queue.Queue()
        self._lock = threading.RLock()
        self.workers: List[Any] = []
        self._next_id = 0

        self.arrival_est = WindowRateEstimator(rate_window, start_time=0.0)
        self.departure_est = WindowRateEstimator(rate_window, start_time=0.0)
        self.rate_window = rate_window
        self._latencies: "deque" = deque()  # (completion_time, latency)

        self._tasks: Dict[int, TaskRecord] = {}
        self._retry_heap: List[Tuple[float, int]] = []  # (due, task_id)
        self._completed_ids: Set[int] = set()
        self._task_seq = 0
        self.submitted = 0
        self.completed = 0
        self.dead_letters: List[DeadLetter] = []
        self.crashes: List[Tuple[float, int]] = []  # (time, worker_id)
        self.replays = 0
        self.duplicates = 0
        self._dead = False  # the coordinator crashed: nothing completes
        self._last_pass = 0.0  # farm time of the last supervision pass

    # ------------------------------------------------------------------
    # what a farm supplies
    # ------------------------------------------------------------------
    def _dispatch(self, record: TaskRecord) -> None:
        """Put one unassigned task on the channel, or queue it for the
        transport's own dispatch pass (lock held)."""
        raise NotImplementedError("a farm that replays says how a task is sent")

    def _is_lost(self, worker: Any, now: float) -> bool:
        """The liveness test for one active worker (lock held).

        A worker found to have left cleanly is no loss: the test clears
        its ``active`` flag itself and answers False.
        """
        return False

    def _sever(self, worker: Any) -> None:
        """Make a lost worker's death official: kill, disconnect (lock held)."""

    def _backlog(self, worker: Any) -> int:
        """This farm's queue-length view of one worker (lock held)."""
        return len(worker.outstanding)

    # ------------------------------------------------------------------
    # monitor
    # ------------------------------------------------------------------
    def now(self) -> float:
        return self._clock() - self._t0

    def drain_results(self, count: int, timeout: float = 30.0) -> List[Any]:
        """Collect ``count`` results (order of completion, deduplicated)."""
        return drain_queue(self.results, count, timeout)

    def snapshot(self) -> RuntimeFarmSnapshot:
        with self._lock:
            now = self.now()
            serving = self._serving()
            lengths = tuple(self._backlog(w) for w in serving)
            _, var, _, _ = queue_length_stats(lengths)
            self._expire_latencies(now)
            mean_lat = (
                sum(lat for _, lat in self._latencies) / len(self._latencies)
                if self._latencies
                else 0.0
            )
            return RuntimeFarmSnapshot(
                time=now,
                arrival_rate=self.arrival_est.rate(now),
                departure_rate=self.departure_est.rate(now),
                num_workers=len(serving),
                queue_lengths=lengths,
                queue_variance=var,
                completed=self.completed,
                pending=len(self._tasks),
                mean_latency=mean_lat,
                quarantined=self.quarantined_workers,
            )

    def _count(self, series: str, help: str, amount: int = 1) -> None:
        """Bump one of this farm's lifecycle counters, bound on first use."""
        if self.telemetry.enabled:
            self.telemetry.metrics.counter(f"{self._METRICS}_{series}", help).labels(
                farm=self.name
            ).inc(amount)

    # ------------------------------------------------------------------
    # worker registry and admission gate
    # ------------------------------------------------------------------
    def _serving(self) -> List[Any]:
        """The workers dispatch may select: alive, not on their way out
        and past the admission gate.  A quarantined worker is never a
        candidate — not for fresh submits, not for rebalancing, not for
        fault replays — and neither it nor a retiring worker is serving
        capacity, a removal victim or part of the floor."""
        return [
            w for w in self.workers if w.active and not w.retiring and not w.quarantined
        ]

    @property
    def num_workers(self) -> int:
        """Serving capacity: live workers past the admission gate."""
        return len(self._serving())

    @property
    def quarantined_workers(self) -> int:
        return sum(1 for w in self.workers if w.active and w.quarantined)

    def _find_worker(self, worker_id: int) -> Optional[Any]:
        for w in self.workers:
            if w.worker_id == worker_id:
                return w
        return None

    def _require_slot(self) -> None:
        # quarantined workers count against the limit: they hold a
        # real executor slot even while held out of dispatch
        if sum(1 for w in self.workers if w.active) >= self.max_workers:
            raise RuntimeError(f"worker limit {self.max_workers} reached")

    def _enroll(self, worker: Any) -> Any:
        """Track one new worker handle; ids below it are never reissued."""
        self._next_id = max(self._next_id, worker.worker_id + 1)
        self.workers.append(worker)
        self._gauge_quarantined()
        return worker

    def _gauge_quarantined(self) -> None:
        if self.telemetry.enabled:
            self.telemetry.metrics.gauge(
                "repro_mc_quarantined_workers", "workers held at the admission gate"
            ).labels(farm=self.name).set(self.quarantined_workers)

    def _completed_gauge(self, worker_id: int) -> Any:
        return self.telemetry.metrics.gauge(
            f"{self._METRICS}_worker_completed_tasks",
            "cumulative tasks completed, as reported by each worker",
        ).labels(farm=self.name, worker=worker_id)

    def _note_worker_counter(self, worker: Optional[Any], completed: int) -> None:
        """Fold a per-worker completion counter into the metrics registry."""
        if worker is None:
            return
        worker.reported_completed = max(worker.reported_completed, completed)
        worker.completed_gauge.set(worker.reported_completed)

    def _count_dispatch(self, worker: Any, tasks: int = 1) -> None:
        """Account ``tasks`` dispatches to ``worker``; those that leave
        over a channel the security concern has not secured are the leak
        window the multi-concern tests read."""
        worker.dispatched += tasks
        self._dispatch_total.inc(tasks)
        if not worker.secured:
            self._dispatch_insecure.inc(tasks)

    def secure_worker(self, worker_id: int) -> bool:
        """Switch one worker's channel to encrypted payloads.

        A channel local to the coordinator has no wire to handshake
        over: securing it is flipping the emitter-side cipher on,
        exactly what :meth:`secure_all` does farm-wide.
        """
        with self._lock:
            w = self._find_worker(worker_id)
            if w is None or not w.active:
                return False
            w.secured = True
            return True

    def secure_all(self) -> None:
        """Encrypt every future task payload."""
        with self._lock:
            for w in self.workers:
                w.secured = True

    def admit_worker(self, worker_id: int) -> bool:
        """Lift the admission gate: the worker joins the dispatch set."""
        with self._lock:
            w = self._find_worker(worker_id)
            if w is None or not w.active:
                return False
            w.quarantined = False
            self._gauge_quarantined()
            # capacity just appeared: anything parked for retry can go now
            self._release_due(self.now())
            return True

    def _pick_retiree(self) -> Optional[Any]:
        """The newest serving worker, unless it is the last one."""
        serving = self._serving()
        return serving[-1] if len(serving) > 1 else None

    def _pick_victim(self, worker_id: Optional[int]) -> Optional[Any]:
        """Choose a worker to inject a fault into.

        Default victims are serving workers: killing a quarantined one
        proves nothing about fault recovery.  An explicit id may name
        any live worker, quarantined or not.
        """
        if worker_id is None:
            serving = self._serving()
            return serving[-1] if serving else None
        victim = self._find_worker(worker_id)
        if victim is None or not victim.active:
            return None
        return victim

    # ------------------------------------------------------------------
    # task lifecycle
    # ------------------------------------------------------------------
    def _track(
        self,
        payload: Any,
        tenant: Optional[str],
        traceparent: Optional[str],
        task_id: Optional[int] = None,
    ) -> TaskRecord:
        """Accept one task: count its arrival, open its root span.

        ``tenant`` is stamped on the root span so ``repro.obs.explain
        --tenant`` can reconstruct one tenant's story from an export.
        A supervisor passes its own stable ``task_id`` (the sid) and a
        ``traceparent``: the span is then a ``task.attempt`` child of the
        supervisor's root instead of a fresh root, so every incarnation's
        attempt chains into one tree.  Task spans are kept as rows
        (:mod:`repro.obs.rows`), built into spans when the store is read.
        """
        now = self.now()
        self.arrival_est.mark(now)
        self.submitted += 1
        if task_id is None:
            task_id = self._task_seq
            self._task_seq += 1
        record = TaskRecord(task_id, payload, now)
        telemetry = self.telemetry
        if telemetry.enabled:
            record.root = TaskRow(
                self.name, task_id, tenant, traceparent, telemetry.clock.now()
            )
            telemetry.spans._add_row(record.root)
        self._tasks[task_id] = record
        return record

    def _begin_attempt(
        self, record: TaskRecord, worker: Any, outcome: Optional[str] = None
    ) -> None:
        """Charge one more dispatch of ``record``, to ``worker``."""
        record.attempts += 1
        record.worker_id = worker.worker_id
        if record.root is not None:
            self._chain_dispatch(record, worker, outcome)

    def _chain_dispatch(
        self, record: TaskRecord, worker: Any, outcome: Optional[str] = None
    ) -> None:
        """Open a dispatch-attempt span on a traced task.

        The first attempt parents under the task root; every later one
        (crash replay, refused bounce, steal) parents under the attempt
        it supersedes — the replayed execution lands *inside* the failed
        dispatch's subtree, which is what makes the fault story legible.
        ``outcome`` closes a superseded attempt that is still open.
        """
        telemetry = self.telemetry
        now = telemetry.clock.now()
        prev = record.dispatch
        if prev is not None and outcome is not None:
            prev.close(now, outcome)
        record.dispatch = DispatchRow(
            record.root if prev is None else prev,
            worker.worker_id,
            record.attempts,
            worker.secured,
            now,
        )
        telemetry.spans._add_row(record.dispatch)

    def _park(self, record: TaskRecord, due: float) -> None:
        """Leave ``record`` unassigned until ``due``."""
        record.worker_id = None
        record.next_retry_at = due
        heapq.heappush(self._retry_heap, (due, record.task_id))

    def _attempt_failed(
        self, record: TaskRecord, worker_id: int, outcome: str, now: float
    ) -> None:
        """The attempt in flight on ``worker_id`` is lost: replay or bury.

        Its span stays referenced by the record so the replay parents
        under it.  Replay is at-least-once — a task whose ack was in
        flight runs twice — and :meth:`_complete` dedupes.
        """
        buried = record.attempts >= self.max_attempts
        self._close_trace(record, outcome, "dead-letter" if buried else None)
        if buried:
            del self._tasks[record.task_id]
            self.dead_letters.append(
                DeadLetter(
                    task_id=record.task_id,
                    payload=record.payload,
                    attempts=record.attempts,
                    last_worker_id=worker_id,
                )
            )
            self._count(
                "dead_letter_total", "tasks abandoned after exhausting the replay budget"
            )
            return
        self.replays += 1
        self._count("tasks_replayed_total", "task dispatches replayed after a worker death")
        delay = min(self.backoff_base * (2 ** (record.attempts - 1)), self.backoff_cap)
        self._park(record, now + delay)

    def _worker_lost(self, worker: Any, now: float) -> None:
        """Crash handling: replay every un-acked task of ``worker``."""
        worker.active = False
        self._gauge_quarantined()
        self._sever(worker)
        self.crashes.append((now, worker.worker_id))
        self._count("worker_crashes_total", "workers declared dead by the supervisor")
        if self._on_worker_lost is not None:
            self._on_worker_lost(worker.worker_id)
        for task_id in sorted(worker.outstanding):
            record = self._tasks.get(task_id)
            if record is not None:
                self._attempt_failed(record, worker.worker_id, "crashed", now)
        worker.outstanding.clear()

    def _release_due(self, now: float) -> None:
        """Hand the transport every parked task whose time has come.

        Only parked tasks live on the heap, so the steady state costs
        nothing per tick however deep the live task table is — and with
        no serving worker they stay parked until one is admitted.
        """
        if not self._retry_heap or not self._serving():
            return
        due: List[int] = []
        while self._retry_heap and self._retry_heap[0][0] <= now:
            due.append(heapq.heappop(self._retry_heap)[1])
        for task_id in due:
            record = self._tasks.get(task_id)
            if (
                record is not None
                and record.worker_id is None
                and record.next_retry_at <= now
            ):
                self._dispatch(record)

    def _supervise_pass(self) -> List[int]:
        """One supervision pass: the ids of workers found lost in it."""
        lost: List[int] = []
        with self._lock:
            now = self._last_pass = self.now()
            for w in list(self.workers):
                if w.active and self._is_lost(w, now):
                    self._worker_lost(w, now)
                    lost.append(w.worker_id)
            self._release_due(now)
        return lost

    def _complete(
        self, now: float, acks: Iterable[Tuple[int, Any, bool]], fresh: List[Any]
    ) -> None:
        """Account one frame's results (lock held); ``fresh`` gets the
        ``result`` of each ``(task_id, result, failed)`` that counts.

        A duplicate is dropped: a replayed task can also finish on its
        original worker — at-least-once underneath, exactly-once
        outward.  The frame's results share one departure time, so the
        window is marked once per frame, and a supervisor's
        ``_on_complete`` hook sees them as one list; if ``acks`` raises
        (an entry of the wrong shape), those before it still complete.
        A crashed coordinator completes nothing.
        """
        if self._dead:
            return
        # acks are stamped before the lock that orders them is taken
        t = self.departure_est.clamp(now)
        completed_ids, tasks, latencies = self._completed_ids, self._tasks, self._latencies
        on_complete = self._on_complete
        frame: Optional[List[Tuple[int, Any, bool]]] = None if on_complete is None else []
        done = 0
        try:
            for task_id, result, failed in acks:
                if task_id in completed_ids:
                    self.duplicates += 1
                    self._count(
                        "duplicate_results_total",
                        f"{self._ACKS} dropped because the task already completed",
                    )
                    continue
                completed_ids.add(task_id)
                done += 1
                if frame is not None:
                    frame.append((task_id, result, failed))
                fresh.append(result)
                record = tasks.pop(task_id, None)
                if record is not None:
                    latencies.append((t, t - record.submitted_at))
                    if record.root is not None:
                        outcome = "error" if failed else "ok"
                        self._close_trace(record, outcome, outcome)
        finally:
            if done:
                self.departure_est.mark(t, done)
                self.completed += done
                self._expire_latencies(t)
            if frame:
                base = len(fresh) - len(frame)
                try:
                    journaled = on_complete(frame)
                except BaseException:
                    del fresh[base:]  # not journaled: delivered nowhere
                    raise
                if journaled is not None:
                    fresh[base:] = journaled

    def _expire_latencies(self, now: float) -> None:
        """Drop the latencies that have left the window ending at ``now``."""
        cutoff = now - self.rate_window
        latencies = self._latencies
        while latencies and latencies[0][0] <= cutoff:
            latencies.popleft()

    def _abandon_all(self, outcome: str) -> None:
        """The coordinator has crashed: close every open task's spans,
        and complete nothing from here on."""
        self._dead = True
        for record in self._tasks.values():
            self._close_trace(record, outcome, outcome)
        self._tasks.clear()
        self._retry_heap.clear()

    def _close_trace(
        self, record: TaskRecord, outcome: str, task_outcome: Optional[str]
    ) -> None:
        """Close a traced task's latest attempt with ``outcome`` and, with
        a ``task_outcome``, the task itself (untraced: nothing to do)."""
        root = record.root
        if root is None:
            return
        end = self.telemetry.clock.now()
        if record.dispatch is not None:
            record.dispatch.close(end, outcome)
        if task_outcome is not None:
            root.close(end, task_outcome)
