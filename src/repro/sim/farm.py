"""Simulated task-farm: the functional-replication pattern's mechanisms.

This is the *managed element* underneath a farm behavioural skeleton: an
emitter ``S`` dispatching a stream of tasks to ``n`` workers ``W`` whose
results are gathered by a collector ``C`` (Figure 2, left).  Everything
an autonomic manager can observe or do to a farm lives here:

**Monitoring** (sampled by the ABC controller each control tick):
arrival rate, departure rate, number of workers, per-worker queue
lengths and their variance, utilisation.  During a reconfiguration the
farm is in *blackout* and reports no sensor data — reproducing the gap
in Figure 4's second graph ("No sensor data is available for AM_F
during the reconfiguration").

**Actuators** (invoked by manager rules through the ABC):
``add_worker`` (with a setup delay — new workers "start processing
incoming tasks" only after instantiation), ``remove_worker``,
``balance_load`` (redistribute queued tasks — the ``rebalance`` events),
``secure_worker`` (switch a worker's bindings to the secure protocol).

:class:`FunctionalReplication` owns that surface once.  The task farm
(:class:`SimFarm`), the data-parallel map (:class:`~repro.sim.map.SimMap`)
and the farm of pipelines (:class:`~repro.sim.farmpipe.
SimFarmOfPipelines`) subclass it and differ only in how tasks reach the
workers and how a worker retires, so one
:class:`~repro.gcm.abc_controller.FarmABC` drives all three.

Transfers emitter→worker and worker→collector go through the
:class:`~repro.sim.network.Network` when one is attached, so the
security concern's leak accounting sees every farm message.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, List, Optional

from .engine import Interrupt, Process, Simulator
from .metrics import UtilizationMeter, WindowRateEstimator, queue_length_stats
from .network import Message, Network
from .queues import Store, rebalance as rebalance_stores, transfer
from .resources import Node
from .workload import Task

__all__ = ["FunctionalReplication", "SimFarm", "FarmWorker", "FarmSnapshot", "DispatchPolicy"]


@dataclass(frozen=True)
class FarmSnapshot:
    """One monitoring sample of a farm (the beans' raw data)."""

    time: float
    arrival_rate: float
    departure_rate: float
    num_workers: int
    queue_lengths: tuple
    queue_variance: float
    utilization: float
    completed: int
    pending: int
    #: mean completion latency over the monitoring window (0 if none)
    mean_latency: float = 0.0


class DispatchPolicy:
    """Emitter scheduling policies (the paper's S component policy)."""

    ROUND_ROBIN = "round-robin"
    SHORTEST_QUEUE = "shortest-queue"

    ALL = (ROUND_ROBIN, SHORTEST_QUEUE)


class FarmWorker:
    """One worker replica: a process pulling from its private queue."""

    def __init__(
        self,
        sim: Simulator,
        farm: "SimFarm",
        node: Node,
        worker_id: int,
        *,
        secured: bool = False,
    ) -> None:
        self.sim = sim
        self.farm = farm
        self.node = node
        self.worker_id = worker_id
        self.secured = secured
        self.queue = Store(sim, name=f"{farm.name}.w{worker_id}.q")
        self.util = UtilizationMeter(start_time=sim.now)
        self.completed = 0
        # `active` = visible to the emitter's scheduler (False during setup);
        # `_stopped` = the worker process must terminate.  They differ while
        # a freshly added worker is still deploying.
        self.active = True
        self._stopped = False
        self.current_task: Optional[Task] = None
        self._proc: Process = sim.process(self._run(), name=f"{farm.name}.w{worker_id}")

    @property
    def name(self) -> str:
        return f"{self.farm.name}.w{self.worker_id}"

    def stop(self) -> None:
        """Stop after the current task; queued tasks must be drained first."""
        self.active = False
        self._stopped = True
        if self.current_task is None and self._proc.alive:
            self._proc.interrupt("stop")

    def _run(self) -> Iterator[Any]:
        while not self._stopped:
            try:
                task = yield self.queue.get()
            except Interrupt:
                break
            self.current_task = task
            task.started_at = self.sim.now
            self.util.set_busy(self.sim.now)
            work = self.farm.work_override if self.farm.work_override is not None else task.work
            service = self.node.service_time(work, self.sim.now)
            tel = self.farm.telemetry
            if tel is not None and tel.enabled:
                tel.metrics.histogram(
                    "repro_worker_service_time",
                    "per-task service time in simulated seconds",
                    buckets=self.farm.SERVICE_TIME_BUCKETS,
                ).labels(farm=self.farm.name, worker=self.name).observe(service)
            yield self.sim.timeout(service)
            task.completed_at = self.sim.now
            self.util.set_idle(self.sim.now)
            self.completed += 1
            self.current_task = None
            self.farm._on_task_done(self, task)


class FunctionalReplication:
    """The monitor and actuator surface every replication mechanism shares.

    A worker is anything with ``active``, ``_stopped``, ``secured``, a
    ``queue`` and a ``util`` meter.  A subclass supplies its worker type
    (:meth:`_new_worker`), the dispatcher process that feeds the workers,
    ``pending``, and the actuators whose rules differ between patterns:
    ``remove_worker``, ``balance_load``, ``fail_worker`` and
    ``migrate_worker``.  A worker whose backlog or busy time is not one
    queue and one meter overrides :meth:`_backlog` / :meth:`_meters`.
    """

    #: histogram bounds for reconfiguration blackout durations
    BLACKOUT_BUCKETS = (0.5, 1.0, 2.5, 5.0, 10.0, 20.0, 40.0)

    def __init__(
        self,
        sim: Simulator,
        *,
        name: str,
        rate_window: float,
        worker_setup_time: float,
        on_result: Optional[Callable[[Task], None]],
        input_store: Optional[Store] = None,
        output_store: Optional[Store] = None,
        telemetry: Any = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.rate_window = rate_window
        self.worker_setup_time = worker_setup_time
        self.on_result = on_result
        #: optional repro.obs.Telemetry; purely passive (never schedules)
        self.telemetry = telemetry

        # Adopting existing stores lets a farm take over a SeqStage's
        # plumbing in place — the §4.2 stage-to-farm transformation.
        self.input = input_store if input_store is not None else Store(sim, name=f"{name}.input")
        self.output = output_store if output_store is not None else Store(sim, name=f"{name}.output")
        self.workers: List[Any] = []
        self._next_worker_id = 0

        self.arrival_est = WindowRateEstimator(rate_window, start_time=sim.now)
        self.departure_est = WindowRateEstimator(rate_window, start_time=sim.now)
        # (completion_time, latency) of recent results, for the latency SLA
        self._latencies: deque = deque()
        self.completed = 0
        self.end_of_stream = False

        # Reconfiguration blackout: monitoring returns None until this time.
        self._blackout_until = -1.0
        self.reconfigurations = 0
        self.failures = 0

    # ------------------------------------------------------------------
    # what a pattern supplies
    # ------------------------------------------------------------------
    def _new_worker(self, node: Any, worker_id: int, secured: bool) -> Any:
        """Build (and start) one worker of this pattern on ``node``."""
        raise NotImplementedError

    def _backlog(self, worker: Any) -> int:
        """Tasks waiting at ``worker`` (its entry in ``queue_lengths``)."""
        return len(worker.queue)

    def _meters(self, worker: Any) -> Iterable[UtilizationMeter]:
        """The busy-time meters that ``worker`` adds to ``utilization``."""
        return (worker.util,)

    def _deliver(self, task: Task) -> None:
        """Emit a completed task on the output stream."""
        self.departure_est.mark(self.sim.now)
        self.completed += 1
        self.output.put_nowait(task)
        if self.on_result is not None:
            self.on_result(task)

    # ------------------------------------------------------------------
    # monitoring (ABC monitor services)
    # ------------------------------------------------------------------
    @property
    def in_blackout(self) -> bool:
        """True while a reconfiguration suppresses sensor data."""
        return self.sim.now < self._blackout_until

    def snapshot(self) -> Optional[FarmSnapshot]:
        """Monitoring sample, or None during a reconfiguration blackout."""
        if self.in_blackout:
            return None
        return self.force_snapshot()

    def mean_latency(self) -> float:
        """Mean completion latency over the monitoring window."""
        cutoff = self.sim.now - self.rate_window
        while self._latencies and self._latencies[0][0] <= cutoff:
            self._latencies.popleft()
        if not self._latencies:
            return 0.0
        return sum(lat for _, lat in self._latencies) / len(self._latencies)

    def force_snapshot(self) -> FarmSnapshot:
        """Monitoring sample ignoring blackout (for post-run analysis)."""
        live = [w for w in self.workers if w.active]
        lengths = tuple(self._backlog(w) for w in live)
        _, var, _, _ = queue_length_stats(lengths)
        meters = [m for w in live for m in self._meters(w)]
        util = (
            sum(m.utilization(self.sim.now) for m in meters) / len(meters)
            if meters
            else 0.0
        )
        return FarmSnapshot(
            time=self.sim.now,
            arrival_rate=self.arrival_est.rate(self.sim.now),
            departure_rate=self.departure_est.rate(self.sim.now),
            num_workers=len(live),
            queue_lengths=lengths,
            queue_variance=var,
            utilization=util,
            completed=self.completed,
            pending=self.pending,
            mean_latency=self.mean_latency(),
        )

    @property
    def num_workers(self) -> int:
        return sum(1 for w in self.workers if w.active)

    # ------------------------------------------------------------------
    # actuators (ABC actuator services)
    # ------------------------------------------------------------------
    def add_worker(self, node: Any, *, secured: bool = False) -> Any:
        """Instantiate a new worker on ``node``.

        The worker joins the scheduler only after ``worker_setup_time``
        (deployment + lifecycle start in GCM terms); the farm is in
        monitoring blackout until then.
        """
        wid = self._next_worker_id
        self._next_worker_id += 1
        worker = self._new_worker(node, wid, secured)
        if self.worker_setup_time > 0:
            # Hide it from the scheduler until setup completes.  The
            # blackout outlasts activation by an epsilon so a control tick
            # landing exactly on the activation instant cannot observe a
            # half-initialised farm.
            worker.active = False
            self._begin_blackout(self.worker_setup_time + 1e-6)

            def activate() -> None:
                if not worker._stopped:
                    worker.active = True

            self.sim.schedule(self.worker_setup_time, activate)
        self.workers.append(worker)
        self.reconfigurations += 1
        return worker

    def secure_worker(self, worker: Any) -> None:
        """Switch a worker's bindings to the secure protocol."""
        worker.secured = True

    def secure_all(self) -> None:
        for w in self.workers:
            self.secure_worker(w)

    def _begin_blackout(self, duration: float) -> None:
        self._blackout_until = max(self._blackout_until, self.sim.now + duration)
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.metrics.histogram(
                "repro_reconfiguration_blackout_seconds",
                "sensor-data blackout caused by one reconfiguration",
                buckets=self.BLACKOUT_BUCKETS,
            ).labels(farm=self.name).observe(duration)
            tel.event("farm.blackout", farm=self.name, duration=duration)

    # ------------------------------------------------------------------
    # stream plumbing
    # ------------------------------------------------------------------
    def submit(self, task: Task) -> None:
        """Inject a task into the input stream."""
        self.input.put_nowait(task)

    def notify_end_of_stream(self) -> None:
        """Mark that no further tasks will arrive."""
        self.end_of_stream = True

    @property
    def drained(self) -> bool:
        """True when the stream ended and all accepted tasks completed."""
        return self.end_of_stream and self.pending == 0


class SimFarm(FunctionalReplication):
    """Functional-replication farm over the DES substrate."""

    #: histogram bounds for per-task service times (simulated seconds)
    SERVICE_TIME_BUCKETS = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

    def __init__(
        self,
        sim: Simulator,
        *,
        name: str = "farm",
        emitter_node: Node,
        collector_node: Optional[Node] = None,
        network: Optional[Network] = None,
        dispatch: str = DispatchPolicy.ROUND_ROBIN,
        rate_window: float = 10.0,
        worker_setup_time: float = 5.0,
        task_size_kb: float = 64.0,
        result_size_kb: float = 16.0,
        on_result: Optional[Callable[[Task], None]] = None,
        input_store: Optional[Store] = None,
        output_store: Optional[Store] = None,
        work_override: Optional[float] = None,
        telemetry: Any = None,
    ) -> None:
        if dispatch not in DispatchPolicy.ALL:
            raise ValueError(f"unknown dispatch policy {dispatch!r}")
        if work_override is not None and work_override <= 0:
            raise ValueError("work_override must be positive")
        super().__init__(
            sim,
            name=name,
            rate_window=rate_window,
            worker_setup_time=worker_setup_time,
            on_result=on_result,
            input_store=input_store,
            output_store=output_store,
            telemetry=telemetry,
        )
        self.emitter_node = emitter_node
        self.collector_node = collector_node or emitter_node
        self.network = network
        self.dispatch = dispatch
        self.task_size_kb = task_size_kb
        self.result_size_kb = result_size_kb
        # When set, every task costs this much work here regardless of its
        # own `work` (a farmed *stage* applies the stage's service work).
        self.work_override = work_override
        self._rr_index = 0

        self._emitter_proc = sim.process(self._emit_loop(), name=f"{name}.emitter")

    def _new_worker(self, node: Node, worker_id: int, secured: bool) -> FarmWorker:
        return FarmWorker(self.sim, self, node, worker_id, secured=secured)

    # ------------------------------------------------------------------
    # emitter
    # ------------------------------------------------------------------
    def _emit_loop(self) -> Iterator[Any]:
        while True:
            # Wait until at least one worker is live before accepting a
            # task: taking-and-requeueing would double-count arrivals.
            if not any(w.active for w in self.workers):
                yield self.sim.timeout(0.05)
                continue
            task = yield self.input.get()
            self.arrival_est.mark(self.sim.now)
            worker = self._pick_worker()
            if worker is None:  # pragma: no cover - all workers stopped mid-get
                self.input.items.appendleft(task)
                self.input.total_got -= 1
                yield self.sim.timeout(0.05)
                continue
            self._dispatch_to(worker, task)

    def _pick_worker(self) -> Optional[FarmWorker]:
        live = [w for w in self.workers if w.active]
        if not live:
            return None
        if self.dispatch == DispatchPolicy.SHORTEST_QUEUE:
            return min(live, key=lambda w: (len(w.queue), w.worker_id))
        # round-robin over live workers
        self._rr_index = (self._rr_index + 1) % len(live)
        return live[self._rr_index]

    def _dispatch_to(self, worker: FarmWorker, task: Task) -> None:
        delay = 0.0
        if self.network is not None:
            rec = self.network.record_transfer(
                self.sim.now,
                self.emitter_node,
                worker.node,
                Message(self.task_size_kb, "task", task.task_id),
                secured=worker.secured,
            )
            delay = rec.duration
        if delay > 0:
            self.sim.schedule(delay, worker.queue.put_nowait, task)
        else:
            worker.queue.put_nowait(task)

    # ------------------------------------------------------------------
    # completion path
    # ------------------------------------------------------------------
    def _on_task_done(self, worker: FarmWorker, task: Task) -> None:
        delay = 0.0
        if self.network is not None:
            rec = self.network.record_transfer(
                self.sim.now,
                worker.node,
                self.collector_node,
                Message(self.result_size_kb, "result", task.task_id),
                secured=worker.secured,
            )
            delay = rec.duration

        def deliver() -> None:
            if task.latency is not None:
                self._latencies.append((self.sim.now, task.latency))
            self._deliver(task)

        if delay > 0:
            self.sim.schedule(delay, deliver)
        else:
            deliver()

    @property
    def pending(self) -> int:
        """Tasks in the farm but not completed (input + queues + in service)."""
        in_queues = sum(len(w.queue) for w in self.workers if w.active)
        in_service = sum(1 for w in self.workers if w.current_task is not None)
        return len(self.input) + in_queues + in_service

    # ------------------------------------------------------------------
    # actuators whose rules are the farm's own
    # ------------------------------------------------------------------
    def remove_worker(self) -> Optional[FarmWorker]:
        """Retire the most recently added active worker.

        Its queued tasks migrate to the remaining workers (never lost —
        the conservation property tests rely on this).  Returns the
        retired worker, or None if only one worker remains (a farm never
        self-destructs below parallelism degree 1).
        """
        live = [w for w in self.workers if w.active]
        if len(live) <= 1:
            return None
        victim = live[-1]
        survivors = [w for w in live if w is not victim]
        queued = len(victim.queue)
        for i in range(queued):
            transfer(victim.queue, survivors[i % len(survivors)].queue, 1)
        victim.stop()
        # The departure window now describes a capacity that no longer
        # exists; left in place it keeps CheckRateHigh fireable for up to
        # a full window after the removal, so the manager sheds a second
        # worker on stale data, undershoots the contract and limit-cycles
        # around the viable degree.  Measure the shrunk farm from scratch.
        # (The add path deliberately keeps its window: re-firing on a
        # still-low reading is Figure 4's published batched growth.)
        self.departure_est.reset(self.sim.now)
        self._begin_blackout(self.worker_setup_time / 2)
        self.reconfigurations += 1
        return victim

    def balance_load(self) -> int:
        """Equalise queued tasks across workers; returns items moved."""
        return rebalance_stores(w.queue for w in self.workers if w.active)

    def migrate_worker(
        self, worker: FarmWorker, node: Node, *, secured: Optional[bool] = None
    ) -> FarmWorker:
        """Move a worker to a different node (§3: "migration of poorly
        performing activities to faster execution resources").

        A replacement worker is deployed on ``node`` (normal setup delay
        and blackout); the victim stops accepting new work immediately,
        its queue transfers to the replacement at activation, and it
        retires after finishing its current task.  No task is lost or
        reordered within the migrated queue.
        """
        if worker not in self.workers or worker._stopped:
            raise ValueError(f"cannot migrate inactive worker {worker.worker_id}")
        replacement = self.add_worker(
            node, secured=worker.secured if secured is None else secured
        )
        worker.active = False  # no new dispatches to the victim

        def handover() -> None:
            transfer(worker.queue, replacement.queue, len(worker.queue))
            worker.stop()

        if self.worker_setup_time > 0:
            self.sim.schedule(self.worker_setup_time, handover)
        else:
            handover()
        return replacement

    def fail_worker(self, worker: FarmWorker) -> int:
        """Crash a worker (fault injection for the fault-tolerance concern).

        Unlike :meth:`remove_worker` this is abrupt: the in-flight task is
        *re-submitted* to the farm input (at-least-once semantics — the
        conservation invariant survives crashes) and queued tasks migrate
        to the survivors.  Returns the number of tasks recovered.  The
        node is not released: it crashed, it is not reusable.
        """
        if worker not in self.workers or worker._stopped:
            return 0
        recovered = 0
        inflight = worker.current_task
        worker.active = False
        worker._stopped = True
        if worker._proc.alive:
            worker._proc.interrupt("crash")
        if inflight is not None:
            # the task was lost mid-service; replay it from the start
            inflight.started_at = None
            self.input.put_nowait(inflight)
            worker.current_task = None
            recovered += 1
        survivors = [w for w in self.workers if w.active]
        queued = len(worker.queue)
        if survivors:
            for i in range(queued):
                transfer(worker.queue, survivors[i % len(survivors)].queue, 1)
        else:
            for _ in range(queued):
                ok, task = worker.queue.try_get()
                if ok:
                    self.input.put_nowait(task)
        recovered += queued
        self.failures += 1
        return recovered
