"""Pattern-specific autonomic managers (the AM_A / AM_P / AM_F / AM_C set).

Figure 4's application uses four managers: the pipeline (application)
manager ``AM_A``, the producer manager ``AM_P``, the farm manager
``AM_F`` and the consumer manager ``AM_C``; the farm additionally gives
each worker manager ``AM_Wi`` a best-effort contract.  This module
implements each of them on top of :class:`~repro.core.manager.
AutonomicManager`:

* :class:`FarmManager` — runs Figure 5's rules against the farm ABC;
  derives the rule thresholds from its contract; adds workers two at a
  time (the paper's batch); raises ``notEnoughTasks`` (fatal → passive)
  and ``tooMuchTasks`` (warning) violations; supports the multi-concern
  coordinator for two-phase worker addition.
* :class:`PipelineManager` — forwards its throughput contract to every
  stage (P_spl for pipelines), converts children's violations into
  ``incRate``/``decRate`` contracts for the producer, acknowledges
  violations after end-of-stream, escalates what it cannot handle.
* :class:`ProducerManager` — obeys :class:`RateContract`s through the
  producer ABC; reports unsatisfiable demands.
* :class:`ConsumerManager` / :class:`WorkerManager` — monitoring-only
  managers holding best-effort contracts.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..gcm.abc_controller import AutonomicBehaviourController, ProducerABC, StageABC
from ..rules.beans import (
    ArrivalRateBean,
    DepartureRateBean,
    EndOfStreamBean,
    LatencyBean,
    ManagerOperation,
    NumWorkerBean,
    QueueVarianceBean,
    UtilizationBean,
    ViolationBean,
)
from ..sim.engine import Simulator
from ..sim.farm import FarmWorker
from .contracts import (
    BestEffortContract,
    CompositeContract,
    Contract,
    MaxLatencyContract,
    MinThroughputContract,
    RateContract,
    ThroughputRangeContract,
)
from .events import Events, Violation, ViolationKind
from .manager import AutonomicManager, ManagerError, ManagerState, TimeBase
from .policies import (
    ManagersConstants,
    farm_rules,
    latency_rule,
    migration_farm_rules,
    pipeline_rules,
)

__all__ = [
    "FarmManager",
    "PipelineManager",
    "ProducerManager",
    "ConsumerManager",
    "WorkerManager",
]


#: (gauge name, help, monitor-sample key) — what a farm manager publishes
#: each tick; sim and live runtimes share the names and the ``manager=``
#: label, so one dashboard/SLO (``slo_from_contract``) reads either
_FARM_GAUGES = (
    ("repro_farm_arrival_rate", "task arrival rate (tasks/s)", "arrival_rate"),
    ("repro_farm_departure_rate", "task departure rate (tasks/s)", "departure_rate"),
    ("repro_farm_workers", "active parallelism degree", "num_workers"),
    ("repro_farm_queue_variance", "population variance of queue lengths", "queue_variance"),
    ("repro_farm_latency_seconds", "windowed mean task latency", "mean_latency"),
)


class FarmManager(AutonomicManager):
    """AM_F: autonomic manager of a task-farm behavioural skeleton.

    ``abc`` is a :class:`~repro.gcm.abc_controller.FarmABC` over a
    simulated or a live farm; model-based initial deployment and
    per-worker managers (``worker_work``, ``manage_workers``)
    additionally need a simulated farm.
    """

    def __init__(
        self,
        name: str,
        sim: TimeBase,
        abc: AutonomicBehaviourController,
        *,
        constants: Optional[ManagersConstants] = None,
        manage_workers: bool = True,
        policy: str = "standard",
        worker_work: Optional[float] = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(name, sim, abc=abc, **kwargs)
        self.constants = constants or ManagersConstants()
        if policy == "standard":
            self.engine.add_rules(farm_rules(self.constants))
        elif policy == "migration-first":
            self.engine.add_rules(migration_farm_rules(self.constants))
        else:
            raise ManagerError(f"unknown farm policy {policy!r}")
        # latency SLA enforcement: inert until a MaxLatencyContract sets
        # FARM_MAX_LATENCY below +inf
        self.engine.add_rule(latency_rule(self.constants))
        self.policy = policy
        self.farm_abc = abc
        self.manage_workers = manage_workers
        # per-task work estimate enabling model-based initial deployment
        # (§3's first listed policy: "initial parallelism degree setup")
        self.worker_work = worker_work
        #: ``(time, text)`` of every actuation executed, in order
        self.actions: List[Tuple[float, str]] = []

    # -- contract handling ---------------------------------------------
    def check_contract(self, contract: Contract) -> None:
        # a dry run on a copy: an uninterpretable part raises here, before
        # on_contract has touched the thresholds the live rules read
        self._set_thresholds(contract, copy.copy(self.constants))

    def _set_thresholds(self, contract: Contract, constants: ManagersConstants) -> None:
        """Composite contracts are interpreted part by part, so the classic
        "throughput in range AND mean latency below L" SLA tunes both the
        Figure 5 thresholds and the latency-extension rule."""
        parts = contract.parts if isinstance(contract, CompositeContract) else [contract]
        for part in parts:
            if isinstance(part, ThroughputRangeContract):
                constants.FARM_LOW_PERF_LEVEL = part.low
                constants.FARM_HIGH_PERF_LEVEL = part.high
            elif isinstance(part, MinThroughputContract):
                constants.FARM_LOW_PERF_LEVEL = part.target
                constants.FARM_HIGH_PERF_LEVEL = float("inf")
            elif isinstance(part, MaxLatencyContract):
                constants.FARM_MAX_LATENCY = part.limit
            elif isinstance(part, BestEffortContract):
                constants.FARM_LOW_PERF_LEVEL = 0.0
                constants.FARM_HIGH_PERF_LEVEL = float("inf")
            else:
                raise ManagerError(
                    f"{self.name}: farm manager cannot interpret {type(part).__name__}"
                )

    def on_contract(self, contract: Contract) -> None:
        """Derive the rule thresholds from the contract and hand the
        worker managers their best-effort sub-contracts (§4.2)."""
        self._set_thresholds(contract, self.constants)
        self._initial_deployment()
        for child in self.children:
            child.assign_contract(BestEffortContract())

    def _initial_deployment(self) -> None:
        """Model-based initial parallelism degree (§3, policy #1).

        "the parallelism degree of computations implemented using a
        functional replication BS can be initially set to some 'optimal'
        value and then adapted" — if the farm is still empty when the
        contract arrives and we know the per-task work, deploy
        ``optimal_degree`` workers up front instead of ramping from one.
        """
        if self.worker_work is None or self.farm_abc.farm.workers:
            return
        target = self.constants.FARM_LOW_PERF_LEVEL
        if target <= 0 or target == float("inf"):
            return
        from ..skeletons.ast import Seq
        from ..skeletons.cost import optimal_degree

        desired = optimal_degree(Seq(self.worker_work), target)
        degree = min(desired, self.constants.FARM_MAX_NUM_WORKERS)
        plan = self.farm_abc.plan_add_workers(degree)
        if plan is None:
            # not enough resources for the model's answer: deploy what the
            # pool has and tell the parent/user the contract is out of reach
            available = len(self.farm_abc.resources.available())
            if available > 0:
                plan = self.farm_abc.plan_add_workers(available)
        if plan is None:
            self.raise_violation(
                ViolationKind.NO_LOCAL_PLAN, operation="bootstrap", desired=desired
            )
            return
        deployed = len(plan.nodes) // self.farm_abc.nodes_per_executor
        self.farm_abc.commit_plan(plan)
        self._mark(Events.ADD_WORKER, count=deployed, initial=True)
        if deployed < desired:
            self.raise_violation(
                ViolationKind.NO_LOCAL_PLAN,
                operation="bootstrap",
                desired=desired,
                deployed=deployed,
            )
        if self.manage_workers:
            self.spawn_worker_managers()

    # -- monitoring ------------------------------------------------------
    def observe(self, data: Mapping[str, Any]) -> None:
        mem = self.engine.memory
        mem.replace(self.make_bean(ArrivalRateBean(data["arrival_rate"])))
        mem.replace(self.make_bean(DepartureRateBean(data["departure_rate"])))
        mem.replace(self.make_bean(NumWorkerBean(data["num_workers"])))
        mem.replace(self.make_bean(QueueVarianceBean(data["queue_variance"])))
        mem.replace(self.make_bean(LatencyBean(data.get("mean_latency", 0.0))))
        mem.replace(self.make_bean(EndOfStreamBean(data.get("end_of_stream", False))))

        tel = self.telemetry
        if tel.enabled:
            m = tel.metrics
            for metric, text, key in _FARM_GAUGES:
                m.gauge(metric, text).labels(manager=self.name).set(data.get(key, 0.0))
            m.histogram(
                "repro_farm_queue_variance_ticks",
                "queue variance observed per control tick",
                buckets=(0.25, 1.0, 4.0, 9.0, 16.0, 25.0, 100.0),
            ).labels(manager=self.name).observe(data["queue_variance"])

        low = self.constants.FARM_LOW_PERF_LEVEL
        high = self.constants.FARM_HIGH_PERF_LEVEL
        if data["departure_rate"] < low:
            self._mark(Events.CONTR_LOW)
        elif data["departure_rate"] > high:
            self._mark(Events.CONTR_HIGH)
        if data["arrival_rate"] < low:
            self._mark(Events.NOT_ENOUGH)
        elif data["arrival_rate"] > high:
            self._mark(Events.TOO_MUCH)

    def passive_step(self, data: Mapping[str, Any]) -> None:
        """Keep reporting a persisting starvation while passive.

        This is what produces the repeated raiseViol marks in Figure 4's
        first phase: the farm cannot act locally, so it keeps the
        pressure on the parent until a new contract arrives.
        """
        if data["arrival_rate"] < self.constants.FARM_LOW_PERF_LEVEL:
            self.raise_violation(ViolationKind.NOT_ENOUGH_TASKS)

    # -- operations -------------------------------------------------------
    def on_operation(self, op: ManagerOperation, data: Any) -> None:
        # adaptation-latency yardstick: the tracker, when an SLOEngine
        # attached one to the telemetry, stamps violation-observed and
        # plan-committed timestamps off these exact hook points
        adaptation = self.telemetry.adaptation
        if op is ManagerOperation.RAISE_VIOLATION:
            kind = str(data)
            severity = "warning" if kind == ViolationKind.TOO_MUCH_TASKS else "fatal"
            self.raise_violation(kind, severity=severity)
            if adaptation is not None:
                adaptation.violation_observed(kind, manager=self.name)
            return
        if op is ManagerOperation.ADD_EXECUTOR:
            count = int(data.get("count", 1)) if isinstance(data, Mapping) else 1
            ok = self._add_workers(count)
            if ok:
                intent = " (intent)" if self.coordinator is not None else ""
                self._acted(Events.ADD_WORKER, f" x{count}{intent}", count=count)
                if adaptation is not None:
                    adaptation.plan_committed("addWorker", manager=self.name)
            else:
                self.raise_violation(ViolationKind.NO_LOCAL_PLAN, operation=op.value)
            if self.telemetry.enabled:
                self.telemetry.metrics.counter(
                    "repro_reconfigurations_total", "actuator operations executed"
                ).labels(manager=self.name, op=op.value, ok=ok).inc()
            return
        if op is ManagerOperation.REMOVE_EXECUTOR:
            if self.farm_abc.execute(op, data):
                self._acted(Events.REMOVE_WORKER)
                if adaptation is not None:
                    adaptation.plan_committed("removeWorker", manager=self.name)
            # refusing to go below one worker is not a violation
            return
        if op is ManagerOperation.MIGRATE:
            if self.farm_abc.execute(op, None):
                self._acted(Events.MIGRATE_WORKER)
            else:
                # no sufficiently faster node: fall back to growing
                self.on_operation(ManagerOperation.ADD_EXECUTOR, data)
            return
        if op is ManagerOperation.BALANCE_LOAD:
            self.farm_abc.execute(op, data)
            moved = self.farm_abc.last_balance_moved
            if moved > 0:
                self._acted(Events.REBALANCE, f" x{moved}", moved=moved)
            return
        super().on_operation(op, data)

    def _acted(self, event: str, suffix: str = "", **detail: Any) -> None:
        """Record one executed actuation: a mark and an ``actions`` line."""
        self._mark(event, **detail)
        self.actions.append((self.sim.now, event + suffix))

    def _add_workers(self, count: int) -> bool:
        """Add workers, via the multi-concern coordinator when present.

        With a coordinator this runs the §3.2 two-phase protocol:
        *intent* (reserve nodes) → concern review (may amend/veto) →
        *commit* (instantiate).  Without one, the naive plan+commit path
        inside the ABC runs directly.
        """
        if self.coordinator is not None:
            ok = self.coordinator.execute_intent(
                self, ManagerOperation.ADD_EXECUTOR, {"count": count}
            )
        else:
            ok = self.farm_abc.execute(ManagerOperation.ADD_EXECUTOR, {"count": count})
        if ok and self.manage_workers:
            self.spawn_worker_managers()
        return ok

    def spawn_worker_managers(self) -> None:
        """Give newly added workers their own (best-effort) managers."""
        managed = {c.worker.worker_id for c in self.children if isinstance(c, WorkerManager)}
        for w in self.farm_abc.farm.workers:
            if w.worker_id not in managed and not w._stopped:
                wm = WorkerManager(
                    f"{self.name}.W{w.worker_id}",
                    self.sim,
                    w,
                    telemetry=self.telemetry,
                    control_period=self.control_period,
                )
                self.add_child(wm)
                wm.assign_contract(BestEffortContract())


class PipelineManager(AutonomicManager):
    """AM_A: application manager of a pipeline behavioural skeleton."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        *,
        producer: Optional["ProducerManager"] = None,
        inc_factor: float = 1.3,
        dec_factor: float = 0.92,
        **kwargs: Any,
    ) -> None:
        super().__init__(name, sim, **kwargs)
        if inc_factor <= 1.0:
            raise ManagerError("inc_factor must be > 1")
        if not 0 < dec_factor < 1.0:
            raise ManagerError("dec_factor must be in (0, 1)")
        self.producer = producer
        self.inc_factor = inc_factor
        self.dec_factor = dec_factor
        self.stream_ended = False
        self.escalated: List[Violation] = []
        # child name -> zero-arg callable performing the §4.2 stage-to-farm
        # transformation and returning the replacement manager
        self.stage_promoters: Dict[str, Any] = {}
        self.engine.add_rules(pipeline_rules(self))

    # -- contract handling ----------------------------------------------
    def on_contract(self, contract: Contract) -> None:
        """Pipeline P_spl: forward the throughput SLA to every stage.

        "As the topmost behavioural skeleton is a pipeline, its manager
        AM_A simply forwards the contract to the stage managers AM_P,
        AM_F and AM_C." (§4.2)  The producer stage starts on a
        best-effort basis — it emits at whatever rate the application
        configured — and only receives explicit :class:`RateContract`s
        when violations force incRate/decRate corrections, exactly the
        Figure 4 dynamics.
        """
        for child in self.children:
            if isinstance(child, ProducerManager):
                child.assign_contract(BestEffortContract())
            else:
                child.assign_contract(contract)

    # -- violations from children ----------------------------------------
    def child_violation(self, child: AutonomicManager, violation: Violation) -> None:
        """Queue the violation for the next control tick's rule pass."""
        self.engine.memory.insert(self.make_bean(ViolationBean(violation)))

    # -- rule actions -------------------------------------------------------
    def handle_not_enough(self, violation: Violation) -> None:
        """incRate: demand a higher output rate from the producer."""
        if self.producer is None:
            self.escalate(violation)
            return
        current = self.producer.current_rate()
        new_rate = current * self.inc_factor
        self._mark(Events.INC_RATE, rate=round(new_rate, 4))
        self.producer.assign_contract(RateContract(new_rate))
        self.acknowledge_violation(violation)

    def handle_too_much(self, violation: Violation) -> None:
        """decRate: ask the producer to slightly slow down (fine-tuning
        memory usage, §4.2 — the contract itself is not at risk)."""
        if self.producer is None:
            return
        current = self.producer.current_rate()
        new_rate = current * self.dec_factor
        self._mark(Events.DEC_RATE, rate=round(new_rate, 4))
        self.producer.assign_contract(RateContract(new_rate))
        self.acknowledge_violation(violation)

    def acknowledge_violation(self, violation: Violation) -> None:
        """Re-activate the reporting child by re-sending its contract."""
        for child in self.children:
            if child.name == violation.source and child.contract is not None:
                if child.state is ManagerState.PASSIVE:
                    child.assign_contract(child.contract)
                return

    def register_stage_promoter(self, child_name: str, promoter: Any) -> None:
        """Arm the stage-to-farm transformation for one child stage.

        ``promoter`` is a zero-argument callable that rewires the
        mechanism (stop the sequential stage, start a farm over its
        stores) and returns the replacement :class:`FarmManager`.
        """
        self.stage_promoters[child_name] = promoter

    def escalate(self, violation: Violation) -> None:
        """Handle a locally unhandleable child violation.

        If the child has a registered stage promoter and the violation is
        ``contractUnsatisfiable``, apply the §4.2 transformation ("ways to
        transform the pipeline stage into a farm with the workers
        behaving as instances of the original stage"); otherwise pass the
        violation to our own parent.
        """
        promoter = self.stage_promoters.get(violation.source)
        if promoter is not None and violation.kind == ViolationKind.CONTRACT_UNSATISFIABLE:
            self.promote_stage(violation.source, promoter)
            return
        self.escalated.append(violation)
        self.raise_violation(violation.kind, severity=violation.severity, origin=violation.source)

    def promote_stage(self, child_name: str, promoter: Any) -> AutonomicManager:
        """Replace a sequential stage's manager with a farm's (one-shot)."""
        self.stage_promoters.pop(child_name, None)
        old = next((c for c in self.children if c.name == child_name), None)
        if old is not None:
            old.stop()
            self.children.remove(old)
            old.parent = None
        replacement: AutonomicManager = promoter()
        self.add_child(replacement)
        self._mark(Events.FARM_STAGE, stage=child_name, replacement=replacement.name)
        if self.contract is not None:
            replacement.assign_contract(self.contract)
        return replacement

    # -- stream termination -------------------------------------------------
    def notify_end_of_stream(self) -> None:
        """Producer exhausted the stream: stop issuing rate increases."""
        if self.stream_ended:
            return
        self.stream_ended = True
        self._mark(Events.END_STREAM)
        self.engine.memory.replace(self.make_bean(EndOfStreamBean(True)))

    def observe(self, data: Mapping[str, Any]) -> None:
        if self.stream_ended:
            # keep the endStream mark visible along the event line, as in
            # Figure 4's last phase
            self._mark(Events.END_STREAM)


class ProducerManager(AutonomicManager):
    """AM_P: manager of a rate-controllable producer stage."""

    def __init__(self, name: str, sim: Simulator, abc: ProducerABC, **kwargs: Any) -> None:
        super().__init__(name, sim, abc=abc, **kwargs)
        self.producer_abc = abc

    def current_rate(self) -> float:
        return self.producer_abc.source.rate

    def on_contract(self, contract: Contract) -> None:
        if isinstance(contract, BestEffortContract):
            return
        if not isinstance(contract, RateContract):
            raise ManagerError(
                f"{self.name}: producer manager cannot interpret {type(contract).__name__}"
            )
        ok = self.producer_abc.execute(ManagerOperation.SET_RATE, contract.rate)
        if not ok:
            # The producer is already at its physical limit: tell the
            # parent the demand is unsatisfiable (warning: we still run
            # at max rate, the best locally achievable behaviour).
            self.raise_violation(
                ViolationKind.CONTRACT_UNSATISFIABLE,
                severity="warning",
                demanded=contract.rate,
                achievable=self.producer_abc.source.max_rate,
            )

    def observe(self, data: Mapping[str, Any]) -> None:
        tel = self.telemetry
        if tel.enabled:
            tel.metrics.gauge(
                "repro_producer_rate", "producer stage output rate (tasks/s)"
            ).labels(manager=self.name).set(data["rate"])


class ConsumerManager(AutonomicManager):
    """AM_C: manager for a sequential sink/consumer stage.

    A sequential stage has no actuators of its own, but it *can* detect
    that it is the pipeline's bottleneck: tasks arrive at contract rate,
    it runs saturated, and still under-delivers.  In that situation no
    local plan exists and it reports ``contractUnsatisfiable`` — which
    the pipeline manager may answer with the §4.2 stage-to-farm
    transformation (see :mod:`repro.core.adaptation`).
    """

    #: backlog (queued tasks) above which, combined with a growing queue
    #: and below-contract delivery, the stage declares itself saturated
    BACKLOG_THRESHOLD = 5

    def __init__(self, name: str, sim: Simulator, abc: StageABC, **kwargs: Any) -> None:
        super().__init__(name, sim, abc=abc, **kwargs)
        self._low = 0.0
        self._reported_bottleneck = False
        self._last_queue_length = 0

    def on_contract(self, contract: Contract) -> None:
        if isinstance(contract, ThroughputRangeContract):
            self._low = contract.low
        elif isinstance(contract, MinThroughputContract):
            self._low = contract.target
        else:
            self._low = 0.0

    def observe(self, data: Mapping[str, Any]) -> None:
        queue_len = data["queue_length"]
        tel = self.telemetry
        if tel.enabled:
            m = tel.metrics
            m.gauge(
                "repro_consumer_departure_rate", "consumer stage departure rate (tasks/s)"
            ).labels(manager=self.name).set(data["departure_rate"])
            m.gauge(
                "repro_consumer_queue_length", "tasks queued at the consumer stage"
            ).labels(manager=self.name).set(queue_len)
        growing = queue_len > self._last_queue_length
        self._last_queue_length = queue_len
        if (
            self._low > 0.0
            and not self._reported_bottleneck
            and data["departure_rate"] < self._low
            and queue_len >= self.BACKLOG_THRESHOLD
            and growing
        ):
            # under-delivering with a growing backlog: the stage itself is
            # the bottleneck and no local plan exists
            self._reported_bottleneck = True
            self.raise_violation(
                ViolationKind.CONTRACT_UNSATISFIABLE,
                stage=self.name,
                backlog=queue_len,
            )


class WorkerManager(AutonomicManager):
    """AM_Wi: best-effort worker manager.

    "The AM_Wi are effectively in passive mode from the AM_F viewpoint,
    but in fact they autonomically try to provide the best performance
    possible locally." (§4.2)  Locally-best behaviour in the simulated
    substrate means keeping its utilisation visible to the farm; it has
    no other actuators.
    """

    def __init__(self, name: str, sim: Simulator, worker: FarmWorker, **kwargs: Any) -> None:
        super().__init__(name, sim, **kwargs)
        self.worker = worker

    def monitor(self) -> Optional[Dict[str, Any]]:
        return {
            "utilization": self.worker.util.utilization(self.sim.now),
            "queue_length": len(self.worker.queue),
            "completed": self.worker.completed,
            "active": self.worker.active,
        }

    def observe(self, data: Mapping[str, Any]) -> None:
        self.engine.memory.replace(self.make_bean(UtilizationBean(data["utilization"])))

    def on_contract(self, contract: Contract) -> None:
        pass  # best-effort: nothing to configure
