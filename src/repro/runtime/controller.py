"""Live autonomic control of a farm backend: same rules, real clock.

The policies are exactly the Figure 5 rule set built by
:func:`repro.core.policies.farm_rules` — the same objects that drive the
simulated farm manager — evaluated here by a wall-clock control loop
thread against the live farm's monitor snapshot.  This demonstrates the
paper's separation of mechanism and policy: the rules do not know (or
care) whether the beans underneath them come from a discrete-event
simulation, from ``threading`` queues, or from OS processes — the
controller sees only the :class:`~repro.runtime.backend.FarmBackend`
protocol, so :class:`~repro.runtime.farm_runtime.ThreadFarm`,
:class:`~repro.runtime.process_farm.ProcessFarm` and
:class:`~repro.runtime.dist_farm.DistFarm` are interchangeable
underneath it.
"""

from __future__ import annotations

import threading
import time
from typing import Any, List, Mapping, Optional, Tuple

from ..core.contracts import (
    BestEffortContract,
    CompositeContract,
    Contract,
    MaxLatencyContract,
    MinThroughputContract,
    ThroughputRangeContract,
)
from ..core.events import ViolationKind
from ..core.policies import ManagersConstants, farm_rules, latency_rule
from ..rules.beans import (
    ArrivalRateBean,
    DepartureRateBean,
    LatencyBean,
    ManagerOperation,
    NumWorkerBean,
    QueueVarianceBean,
)
from ..obs.telemetry import NOOP, Telemetry
from ..rules.engine import RuleEngine
from .backend import FarmBackend

__all__ = ["FarmController"]


class FarmController:
    """A wall-clock MAPE loop enforcing a contract on a :class:`FarmBackend`.

    The backend may be a :class:`~repro.runtime.farm_runtime.ThreadFarm`,
    a :class:`~repro.runtime.process_farm.ProcessFarm` or a
    :class:`~repro.runtime.dist_farm.DistFarm`; the controller never
    looks past the protocol, so the rule set stays substrate-agnostic.

    ``telemetry`` (optional, no-op default) records the same
    ``mape.*`` span hierarchy the simulated managers emit — but on the
    wall clock, since this controller is a real thread: one probe works
    for every substrate.

    When a :class:`~repro.runtime.multiconcern.LiveGeneralManager` has
    registered this controller (setting :attr:`coordinator`), grow
    actuations become *intents*: they route through the GM's two-phase
    protocol, where other concern managers may amend or veto them,
    instead of calling ``farm.add_worker()`` directly.
    """

    #: quantitative concern — reviews after boolean concerns in the GM
    concern = "performance"

    def __init__(
        self,
        farm: FarmBackend,
        contract: Contract,
        *,
        control_period: float = 0.5,
        constants: Optional[ManagersConstants] = None,
        max_workers: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
        name: str = "AM_live",
    ) -> None:
        if control_period <= 0:
            raise ValueError("control_period must be positive")
        self.farm = farm
        self.name = name
        self.control_period = control_period
        self.constants = constants or ManagersConstants()
        if max_workers is not None:
            self.constants.FARM_MAX_NUM_WORKERS = max_workers
        self.telemetry = telemetry if telemetry is not None else NOOP
        self.engine = RuleEngine(
            farm_rules(self.constants), telemetry=self.telemetry, owner=name
        )
        self.engine.add_rule(latency_rule(self.constants))
        self.violations: List[Tuple[float, str]] = []
        self.actions: List[Tuple[float, str]] = []
        #: set by LiveGeneralManager.register(); routes grow intents
        self.coordinator: Optional[Any] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: serialises contract swaps against in-flight MAPE cycles, so a
        #: cycle always analyses/plans/executes against ONE contract's
        #: thresholds — never a half-old, half-new mixture
        self._cycle_lock = threading.RLock()
        self.assign_contract(contract)

    # ------------------------------------------------------------------
    # contract
    # ------------------------------------------------------------------
    def assign_contract(self, contract: Contract) -> None:
        """Swap the enforced contract, atomically w.r.t. the MAPE cycle.

        The new thresholds are validated *before* anything mutates and
        applied under the cycle lock, so a swap arriving mid-cycle takes
        effect on the next cycle rather than steering half of this one.
        An unsupported part therefore leaves the previous contract fully
        in force instead of half-applied.
        """
        parts = contract.parts if isinstance(contract, CompositeContract) else [contract]
        supported = (
            ThroughputRangeContract,
            MinThroughputContract,
            MaxLatencyContract,
            BestEffortContract,
        )
        for part in parts:
            if not isinstance(part, supported):
                raise ValueError(f"unsupported contract {type(part).__name__}")
        with self._cycle_lock:
            self.contract = contract
            for part in parts:
                if isinstance(part, ThroughputRangeContract):
                    self.constants.FARM_LOW_PERF_LEVEL = part.low
                    self.constants.FARM_HIGH_PERF_LEVEL = part.high
                elif isinstance(part, MinThroughputContract):
                    self.constants.FARM_LOW_PERF_LEVEL = part.target
                    self.constants.FARM_HIGH_PERF_LEVEL = float("inf")
                elif isinstance(part, MaxLatencyContract):
                    self.constants.FARM_MAX_LATENCY = part.limit
                elif isinstance(part, BestEffortContract):
                    self.constants.FARM_LOW_PERF_LEVEL = 0.0
                    self.constants.FARM_HIGH_PERF_LEVEL = float("inf")

    # ------------------------------------------------------------------
    # loop lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "FarmController":
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="farm-controller", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)

    def _loop(self) -> None:
        while not self._stop.wait(self.control_period):
            self.control_step()

    # ------------------------------------------------------------------
    # one MAPE tick (public so tests can drive it deterministically)
    # ------------------------------------------------------------------
    def control_step(self) -> List[str]:
        tel = self.telemetry
        with self._cycle_lock, tel.span("mape.cycle", actor=self.name) as cycle:
            with tel.span("mape.monitor", actor=self.name):
                snap = self.farm.snapshot()
            with tel.span("mape.analyse", actor=self.name):
                mem = self.engine.memory
                mem.replace(ArrivalRateBean(snap.arrival_rate).bind_sink(self._sink))
                mem.replace(DepartureRateBean(snap.departure_rate).bind_sink(self._sink))
                mem.replace(NumWorkerBean(snap.num_workers).bind_sink(self._sink))
                mem.replace(QueueVarianceBean(snap.queue_variance).bind_sink(self._sink))
                mem.replace(LatencyBean(snap.mean_latency).bind_sink(self._sink))
                if tel.enabled:
                    m = tel.metrics
                    m.gauge(
                        "repro_farm_departure_rate", "results per second leaving the farm"
                    ).labels(manager=self.name).set(snap.departure_rate)
                    m.gauge(
                        "repro_farm_workers", "active workers"
                    ).labels(manager=self.name).set(snap.num_workers)
                    m.gauge(
                        "repro_farm_queue_variance", "variance of per-worker queue lengths"
                    ).labels(manager=self.name).set(snap.queue_variance)
                    m.gauge(
                        "repro_farm_latency_seconds", "windowed mean task latency"
                    ).labels(manager=self.name).set(snap.mean_latency)
            with tel.span("mape.plan", actor=self.name) as plan:
                agenda = self.engine.agenda()
                if tel.enabled:
                    plan.set_attribute(
                        "matched", [(a.rule.name, a.rule.salience) for a in agenda]
                    )
            with tel.span("mape.execute", actor=self.name) as execute:
                fired = self.engine.fire(agenda)
                if tel.enabled:
                    execute.set_attribute("fired", fired)
        if tel.enabled:
            tel.metrics.histogram(
                "repro_control_loop_latency_seconds",
                "wall-clock cost of one MAPE control tick",
            ).labels(manager=self.name).observe(cycle.perf_elapsed or 0.0)
            tel.metrics.counter(
                "repro_mape_ticks_total", "MAPE control ticks executed"
            ).labels(manager=self.name).inc()
        return fired

    def _sink(self, op: ManagerOperation, data: Any) -> None:
        now = self.farm.now()
        # adaptation-latency yardstick (ROADMAP item 4): the tracker, when
        # attached by an SLOEngine, stamps violation-observed and
        # plan-committed timestamps off these exact hook points
        adaptation = getattr(self.telemetry, "adaptation", None)
        if op is ManagerOperation.RAISE_VIOLATION:
            self.violations.append((now, str(data)))
            if adaptation is not None:
                adaptation.violation_observed(str(data), manager=self.name)
            return
        if op is ManagerOperation.ADD_EXECUTOR:
            count = int(data.get("count", 1)) if isinstance(data, Mapping) else 1
            if self.coordinator is not None:
                # multi-concern mode: express the *intent* and let the GM
                # run plan → review → commit (other concerns may amend or
                # veto before any worker is instantiated)
                if self.coordinator.execute_intent(self, op, data):
                    self.actions.append((now, f"addWorker x{count} (intent)"))
                    if adaptation is not None:
                        adaptation.plan_committed("addWorker", manager=self.name)
                else:
                    self.violations.append((now, ViolationKind.NO_LOCAL_PLAN))
                return
            added = 0
            for _ in range(count):
                try:
                    self.farm.add_worker()
                    added += 1
                except RuntimeError:
                    break
            if added:
                self.actions.append((now, f"addWorker x{added}"))
                if adaptation is not None:
                    adaptation.plan_committed("addWorker", manager=self.name)
            else:
                self.violations.append((now, ViolationKind.NO_LOCAL_PLAN))
            return
        if op is ManagerOperation.REMOVE_EXECUTOR:
            if self.farm.remove_worker() is not None:
                self.actions.append((now, "removeWorker"))
                if adaptation is not None:
                    adaptation.plan_committed("removeWorker", manager=self.name)
            return
        if op is ManagerOperation.BALANCE_LOAD:
            moved = self.farm.balance_load()
            if moved:
                self.actions.append((now, f"rebalance x{moved}"))
            return
        raise ValueError(f"controller cannot execute {op}")
