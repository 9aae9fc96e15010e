"""The autonomic manager: MAPE control loop, active/passive roles.

"In the context of this work an autonomic manager is an independent
activity completely and autonomically managing some specific
non-functional concern within an application." (§3)  Managers are
characterised by (i) the *concern* they manage, (ii) the *autonomic
policies* they implement — here, rules in a :class:`~repro.rules.engine.
RuleEngine` — and (iii) their *degree of cooperation* (parent/children
links, and optionally a multi-concern coordinator).

The control loop is the classical monitor → analyse → plan → execute
cycle [16,17], realised as a periodic :meth:`control_step`:

1. **monitor** — sample the ABC (None during reconfiguration blackouts,
   in which case the whole cycle is skipped, reproducing Figure 4's
   sensor-data gap);
2. **analyse** — refresh the working-memory beans and note contract
   events (``contrLow``/``contrHigh``);
3. **plan** — one rule-engine evaluation selects and prioritises the
   fireable rules;
4. **execute** — rule actions fire :class:`ManagerOperation`s back into
   the manager, which executes actuators or raises violations.

**P_rol** (active/passive roles, §3.1): assigning a contract puts a
manager in ACTIVE mode; an unrecoverable violation makes it report to
its parent and drop to PASSIVE, where it keeps monitoring (and keeps
re-reporting a persisting violation) but takes no corrective action
until a new contract arrives.

The manager is written against a :class:`TimeBase`, not a substrate: the
DES ``Simulator`` and the live runtime's wall-clock ticker
(:class:`~repro.runtime.controller.WallTimeBase`) both satisfy it.
"""

from __future__ import annotations

import enum
import threading
from typing import Any, Callable, Dict, List, Mapping, Optional, Protocol, Tuple

from ..gcm.abc_controller import AutonomicBehaviourController
from ..obs.events import TraceRecorder
from ..obs.telemetry import NOOP, Telemetry
from ..rules.beans import Bean, ManagerOperation
from ..rules.engine import RuleEngine
from .contracts import Contract
from .events import Events, Violation, ViolationKind

__all__ = ["ManagerState", "AutonomicManager", "ManagerError", "TimeBase"]


class ManagerError(RuntimeError, ValueError):
    """Raised for invalid manager wiring or usage (bad values included)."""


class TimeBase(Protocol):
    """The three things a manager needs of a clock, simulated or wall."""

    now: float  #: current time on this clock

    def periodic(self, period: float, fn: Callable[[], Any], *, name: str = "") -> Any:
        """Call ``fn`` every ``period``; the handle has ``cancel()``/``cancelled``."""

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> Any:
        """Call ``fn(*args)`` once, ``delay`` from now."""


class ManagerState(enum.Enum):
    """Figure 1 (right): the two roles a BS manager can play."""

    ACTIVE = "active"
    PASSIVE = "passive"


class AutonomicManager:
    """Base autonomic manager; pattern-specific subclasses add policies."""

    def __init__(
        self,
        name: str,
        sim: TimeBase,
        *,
        concern: str = "performance",
        abc: Optional[AutonomicBehaviourController] = None,
        trace: Optional[TraceRecorder] = None,
        telemetry: Optional[Telemetry] = None,
        control_period: float = 10.0,
        violation_delay: float = 1.0,
        autostart: bool = True,
    ) -> None:
        if control_period <= 0:
            raise ManagerError("control_period must be positive")
        self.name = name
        self.sim = sim
        self.concern = concern
        self.abc = abc
        self.trace = trace or TraceRecorder()
        # Observability is strictly optional: the no-op default makes
        # every tel.* call inert, and the property tests assert that
        # attaching a live Telemetry leaves the event sequence
        # bit-identical.
        self.telemetry = telemetry if telemetry is not None else NOOP
        self.control_period = control_period
        self.violation_delay = violation_delay

        self.engine = RuleEngine(telemetry=self.telemetry, owner=name)
        self.contract: Optional[Contract] = None
        self.state = ManagerState.PASSIVE
        self.parent: Optional["AutonomicManager"] = None
        self.children: List["AutonomicManager"] = []
        self.coordinator: Optional[Any] = None  # multi-concern GM, if any

        self.last_monitor: Optional[Dict[str, Any]] = None
        self.unhandled_violations: List[Violation] = []
        self.violations_raised: List[Violation] = []
        #: ``(time, kind)`` of each, in order — the flat log reports read
        self.violations: List[Tuple[float, str]] = []

        #: serialises contract swaps against in-flight MAPE cycles, so a
        #: cycle always analyses/plans/executes against ONE contract's
        #: thresholds — never a half-old, half-new mixture (a live time
        #: base ticks on its own thread; under the DES it is uncontended)
        self._cycle_lock = threading.RLock()
        self._loop: Optional[Any] = None
        if autostart:
            self.start()

    # ------------------------------------------------------------------
    # hierarchy wiring
    # ------------------------------------------------------------------
    def add_child(self, child: "AutonomicManager") -> "AutonomicManager":
        """Attach a child manager (a BS nested inside this one's BS)."""
        if child.parent is not None:
            raise ManagerError(f"{child.name} already has parent {child.parent.name}")
        if child is self:
            raise ManagerError("a manager cannot be its own child")
        child.parent = self
        self.children.append(child)
        return child

    def descendants(self) -> List["AutonomicManager"]:
        """All managers below this one (pre-order)."""
        out: List[AutonomicManager] = []
        for c in self.children:
            out.append(c)
            out.extend(c.descendants())
        return out

    @property
    def is_root(self) -> bool:
        return self.parent is None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the periodic control loop (idempotent)."""
        if self._loop is None or self._loop.cancelled:
            self._loop = self.sim.periodic(
                self.control_period, self._tick, name=f"{self.name}.loop"
            )

    def _tick(self) -> None:
        # control_step returns the fired rule names; a periodic task
        # reads a truthy return as "stop", so the loop body returns None
        self.control_step()

    def stop(self) -> None:
        """Stop the control loop."""
        if self._loop is not None:
            self._loop.cancel()

    # ------------------------------------------------------------------
    # contracts (active role entry point)
    # ------------------------------------------------------------------
    def assign_contract(self, contract: Contract) -> None:
        """Receive a contract from the user or the parent manager.

        :meth:`check_contract` runs *before* anything mutates, so a
        rejected contract leaves the previous one fully in force; the
        swap itself happens under the cycle lock, so one arriving
        mid-cycle takes effect on the next cycle rather than steering
        half of this one.
        """
        self.check_contract(contract)
        with self._cycle_lock, self.telemetry.span(
            "contract.assign", actor=self.name, contract=contract.describe()
        ):
            self.contract = contract
            self.trace.mark(
                self.sim.now, self.name, Events.NEW_CONTRACT, contract=contract.describe()
            )
            # on_contract may split/propagate to children, whose own
            # contract.assign spans nest under this one: the P_spl
            # propagation tree becomes directly visible in the trace.
            self.on_contract(contract)
            self._set_state(ManagerState.ACTIVE)

    def check_contract(self, contract: Contract) -> None:
        """Hook: raise :class:`ManagerError` for an uninterpretable contract."""

    def on_contract(self, contract: Contract) -> None:
        """Hook: derive thresholds, split and propagate to children."""

    def _set_state(self, state: ManagerState) -> None:
        if state is self.state:
            return
        self.state = state
        mark = Events.GO_ACTIVE if state is ManagerState.ACTIVE else Events.GO_PASSIVE
        self.trace.mark(self.sim.now, self.name, mark)

    @property
    def active(self) -> bool:
        return self.state is ManagerState.ACTIVE

    # ------------------------------------------------------------------
    # MAPE loop
    # ------------------------------------------------------------------
    def control_step(self) -> List[str]:
        """One control-loop tick: monitor, analyse, plan, execute.

        Returns the names of the rules fired (empty in PASSIVE mode and
        during blackouts).  With telemetry attached, every phase of the
        MAPE cycle becomes a child span of one ``mape.cycle`` span —
        ``mape.monitor`` carrying the sample it read, so an exported
        audit can be replayed through another manager — and the cycle's
        instrumentation-side cost feeds the control-loop latency
        histogram.  The rule evaluation is split into its
        :meth:`~repro.rules.engine.RuleEngine.agenda` (plan) and
        :meth:`~repro.rules.engine.RuleEngine.fire` (execute) halves —
        behaviourally identical to ``evaluate()`` — so planning and
        execution are separately attributable.
        """
        tel = self.telemetry
        fired: List[str] = []
        with self._cycle_lock, tel.span("mape.cycle", actor=self.name) as cycle:
            with tel.span("mape.monitor", actor=self.name) as monitor:
                data = self.monitor()
                if tel.enabled and data:
                    monitor.set_attribute("sample", data)
            if data is None:
                # reconfiguration blackout: no sensor data this tick
                cycle.set_attribute("blackout", True)
                if tel.enabled:
                    tel.metrics.counter(
                        "repro_mape_blackout_ticks_total",
                        "control ticks skipped during reconfiguration blackouts",
                    ).labels(manager=self.name).inc()
                return fired
            self.last_monitor = data
            with tel.span("mape.analyse", actor=self.name):
                self.observe(data)
            if self.state is ManagerState.ACTIVE:
                with tel.span("mape.plan", actor=self.name) as plan:
                    agenda = self.engine.agenda()
                    if tel.enabled:
                        plan.set_attribute(
                            "matched",
                            [(a.rule.name, a.rule.salience) for a in agenda],
                        )
                with tel.span("mape.execute", actor=self.name) as execute:
                    fired = self.engine.fire(agenda)
                    if tel.enabled:
                        execute.set_attribute("fired", fired)
            else:
                with tel.span("mape.execute", actor=self.name, mode="passive"):
                    self.passive_step(data)
        if tel.enabled:
            tel.metrics.histogram(
                "repro_control_loop_latency_seconds",
                "wall-clock cost of one MAPE control tick",
            ).labels(manager=self.name).observe(cycle.perf_elapsed or 0.0)
            tel.metrics.counter(
                "repro_mape_ticks_total", "MAPE control ticks executed"
            ).labels(manager=self.name).inc()
        return fired

    def monitor(self) -> Optional[Dict[str, Any]]:
        """Sample the ABC (managers without an ABC see an empty sample)."""
        if self.abc is None:
            return {}
        return self.abc.monitor()

    def observe(self, data: Mapping[str, Any]) -> None:
        """Hook: refresh working-memory beans, record trace samples."""

    def passive_step(self, data: Mapping[str, Any]) -> None:
        """Hook for PASSIVE mode: monitor-only behaviour.

        Default: if the contract violation persists, re-report it so the
        parent keeps seeing pressure (the repeated raiseViol marks of
        Figure 4's first phase come from this).
        """

    # ------------------------------------------------------------------
    # operations fired by rule actions
    # ------------------------------------------------------------------
    def make_bean(self, bean: Bean) -> Bean:
        """Bind a bean's operation sink to this manager."""
        return bean.bind_sink(self._operation_sink)

    def _operation_sink(self, op: ManagerOperation, data: Any) -> None:
        self.telemetry.event("mape.operation", op=op.value, data=data)
        self.on_operation(op, data)

    def on_operation(self, op: ManagerOperation, data: Any) -> None:
        """Hook: execute one operation ordered by a rule action.

        Default behaviour: RAISE_VIOLATION becomes a violation report;
        anything else goes straight to the ABC, and an ABC refusal (no
        resources, nothing to remove, …) escalates as a violation —
        "If corrective action is required and not possible, a contract
        violation is reported to the parent" (§3.1).
        """
        if op is ManagerOperation.RAISE_VIOLATION:
            self.raise_violation(str(data))
            return
        if self.abc is None:
            raise ManagerError(f"{self.name}: no ABC to execute {op}")
        ok = self.abc.execute(op, data)
        if not ok:
            self.raise_violation(ViolationKind.NO_LOCAL_PLAN, operation=op.value)

    # ------------------------------------------------------------------
    # violations (passive role entry point)
    # ------------------------------------------------------------------
    def raise_violation(self, kind: str, severity: str = "fatal", **detail: Any) -> Violation:
        """Report a violation to the parent.

        A *fatal* violation also drops this manager to PASSIVE mode when a
        parent exists to eventually re-contract it (§3.1: "the manager
        remains in passive mode until it receives a new contract").  A
        *root* manager's violations go to the user, who is not part of the
        control loop, so the root stays active and keeps retrying — going
        permanently passive would deadlock the whole hierarchy.  Warnings
        (e.g. ``tooMuchTasks``, §4.2) never change the state.
        """
        violation = Violation(kind, self.name, self.sim.now, detail, severity)
        self.violations_raised.append(violation)
        self.violations.append((violation.time, kind))
        self.trace.mark(self.sim.now, self.name, Events.RAISE_VIOL, kind=kind)
        if severity == "fatal" and self.parent is not None:
            self._set_state(ManagerState.PASSIVE)
        if self.parent is not None:
            # Violation reports travel over the network: the parent sees
            # them "a little bit after" (Fig. 4) the child raised them.
            # The in-flight interval is a detached span closed at
            # delivery, so the audit shows each propagation hop.
            span = self.telemetry.start_span(
                "violation.propagate",
                actor=self.name,
                kind=kind,
                severity=severity,
                target=self.parent.name,
            )
            self.sim.schedule(
                self.violation_delay, self._deliver_violation, self.parent, violation, span
            )
        else:
            self.unhandled_violations.append(violation)
        return violation

    def _deliver_violation(
        self, parent: "AutonomicManager", violation: Violation, span: Any
    ) -> None:
        """Scheduled hand-off of a violation report to the parent."""
        self.telemetry.end_span(span)
        parent.child_violation(self, violation)

    def child_violation(self, child: "AutonomicManager", violation: Violation) -> None:
        """Hook: a child reported a violation.  Default: record only."""
        self.unhandled_violations.append(violation)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def contract_satisfied(self) -> Optional[bool]:
        """Judge the current contract against the last monitor sample."""
        if self.contract is None or self.last_monitor is None:
            return None
        return self.contract.check(self.last_monitor)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} {self.state.value}>"
