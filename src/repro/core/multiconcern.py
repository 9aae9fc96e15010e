"""Multi-concern coordination: the GM and the two-phase intent protocol.

Section 3.2 analyses what happens when several autonomic managers, each
owning a different concern, act on the same computation.  The paper's
design points, all implemented here:

* **MM structuring** — "multiple (hierarchies of) AMs, each taking care
  of a different concern C_i plus a general super-AM orchestrating the
  multiple AMs".  :class:`GeneralManager` is that super-AM: concern
  managers register with a priority.
* **Boolean concerns get priority** — security is boolean ("data and
  code communication is either secure or it is not.  Therefore […] they
  should be given a priority"): :meth:`GeneralManager.register` defaults
  boolean concerns to a higher priority, and reviews run in priority
  order.
* **Two-phase intent protocol** — "i) AM_perf should express the
  *intent* to add a new node, ii) AM_sec could react by prompting
  securing of communications and iii) AM_perf may then instantiate the
  new secure worker."  :meth:`GeneralManager.execute_intent` runs
  exactly this on the originator's ABC: plan (``plan_add_workers``) →
  review (each concern manager may amend or veto the
  :class:`~repro.gcm.abc_controller.PlannedReconfiguration`) → commit
  (``commit_plan``) or abort (``abort_plan``).  The simulated
  :class:`~repro.gcm.abc_controller.FarmABC` and the live
  :class:`~repro.runtime.controller.LiveFarmABC` both offer that
  surface, so one GM coordinates both clocks.
* **Naive mode** (the ablation baseline) — ``mode="naive"`` commits the
  originator's plan immediately and lets other concern managers catch up
  through their own control loops, reproducing the insecure window the
  paper warns about.

Telemetry: one ``mc.intent`` span per round (plan, review and commit;
a live ABC narrates its admission gate in a nested ``mc.commit`` span)
and the ``repro_mc_*`` counters, labelled by the GM's name.
"""

from __future__ import annotations

import enum
import threading
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..gcm.abc_controller import PlannedReconfiguration
from ..obs.events import TraceRecorder
from ..obs.telemetry import NOOP, Telemetry
from ..rules.beans import ManagerOperation
from .events import Events
from .manager import AutonomicManager, ManagerError

__all__ = [
    "CoordinationMode",
    "ConcernReview",
    "GeneralManager",
    "IntentRecord",
]


class CoordinationMode(enum.Enum):
    """How the GM commits multi-concern reconfigurations."""

    TWO_PHASE = "two-phase"
    NAIVE = "naive"


class ConcernReview:
    """Mixin/protocol for managers that can review reconfiguration intents.

    ``review_intent`` may mutate the plan (amendments such as "secure
    this node's bindings") and returns False to veto the whole intent.
    """

    def review_intent(
        self, originator: AutonomicManager, plan: PlannedReconfiguration
    ) -> bool:
        return True


@dataclass
class IntentRecord:
    """Audit entry for one intent run through the GM."""

    time: float
    originator: str
    operation: str
    outcome: str  # committed | partial | failed | vetoed | no-plan
    amendments: int = 0
    reviewers: Tuple[str, ...] = ()


class GeneralManager:
    """The super-AM orchestrating per-concern manager hierarchies."""

    #: concerns that are boolean and therefore outrank quantitative ones
    BOOLEAN_CONCERNS = frozenset({"security"})

    def __init__(
        self,
        *,
        mode: CoordinationMode = CoordinationMode.TWO_PHASE,
        trace: Optional[TraceRecorder] = None,
        telemetry: Optional[Telemetry] = None,
        name: str = "GM",
    ) -> None:
        self.mode = mode
        self.trace = trace or TraceRecorder()
        self.telemetry = telemetry if telemetry is not None else NOOP
        self.name = name
        self._managers: List[Tuple[int, AutonomicManager]] = []
        self.intents: List[IntentRecord] = []
        #: one intent round at a time: originators ticking on their own
        #: threads must not interleave their plan/review/commit sequences
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(
        self, manager: AutonomicManager, *, priority: Optional[int] = None
    ) -> None:
        """Attach a concern manager; boolean concerns default to priority 10.

        Registration also installs this GM as the manager's coordinator,
        so its actuators route intents through here.
        """
        if priority is None:
            priority = 10 if manager.concern in self.BOOLEAN_CONCERNS else 0
        self._managers.append((priority, manager))
        self._managers.sort(key=lambda t: -t[0])
        manager.coordinator = self

    @property
    def managers(self) -> List[AutonomicManager]:
        """Registered managers in review (priority) order."""
        return [m for _, m in self._managers]

    def managers_of(self, concern: str) -> List[AutonomicManager]:
        return [m for m in self.managers if m.concern == concern]

    # ------------------------------------------------------------------
    # the intent protocol
    # ------------------------------------------------------------------
    def execute_intent(
        self, originator: AutonomicManager, op: ManagerOperation, data: Any
    ) -> bool:
        """Run one reconfiguration intent through the coordination policy.

        ``ADD_EXECUTOR`` runs plan → review → commit on the originator's
        ABC; any other operation is executed directly (nothing for other
        concerns to interpose on).  True iff at least one worker was
        admitted.
        """
        abc = originator.abc
        if op is not ManagerOperation.ADD_EXECUTOR:
            return abc.execute(op, data) if abc is not None else False
        count = int(data.get("count", 1)) if isinstance(data, Mapping) else 1
        tel = self.telemetry
        with self._lock, tel.span(
            "mc.intent",
            actor=self.name,
            originator=originator.name,
            operation=op.value,
            mode=self.mode.value,
        ) as intent_span:
            plan = abc.plan_add_workers(count)
            tel.event("intent.plan", count=count, ok=plan is not None)
            if plan is None:
                self._record(intent_span, originator, op, "no-plan")
                return False
            amendments, reviewers = 0, ()
            # naive mode commits phase-less: other concern managers only
            # find out via their own monitoring — the unsafe window of §3.2
            if self.mode is CoordinationMode.TWO_PHASE:
                ok, amendments, reviewers = self._review(originator, plan)
                if not ok:
                    self._record(intent_span, originator, op, "vetoed", amendments, reviewers)
                    return False
            admitted = len(abc.commit_plan(plan))
            if admitted == count:
                outcome = "committed"
            else:
                outcome = "partial" if admitted else "failed"
            if tel.enabled:
                tel.metrics.counter(
                    "repro_mc_admitted_workers_total", "workers committed through the GM"
                ).labels(gm=self.name).inc(admitted)
                if amendments:
                    tel.metrics.counter(
                        "repro_mc_amendments_total", "plan amendments applied by reviewers"
                    ).labels(gm=self.name).inc(amendments)
            self._record(intent_span, originator, op, outcome, amendments, reviewers)
            return admitted > 0

    def _review(
        self, originator: AutonomicManager, plan: PlannedReconfiguration
    ) -> Tuple[bool, int, Tuple[str, ...]]:
        """Phase one: every other concern manager, in priority order, may
        amend the plan or veto it; the first veto aborts the plan.

        Returns ``(ok, amendments, reviewer_names)``.
        """
        tel = self.telemetry
        amendments = 0
        names: List[str] = []
        for reviewer in self.managers:
            if reviewer is originator or not hasattr(reviewer, "review_intent"):
                continue
            names.append(reviewer.name)
            before = dict(plan.secured)
            verdict = reviewer.review_intent(originator, plan)
            tel.event("intent.review", reviewer=reviewer.name, verdict=verdict is not False)
            if plan.secured != before:
                amendments += 1
                self.trace.mark(
                    originator.sim.now,
                    reviewer.name,
                    Events.INTENT_AMENDED,
                    nodes=[n for n in plan.secured if plan.secured[n]],
                )
                tel.event("intent.amend", reviewer=reviewer.name)
            if verdict is False:
                originator.abc.abort_plan(plan)
                self.trace.mark(originator.sim.now, reviewer.name, Events.INTENT_VETOED)
                tel.event("intent.veto", reviewer=reviewer.name)
                return False, amendments, tuple(names)
        return True, amendments, tuple(names)

    def _record(
        self,
        span: Any,
        originator: AutonomicManager,
        op: ManagerOperation,
        outcome: str,
        amendments: int = 0,
        reviewers: Tuple[str, ...] = (),
    ) -> None:
        span.set_attribute("outcome", outcome)
        now = originator.sim.now
        self.intents.append(
            IntentRecord(now, originator.name, op.value, outcome, amendments, reviewers)
        )
        self.trace.mark(
            now, self.name, Events.INTENT_REVIEW, originator=originator.name, outcome=outcome
        )
        if self.telemetry.enabled:
            self.telemetry.metrics.counter(
                "repro_mc_intent_rounds_total", "intent rounds through the GM, by outcome"
            ).labels(gm=self.name, outcome=outcome).inc()

    # ------------------------------------------------------------------
    # the §3.2 super-contract c̄
    # ------------------------------------------------------------------
    def super_contract(
        self, weights: Optional[List[float]] = None
    ) -> "WeightedCompositeContract":
        """Derive c̄ from the registered managers' contracts.

        "how to derive some kind of 'summary' super-contract c̄ from
        c₁, …, c_h with its own policies such that managing that contract
        leads to fair and efficient management of all the concerns" —
        the linear-combination answer lives in
        :class:`~repro.core.contracts.WeightedCompositeContract`; this
        method assembles it from whatever the concern managers currently
        hold.
        """
        from .contracts import WeightedCompositeContract

        parts = [m.contract for m in self.managers if m.contract is not None]
        if not parts:
            raise ManagerError("no registered manager holds a contract yet")
        return WeightedCompositeContract(parts, weights)

    def combined_monitor(self) -> Dict[str, Any]:
        """Union of every registered manager's last monitor sample.

        Key collisions resolve in priority order (higher-priority
        concerns win), matching the review ordering.
        """
        merged: Dict[str, Any] = {}
        for m in reversed(self.managers):  # low priority first, overwritten
            if m.last_monitor:
                merged.update(m.last_monitor)
        return merged

    def super_contract_score(
        self, weights: Optional[List[float]] = None
    ) -> Optional[float]:
        """c̄'s satisfaction degree against the combined monitor sample."""
        return self.super_contract(weights).score(self.combined_monitor())

    # ------------------------------------------------------------------
    # audit helpers
    # ------------------------------------------------------------------
    def committed_intents(self) -> List[IntentRecord]:
        return [r for r in self.intents if r.outcome == "committed"]

    def vetoed_intents(self) -> List[IntentRecord]:
        return [r for r in self.intents if r.outcome == "vetoed"]

    def outcomes(self) -> Dict[str, int]:
        """Intent outcome histogram (committed/vetoed/no-plan/...)."""
        return dict(Counter(r.outcome for r in self.intents))
