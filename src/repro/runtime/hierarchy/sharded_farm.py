"""The farm-of-farms: a parent manager over N live farm shards.

This is the paper's §3.1 hierarchy made live: a root SLA arrives at the
parent, :func:`~repro.core.contracts.split_rate_contract` solves it
into per-shard sub-contracts whose rates sum *exactly* to the root's,
and each shard — a full :class:`~repro.runtime.backend.FarmBackend`
under its own unmodified Figure 5 controller — enforces its slice
autonomously.  The parent runs its own MAPE loop on top, one
:meth:`ShardedFarm.parent_step` per ``control_period`` on the same
:class:`~repro.runtime.controller.WallTimeBase` ticker every live
manager ticks on (``<name>.loop``):

* **monitor** — poll every shard link for a
  :class:`~repro.runtime.hierarchy.shard.ShardReport` (the
  :class:`~repro.runtime.hierarchy.shard.FarmShard` itself, or
  ``poll``/``report``/``violation`` frames over TCP when ``over_wire``);
  aggregate shard violations into the parent's record, the upward half
  of "violations propagate to the parent";
* **analyse** — classify each shard, from its own report against its
  own sub-contract, as starving (capacity-capped and missing its slice
  with work waiting) or donor (idle headroom).  No aggregate sample is
  judged: the root SLA counts as unmet only when a shard is starving
  and no donor is left (a *root violation*);
* **plan** — pick one unit of capacity to move from the most
  over-provisioned donor to the most starving shard, if any;
* **execute** — re-cap both shards' budgets over their links (the
  donor shrinks gracefully: removal poisons a worker *behind* its
  queued tasks, so rebalancing never loses or duplicates a task) and
  re-solve the root SLA across the new budget weights via
  :func:`~repro.core.contracts.split_rate_contract_weighted`.

On top rides the multi-tenant layer (:mod:`.tenants`): submissions
carry a tenant name, pass the admission gate (accept / queue /
reject), and queued backlogs drain through the stride scheduler in
weighted fair share before entering the shard tree.  The tenant name
is stamped on each task's root trace span, so
``python -m repro.obs.explain --tenant NAME`` narrates one tenant's
story end-to-end from an export.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ...core.contracts import (
    Contract,
    split_rate_contract,
    split_rate_contract_weighted,
)
from ...obs.telemetry import NOOP, Telemetry
from ..controller import WallTimeBase
from ..dist_farm import DistFarm
from ..farm_runtime import ThreadFarm
from ..process_farm import ProcessFarm
from .shard import FarmShard, ShardReport
from .tenants import Admission, FairShareScheduler, TenantRegistry
from .wire import ShardAgent, TcpShardLink

__all__ = ["ShardedFarm", "RebalanceEvent", "FARM_BACKENDS", "make_shard_backend"]


#: the one name → :class:`FarmBackend` class table of the live runtime
FARM_BACKENDS = {"thread": ThreadFarm, "process": ProcessFarm, "dist": DistFarm}


def make_shard_backend(
    backend: str,
    fn: Callable[[Any], Any],
    *,
    initial_workers: int,
    max_workers: int,
    name: str,
    telemetry: Optional[Telemetry] = None,
    **kwargs: Any,
):
    """Build one :class:`FarmBackend` by name (thread/process/dist)."""
    if backend not in FARM_BACKENDS:
        raise ValueError(
            f"unknown farm backend {backend!r} (choose from {tuple(FARM_BACKENDS)})"
        )
    return FARM_BACKENDS[backend](
        fn,
        initial_workers=initial_workers,
        max_workers=max_workers,
        name=name,
        telemetry=telemetry,
        **kwargs,
    )


@dataclass
class RebalanceEvent:
    """One capacity move the parent executed."""

    time: float
    from_shard: int
    to_shard: int
    amount: int
    #: seconds from first starving observation to the budget transfer
    latency: float


class ShardedFarm:
    """N farm shards under one parent manager and one root SLA."""

    def __init__(
        self,
        fn: Callable[[Any], Any],
        *,
        contract: Contract,
        shards: int = 2,
        backend: str = "thread",
        initial_workers_per_shard: int = 1,
        max_workers_total: int = 8,
        control_period: float = 0.25,
        rebalance_cooldown: Optional[float] = None,
        registry: Optional[TenantRegistry] = None,
        telemetry: Optional[Telemetry] = None,
        name: str = "hfarm",
        over_wire: Optional[bool] = None,
        autostart: bool = True,
        shard_kwargs: Optional[Dict[str, Any]] = None,
    ) -> None:
        if shards < 1:
            raise ValueError("need at least one shard")
        if max_workers_total < shards:
            raise ValueError(
                f"total budget {max_workers_total} cannot cover {shards} shards"
            )
        self.name = name
        self.backend = backend
        self.contract = contract
        self.telemetry = telemetry if telemetry is not None else NOOP
        self.control_period = control_period
        self.rebalance_cooldown = (
            rebalance_cooldown if rebalance_cooldown is not None else 2 * control_period
        )
        self.max_workers_total = max_workers_total
        self.registry = registry
        self.scheduler = FairShareScheduler(registry) if registry else None
        #: management plane over TCP frames (default: only for dist shards)
        self.over_wire = over_wire if over_wire is not None else (backend == "dist")

        # initial budgets: spread the total as evenly as integers allow
        base, extra = divmod(max_workers_total, shards)
        self.budgets = [base + (1 if i < extra else 0) for i in range(shards)]
        self.sub_contracts = split_rate_contract(contract, shards)

        self.shards: List[FarmShard] = []
        #: what the parent polls and steers: each shard itself, or its TCP link
        self.links: List[Union[FarmShard, TcpShardLink]] = []
        self.agents: List[Optional[ShardAgent]] = []
        kwargs = dict(shard_kwargs or {})
        for i in range(shards):
            farm = make_shard_backend(
                backend,
                fn,
                initial_workers=min(initial_workers_per_shard, self.budgets[i]),
                max_workers=max_workers_total,
                name=f"{name}-s{i}",
                telemetry=telemetry,
                **kwargs,
            )
            shard = FarmShard(
                i,
                farm,
                self.sub_contracts[i],
                control_period=control_period,
                budget=self.budgets[i],
                telemetry=telemetry,
                name=f"{name}-s{i}",
            )
            agent = ShardAgent(shard, telemetry=telemetry) if self.over_wire else None
            self.shards.append(shard)
            self.links.append(
                TcpShardLink(agent.host, agent.port, shard_id=i) if agent else shard
            )
            self.agents.append(agent)
        # every shard delivers into the first one's results queue, rebound
        # before any task exists: a result reaches drain_results directly
        for shard in self.shards[1:]:
            shard.farm.results = self.shards[0].farm.results

        #: (parent time, shard id, violation kind) aggregated from reports
        self.violations: List[Tuple[float, int, str]] = []
        #: (parent time, description) — the root SLA judged unmet with no move left
        self.root_violations: List[Tuple[float, str]] = []
        self.rebalances: List[RebalanceEvent] = []
        self.last_reports: List[Optional[ShardReport]] = [None] * shards

        self._lock = threading.RLock()
        self._t0 = time.monotonic()
        self._submitted = 0
        self._dispatched_per_shard = [0] * shards
        self._shard_vt = [0.0] * shards  # stride dispatch virtual times
        self._starving_since: Dict[int, float] = {}
        self._last_rebalance = -float("inf")
        self._loop: Optional[Any] = None

        if autostart:
            self.start()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def now(self) -> float:
        return time.monotonic() - self._t0

    def start(self) -> "ShardedFarm":
        for shard in self.shards:
            shard.start()
        if self._loop is None or self._loop.cancelled:
            self._loop = WallTimeBase(self.now).periodic(
                self.control_period, self._tick, name=f"{self.name}.loop"
            )
        return self

    def _tick(self) -> None:
        # parent_step returns the move it made; a periodic task reads a
        # truthy return as "stop", so the loop body returns None
        self.parent_step()

    def shutdown(self) -> None:
        if self._loop is not None:
            self._loop.cancel()  # waits out a tick in flight: no link is closed under it
        for shard in self.shards:
            shard.stop()
        for link, agent in zip(self.links, self.agents):
            if agent is not None:
                link.close()
                agent.close()
        for shard in self.shards:
            shard.farm.shutdown()
        if self.telemetry.enabled:
            self.telemetry.flush()

    # ------------------------------------------------------------------
    # stream
    # ------------------------------------------------------------------
    def submit(self, payload: Any, *, tenant: Optional[str] = None) -> str:
        """Submit one task; returns the admission verdict.

        Without a tenant (or without a registry) every task is accepted
        straight into the shard tree.  With a tenant, the admission gate
        applies: ``accept`` dispatches now, ``queue`` parks the task in
        the tenant's backlog for the fair-share scheduler, ``reject``
        drops it (the caller sees the verdict and may retry later).
        """
        if tenant is None or self.registry is None:
            self._dispatch(payload, tenant=tenant)
            return Admission.ACCEPT
        verdict = self.registry.admit(tenant, payload, self.now())
        if verdict == Admission.ACCEPT:
            self._dispatch_tenant(tenant, payload)
        return verdict

    def _dispatch(self, payload: Any, *, tenant: Optional[str] = None) -> int:
        """Stride-dispatch one task to a shard, weighted by budget."""
        with self._lock:
            shard_id = min(
                range(len(self.shards)), key=lambda i: self._shard_vt[i]
            )
            self._shard_vt[shard_id] += 1.0 / max(1, self.budgets[shard_id])
            self._submitted += 1
            self._dispatched_per_shard[shard_id] += 1
        self.shards[shard_id].farm.submit(payload, tenant=tenant)
        return shard_id

    def _dispatch_tenant(self, tenant_name: str, payload: Any) -> None:
        self._dispatch(payload, tenant=tenant_name)
        assert self.registry is not None
        tenant = self.registry.get(tenant_name)
        tenant.dispatched += 1
        tenant.dispatched_total.inc()

    def drain_results(self, count: int, timeout: float = 30.0) -> List[Any]:
        """Collect ``count`` results from all shards (completion order)."""
        return self.shards[0].farm.drain_results(count, timeout)

    # ------------------------------------------------------------------
    # monitoring
    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        return sum(shard.farm.num_workers for shard in self.shards)

    @property
    def submitted(self) -> int:
        return self._submitted

    @property
    def completed(self) -> int:
        return sum(shard.farm.completed for shard in self.shards)

    # ------------------------------------------------------------------
    # the parent MAPE loop
    # ------------------------------------------------------------------
    def parent_step(self) -> Optional[RebalanceEvent]:
        """One parent MAPE tick (public so tests can drive it)."""
        tel = self.telemetry
        now = self.now()
        with tel.span("hier.cycle", actor=self.name):
            with tel.span("hier.monitor", actor=self.name):
                reports = self._monitor(now)
            with tel.span("hier.plan", actor=self.name) as plan:
                move = self._plan_rebalance(reports, now)
                if tel.enabled and move is not None:
                    plan.set_attribute("move", {
                        "from": move[0], "to": move[1],
                    })
            event: Optional[RebalanceEvent] = None
            with tel.span("hier.execute", actor=self.name):
                if move is not None:
                    event = self._execute_rebalance(*move, now=now)
                self._pump_tenants(now)
        if tel.enabled:
            tel.metrics.counter(
                "repro_hier_parent_ticks_total", "parent MAPE ticks executed"
            ).labels(farm=self.name).inc()
        return event

    def _monitor(self, now: float) -> List[ShardReport]:
        """Poll every shard; aggregate violations and refresh gauges."""
        tel = self.telemetry
        reports: List[ShardReport] = []
        for link in self.links:
            report = link.poll()
            reports.append(report)
            self.last_reports[report.shard_id] = report
            for _when, kind in report.violations:
                self.violations.append((now, report.shard_id, kind))
                if tel.enabled:
                    tel.metrics.counter(
                        "repro_hier_violations_total",
                        "shard violations aggregated by the parent",
                    ).labels(farm=self.name, shard=str(report.shard_id),
                             kind=kind).inc()
                    adaptation = getattr(tel, "adaptation", None)
                    if adaptation is not None:
                        adaptation.violation_observed(
                            kind, farm=self.name, shard=report.shard_id
                        )
            if tel.enabled:
                m = tel.metrics
                labels = dict(farm=self.name, shard=str(report.shard_id))
                m.gauge(
                    "repro_shard_workers", "workers per shard"
                ).labels(**labels).set(report.num_workers)
                m.gauge(
                    "repro_shard_budget", "parent-granted worker budget per shard"
                ).labels(**labels).set(report.budget)
                m.gauge(
                    "repro_shard_departure_rate", "departure rate per shard"
                ).labels(**labels).set(report.departure_rate)
                m.gauge(
                    "repro_shard_pending", "tasks in flight per shard"
                ).labels(**labels).set(report.pending)
        if self.registry is not None:
            self.registry.observe_gauges()
        return reports

    def _sub_low(self, shard_id: int) -> float:
        """The throughput floor of one shard's current sub-contract."""
        sub = self.sub_contracts[shard_id]
        parts = getattr(sub, "parts", [sub])
        for part in parts:
            low = getattr(part, "low", None) or getattr(part, "target", None)
            if low is not None:
                return float(low)
        return 0.0

    def _plan_rebalance(
        self, reports: List[ShardReport], now: float
    ) -> Optional[Tuple[int, int]]:
        """Pick (donor, starving) shard ids, or None.

        A shard is *starving* when it is capacity-capped (workers at its
        parent-granted budget), missing its sub-contract's throughput
        floor, and has work waiting — growth is what its own Figure 5
        rules would do, and only the budget stops them.  A *donor* has
        idle headroom: workers below budget, or no pending work and
        arrivals below its floor.  The root SLA re-solves over the new
        budgets, so the donor's sub-contract shrinks to what it can
        still carry — no rate leaks from the root contract.
        """
        starving: List[ShardReport] = []
        donors: List[ShardReport] = []
        for report in reports:
            low = self._sub_low(report.shard_id)
            capped = report.num_workers >= report.budget
            missing = report.departure_rate < low
            backlogged = report.pending > max(1, report.num_workers)
            idle = report.pending == 0 and report.arrival_rate < low
            if capped and missing and backlogged:
                starving.append(report)
                self._starving_since.setdefault(report.shard_id, now)
            else:
                self._starving_since.pop(report.shard_id, None)
            if report.budget > 1 and (report.num_workers < report.budget or idle):
                donors.append(report)
        if not starving:
            return None
        target = max(starving, key=lambda r: r.pending)
        candidates = [d for d in donors if d.shard_id != target.shard_id]
        if not candidates:
            if now - self._last_rebalance > self.rebalance_cooldown:
                self.root_violations.append(
                    (now, f"shard {target.shard_id} starving with no donor")
                )
                if self.telemetry.enabled:
                    self.telemetry.metrics.counter(
                        "repro_hier_root_violations_total",
                        "root SLA unmet with no rebalancing move available",
                    ).labels(farm=self.name).inc()
            return None
        if now - self._last_rebalance < self.rebalance_cooldown:
            return None  # let the previous move take effect first
        donor = max(
            candidates, key=lambda r: (r.budget - r.num_workers, -r.pending)
        )
        return donor.shard_id, target.shard_id

    def _execute_rebalance(
        self, donor_id: int, target_id: int, *, now: float
    ) -> RebalanceEvent:
        """Move one unit of budget donor → target and re-solve the SLA."""
        with self._lock:
            self.budgets[donor_id] -= 1
            self.budgets[target_id] += 1
            new_budgets = list(self.budgets)
        self.links[donor_id].set_budget(new_budgets[donor_id])
        self.links[target_id].set_budget(new_budgets[target_id])
        # re-solve the root SLA proportionally to the new capacity map;
        # the weighted split conserves the root rate exactly, so the
        # shard tree's aggregate demand never drifts from the user's SLA
        self.sub_contracts = split_rate_contract_weighted(
            self.contract, [float(b) for b in new_budgets]
        )
        for link, sub in zip(self.links, self.sub_contracts):
            link.assign_contract(sub)
        latency = now - self._starving_since.get(target_id, now)
        self._starving_since.pop(target_id, None)
        self._last_rebalance = now
        event = RebalanceEvent(
            time=now,
            from_shard=donor_id,
            to_shard=target_id,
            amount=1,
            latency=latency,
        )
        self.rebalances.append(event)
        if self.telemetry.enabled:
            m = self.telemetry.metrics
            m.counter(
                "repro_hier_rebalance_total", "capacity moves between shards"
            ).labels(farm=self.name, source=str(donor_id),
                     target=str(target_id)).inc()
            m.histogram(
                "repro_hier_rebalance_latency_seconds",
                "starvation observed to budget transferred",
            ).labels(farm=self.name).observe(latency)
            adaptation = getattr(self.telemetry, "adaptation", None)
            if adaptation is not None:
                adaptation.plan_committed(
                    "rebalance", farm=self.name, source=donor_id, target=target_id
                )
            self.telemetry.event(
                "hier.rebalance",
                source=donor_id,
                target=target_id,
                latency=latency,
                budgets=new_budgets,
            )
        return event

    def _pump_tenants(self, now: float) -> None:
        if self.scheduler is None:
            return
        for tenant, payload in self.scheduler.pump(now):
            self._dispatch_tenant(tenant.name, payload)
