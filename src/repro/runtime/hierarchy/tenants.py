"""Multi-tenant SLA layer: registry, admission control, fair share.

The paper's SLA machinery binds one user to one application.  A
"millions of users" deployment multiplexes many *tenants* — each with
its own rate SLA — onto one shard tree, which needs three pieces the
paper leaves implicit:

* :class:`TenantRegistry` — the tenants and their
  :class:`RateContract` SLAs, each with a token bucket sized to the
  contracted rate (burst = a configurable multiple of one second's
  quota);
* **admission control** (:meth:`TenantRegistry.admit`) — a tenant over
  its quota is *queued* (bounded backlog) and, past the backlog bound,
  *rejected*; inside quota it is admitted immediately.  This is the
  outermost MAPE actuator: it protects every other tenant's SLA before
  any task reaches the shard tree;
* **weighted fair-share dispatch** (:class:`FairShareScheduler`) —
  queued tenants drain by stride scheduling: each dispatch charges the
  tenant ``1/weight`` of virtual time and the scheduler always serves
  the tenant with the smallest virtual finish time, so over any window
  each backlogged tenant receives capacity proportional to its weight
  (its contracted rate, by default).

Everything observable lands in ``repro_tenant_*`` metrics, labelled by
tenant, so the fair-share error asserted in tests (and reported as
BENCH_stack's ``tenants.fair_share_error``) comes from the same
counters operators would watch.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ...core.contracts import RateContract
from ...obs.telemetry import NOOP, Telemetry

__all__ = ["Tenant", "TenantRegistry", "FairShareScheduler", "Admission"]


class Admission:
    """The three admission verdicts."""

    ACCEPT = "accept"
    QUEUE = "queue"
    REJECT = "reject"


class Tenant:
    """One tenant: a rate SLA, a token bucket and its counters."""

    def __init__(
        self,
        name: str,
        sla: RateContract,
        *,
        weight: Optional[float] = None,
        burst: Optional[float] = None,
        max_backlog: int = 1024,
    ) -> None:
        if weight is not None and weight <= 0:
            raise ValueError(f"tenant weight must be positive, got {weight}")
        self.name = name
        self.sla = sla
        self.weight = weight if weight is not None else sla.rate
        #: bucket capacity in tokens (default: two seconds of quota)
        self.burst = burst if burst is not None else max(1.0, 2.0 * sla.rate)
        self.max_backlog = max_backlog
        self.tokens = self.burst
        self.last_refill: Optional[float] = None
        self.backlog: Deque[Any] = deque()
        #: stride-scheduling virtual time (see FairShareScheduler)
        self.virtual_time = 0.0
        self.submitted = 0
        self.admitted = 0
        self.queued = 0
        self.rejected = 0
        self.dispatched = 0
        # the tenant's repro_tenant_* instruments are bound onto it by
        # TenantRegistry.register (see _bind_instruments)

    def refill(self, now: float) -> None:
        """Accrue tokens at the contracted rate since the last refill."""
        if self.last_refill is None:
            self.last_refill = now
            return
        elapsed = max(0.0, now - self.last_refill)
        self.last_refill = now
        self.tokens = min(self.burst, self.tokens + elapsed * self.sla.rate)


class TenantRegistry:
    """The tenants sharing one shard tree, and their admission gate."""

    def __init__(self, *, telemetry: Optional[Telemetry] = None) -> None:
        self.telemetry = telemetry if telemetry is not None else NOOP
        self._tenants: Dict[str, Tenant] = {}
        #: the scheduler's current virtual time: a tenant returning from
        #: an idle spell syncs up to it instead of replaying its unused
        #: past share and starving the incumbents
        self.global_vt = 0.0
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        rate: float,
        *,
        weight: Optional[float] = None,
        burst: Optional[float] = None,
        max_backlog: int = 1024,
    ) -> Tenant:
        with self._lock:
            if name in self._tenants:
                raise ValueError(f"tenant {name!r} already registered")
            tenant = Tenant(
                name,
                RateContract(rate=rate),
                weight=weight,
                burst=burst,
                max_backlog=max_backlog,
            )
            self._bind_instruments(tenant)
            self._tenants[name] = tenant
            return tenant

    def _bind_instruments(self, tenant: Tenant) -> None:
        """Bind the tenant's ``repro_tenant_*`` children once, here — the
        admission path then counts with attribute reads, and every
        series exists (at zero) from registration on."""
        m = self.telemetry.metrics
        label = {"tenant": tenant.name}
        tenant.submitted_total = m.counter(
            "repro_tenant_submitted_total", "tasks offered by each tenant"
        ).labels(**label)
        tenant.verdict_totals = {
            Admission.ACCEPT: m.counter(
                "repro_tenant_admitted_total", "tasks admitted within quota"
            ).labels(**label),
            Admission.QUEUE: m.counter(
                "repro_tenant_queued_total", "tasks queued over quota (bounded backlog)"
            ).labels(**label),
            Admission.REJECT: m.counter(
                "repro_tenant_rejected_total", "tasks rejected over quota and backlog"
            ).labels(**label),
        }
        tenant.dispatched_total = m.counter(
            "repro_tenant_dispatched_total",
            "tasks dispatched into the shard tree per tenant",
        ).labels(**label)
        tenant.backlog_gauge = m.gauge(
            "repro_tenant_backlog", "tasks waiting in a tenant's backlog"
        ).labels(**label)
        tenant.tokens_gauge = m.gauge(
            "repro_tenant_tokens", "admission tokens currently available"
        ).labels(**label)
        tenant.tokens_gauge.set(tenant.tokens)

    def get(self, name: str) -> Tenant:
        with self._lock:
            try:
                return self._tenants[name]
            except KeyError:
                raise KeyError(f"unknown tenant {name!r}") from None

    def tenants(self) -> List[Tenant]:
        with self._lock:
            return list(self._tenants.values())

    def __len__(self) -> int:
        return len(self._tenants)

    def __contains__(self, name: str) -> bool:
        return name in self._tenants

    # ------------------------------------------------------------------
    def admit(self, name: str, payload: Any, now: float) -> str:
        """Judge one submission against the tenant's quota.

        ``accept`` consumes a token (caller dispatches immediately);
        ``queue`` stores the payload in the tenant's bounded backlog
        (the fair-share scheduler drains it as tokens refill);
        ``reject`` drops it — quota and backlog are both exhausted.
        """
        tenant = self.get(name)
        with self._lock:
            tenant.submitted += 1
            tenant.refill(now)
            if tenant.tokens >= 1.0 and not tenant.backlog:
                tenant.tokens -= 1.0
                tenant.admitted += 1
                verdict = Admission.ACCEPT
            elif len(tenant.backlog) < tenant.max_backlog:
                tenant.backlog.append(payload)
                tenant.queued += 1
                verdict = Admission.QUEUE
            else:
                tenant.rejected += 1
                verdict = Admission.REJECT
        tenant.submitted_total.inc()
        tenant.verdict_totals[verdict].inc()
        return verdict

    def observe_gauges(self) -> None:
        """Refresh per-tenant gauges (called from the parent MAPE tick)."""
        with self._lock:
            for tenant in self._tenants.values():
                tenant.backlog_gauge.set(len(tenant.backlog))
                tenant.tokens_gauge.set(tenant.tokens)


class FairShareScheduler:
    """Stride scheduler draining tenant backlogs in weighted fair share.

    ``pump(now)`` releases every backlogged task whose tenant has a
    token, always choosing the backlogged tenant with the smallest
    virtual time and charging it ``1/weight`` per release — the classic
    stride-scheduling invariant: over any interval where tenants stay
    backlogged, dispatch counts are proportional to weights.
    """

    def __init__(self, registry: TenantRegistry) -> None:
        self.registry = registry

    def pump(self, now: float) -> List[Tuple[Tenant, Any]]:
        """Release admissible backlogged tasks, fair-share ordered."""
        released: List[Tuple[Tenant, Any]] = []
        with self.registry._lock:
            backlogged = [t for t in self.registry.tenants() if t.backlog]
            if not backlogged:
                return released
            for tenant in backlogged:
                tenant.refill(now)
                # a tenant returning from an idle spell joins at the
                # scheduler's current virtual time, not at its stale one
                tenant.virtual_time = max(
                    tenant.virtual_time, self.registry.global_vt
                )
            while True:
                eligible = [
                    t for t in backlogged if t.backlog and t.tokens >= 1.0
                ]
                if not eligible:
                    break
                tenant = min(eligible, key=lambda t: t.virtual_time)
                # the chosen (minimum) virtual time IS the current global
                # virtual time of the stride scheduler
                self.registry.global_vt = tenant.virtual_time
                tenant.tokens -= 1.0
                tenant.virtual_time += 1.0 / tenant.weight
                payload = tenant.backlog.popleft()
                tenant.admitted += 1
                released.append((tenant, payload))
        return released
