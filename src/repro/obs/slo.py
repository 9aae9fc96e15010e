"""SLOs compiled from SLA contracts, scored by multi-window burn rates.

The paper's managers *react* to contract violations; this module keeps
the longitudinal score — how well the autonomic loop is meeting its
contract over time, in SRE vocabulary:

* :func:`slo_from_contract` **compiles** the live `Contract` objects the
  managers already hold (throughput ranges, tenant `RateContract` SLAs,
  latency caps, the boolean security concern) into :class:`SLO`
  objectives whose *sample* functions read the
  :class:`~repro.obs.timeseries.TimeSeriesStore` — no hand-written
  alert config, the SLA **is** the config;
* :class:`SLOEngine` evaluates every objective after each scrape with
  **multi-window multi-burn-rate** rules (fast windows page, slow
  windows warn — the standard SRE workbook shape), keeps error-budget
  accounting in ``repro_slo_violation_seconds_total`` /
  ``repro_slo_budget_remaining``, and emits alert transitions as
  telemetry events, detached ``slo.alert`` spans and ``/stream``
  messages, so a page is causally linkable to the MAPE cycle that
  answered it;
* :class:`AdaptationTracker` stamps the three timestamps ROADMAP item 4
  asks for — *violation observed → plan committed → effect visible* —
  from hook points in the controller, the shard hierarchy and the
  supervisor, recording each leg in
  ``repro_adaptation_latency_seconds{stage=…}``.

Deliberately import-light: ``repro.core`` is imported *inside*
:func:`slo_from_contract` (the rules engine imports ``repro.obs``, so a
module-level import here would cycle).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

from .spans import Span
from .timeseries import StreamBroker, TimeSeriesStore

__all__ = [
    "BurnWindows",
    "SLO",
    "SLOEngine",
    "AdaptationTracker",
    "slo_from_contract",
    "slos_for_sharded",
    "LEVEL_OK",
    "LEVEL_WARN",
    "LEVEL_PAGE",
]

LEVEL_OK = "ok"
LEVEL_WARN = "warn"
LEVEL_PAGE = "page"
_LEVEL_RANK = {LEVEL_OK: 0, LEVEL_WARN: 1, LEVEL_PAGE: 2}


@dataclass(frozen=True)
class BurnWindows:
    """Window/threshold set for multi-window multi-burn-rate alerting.

    Defaults are the SRE-workbook hour-scale numbers; live fig4 runs
    pass second-scale windows via :meth:`scaled` so the same rules fire
    inside a two-second starve phase.
    """

    fast_short: float = 60.0
    fast_long: float = 300.0
    slow_short: float = 1800.0
    slow_long: float = 7200.0
    page_burn: float = 14.4
    warn_burn: float = 3.0

    def scaled(self, factor: float) -> "BurnWindows":
        """The same rule shape with every window multiplied by ``factor``."""
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        return BurnWindows(
            fast_short=self.fast_short * factor,
            fast_long=self.fast_long * factor,
            slow_short=self.slow_short * factor,
            slow_long=self.slow_long * factor,
            page_burn=self.page_burn,
            warn_burn=self.warn_burn,
        )

    @property
    def horizon(self) -> float:
        return max(self.fast_long, self.slow_long)


@dataclass
class SLO:
    """One objective: a contract judged against time-series samples.

    ``sample(store, now)`` assembles the monitor mapping the contract's
    ``check`` expects; a sample the contract cannot judge (``check``
    returns None) leaves the compliance record untouched — absence of
    data is not a violation.
    """

    name: str
    contract: Any
    sample: Callable[[TimeSeriesStore, float], Mapping[str, Any]]
    description: str = ""
    budget_fraction: float = 0.05
    budget_window: float = 3600.0
    labels: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0 < self.budget_fraction < 1:
            raise ValueError(
                f"budget fraction must be in (0, 1), got {self.budget_fraction}"
            )
        if self.budget_window <= 0:
            raise ValueError(
                f"budget window must be positive, got {self.budget_window}"
            )
        if not self.description:
            self.description = self.contract.describe()


class _SLOState:
    """Mutable per-objective record the engine keeps between scrapes."""

    __slots__ = (
        "slo",
        "samples",
        "last_eval",
        "last_verdict",
        "level",
        "violation_seconds",
        "alert_span",
        "episode_start",
        "episode_violation_seconds",
        "transitions",
    )

    def __init__(self, slo: SLO) -> None:
        self.slo = slo
        #: (t, dt_observed, dt_violating) — pruned to the widest window
        self.samples: deque = deque()
        self.last_eval: Optional[float] = None
        self.last_verdict: Optional[bool] = None
        self.level = LEVEL_OK
        self.violation_seconds = 0.0
        self.alert_span: Optional[Span] = None
        self.episode_start: Optional[float] = None
        self.episode_violation_seconds = 0.0
        self.transitions: List[Dict[str, Any]] = []

    def record(self, now: float, violating: bool, horizon: float) -> float:
        """Append one compliance sample; returns the dt it covers."""
        dt = 0.0 if self.last_eval is None else max(0.0, now - self.last_eval)
        self.samples.append((now, dt, dt if violating else 0.0))
        cutoff = now - horizon
        while self.samples and self.samples[0][0] < cutoff:
            self.samples.popleft()
        return dt

    def burn(self, window: float, now: float, budget_fraction: float) -> float:
        """Burn rate over the trailing ``window``: violating-fraction /
        budget-fraction (1.0 = spending budget exactly on schedule).

        Readers iterate a copy: an evaluation on another thread may be
        appending to and pruning the window meanwhile."""
        t0 = now - window
        observed = violating = 0.0
        for t, dt, dv in self.samples.copy():
            if t >= t0:
                observed += dt
                violating += dv
        if observed <= 0:
            return 0.0
        return (violating / observed) / budget_fraction

    def budget_remaining(self, now: float) -> float:
        """Fraction of the error budget left over the budget window (may
        go negative when overspent — that *is* the signal)."""
        slo = self.slo
        t0 = now - slo.budget_window
        violating = sum(dv for t, _, dv in self.samples.copy() if t >= t0)
        budget_seconds = slo.budget_fraction * slo.budget_window
        return 1.0 - violating / budget_seconds


class SLOEngine:
    """Evaluates every objective after each scrape and raises alerts.

    Registers itself as a scrape listener on ``store`` and installs
    itself as ``telemetry.slo`` (plus an :class:`AdaptationTracker` as
    ``telemetry.adaptation`` when none exists), so the HTTP surface and
    the runtime hook points find it by attribute, never by import.
    """

    def __init__(
        self,
        telemetry: Any,
        store: TimeSeriesStore,
        slos: List[SLO],
        *,
        windows: Optional[BurnWindows] = None,
        broker: Optional[StreamBroker] = None,
        name: str = "SLO",
    ) -> None:
        self.telemetry = telemetry
        self.store = store
        self.windows = windows if windows is not None else BurnWindows()
        self.broker = broker
        self.name = name
        self._lock = threading.Lock()
        #: one evaluation at a time: the scraper, ``/slo`` callers and
        #: probes may all call :meth:`evaluate` on their own threads
        self._evaluating = threading.Lock()
        self._states: Dict[str, _SLOState] = {}
        for slo in slos:
            self.add(slo)
        self.evaluations = 0
        store.add_listener(self._on_scrape)
        telemetry.slo = self
        if getattr(telemetry, "adaptation", None) is None:
            telemetry.adaptation = AdaptationTracker(telemetry)

    # -- objectives ------------------------------------------------------
    def add(self, slo: SLO) -> None:
        with self._lock:
            if slo.name in self._states:
                raise ValueError(f"duplicate SLO name {slo.name!r}")
            self._states[slo.name] = _SLOState(slo)

    @property
    def slos(self) -> List[SLO]:
        with self._lock:
            return [s.slo for s in self._states.values()]

    # -- evaluation ------------------------------------------------------
    def _on_scrape(self, now: float, store: TimeSeriesStore) -> None:
        self.evaluate(now)

    def evaluate(self, now: Optional[float] = None) -> None:
        t = self.telemetry.clock.now() if now is None else now
        with self._lock:
            states = list(self._states.values())
        with self._evaluating:
            for state in states:
                self._evaluate_one(state, t)
            self.evaluations += 1

    def _evaluate_one(self, state: _SLOState, now: float) -> None:
        slo = state.slo
        try:
            monitor = slo.sample(self.store, now)
        except Exception:  # noqa: BLE001 - a bad sample must not kill the loop
            monitor = {}
        verdict = slo.contract.check(monitor) if monitor else None
        if verdict is None:
            # unjudgeable: keep the clock moving so windows age out, but
            # count the gap as neither compliant nor violating
            state.last_eval = now
            return

        horizon = max(self.windows.horizon, slo.budget_window)
        dt = state.record(now, not verdict, horizon)
        state.last_eval = now
        metrics = self.telemetry.metrics
        if not verdict and dt > 0:
            metrics.counter(
                "repro_slo_violation_seconds_total",
                "seconds spent violating each SLO",
            ).labels(slo=slo.name).inc(dt)
            state.violation_seconds += dt
            state.episode_violation_seconds += dt

        w = self.windows
        burn_fast = min(
            state.burn(w.fast_short, now, slo.budget_fraction),
            state.burn(w.fast_long, now, slo.budget_fraction),
        )
        burn_slow = min(
            state.burn(w.slow_short, now, slo.budget_fraction),
            state.burn(w.slow_long, now, slo.budget_fraction),
        )
        if burn_fast >= w.page_burn:
            level = LEVEL_PAGE
        elif burn_slow >= w.warn_burn:
            level = LEVEL_WARN
        else:
            level = LEVEL_OK
        remaining = state.budget_remaining(now)

        metrics.gauge(
            "repro_slo_budget_remaining",
            "fraction of each SLO's error budget left (negative = overspent)",
        ).labels(slo=slo.name).set(remaining)
        burn_gauge = metrics.gauge(
            "repro_slo_burn_rate", "current burn rate per SLO and window pair"
        )
        burn_gauge.labels(slo=slo.name, window="fast").set(burn_fast)
        burn_gauge.labels(slo=slo.name, window="slow").set(burn_slow)
        metrics.gauge(
            "repro_slo_level", "alert level per SLO (0=ok, 1=warn, 2=page)"
        ).labels(slo=slo.name).set(float(_LEVEL_RANK[level]))

        # adaptation timestamps: the engine is itself an observer of
        # violations and of their disappearance
        adaptation = getattr(self.telemetry, "adaptation", None)
        if adaptation is not None:
            if verdict is False and state.last_verdict in (True, None):
                adaptation.violation_observed(f"slo:{slo.name}", now=now)
            elif verdict is True and state.last_verdict is False:
                adaptation.effect_visible(now=now, slo=slo.name)
        state.last_verdict = verdict

        if level != state.level:
            self._transition(state, level, now, burn_fast, burn_slow, remaining)

    def _transition(
        self,
        state: _SLOState,
        level: str,
        now: float,
        burn_fast: float,
        burn_slow: float,
        remaining: float,
    ) -> None:
        slo, prev = state.slo, state.level
        state.level = level
        state.transitions.append(
            {"t": now, "from": prev, "to": level, "burn_fast": burn_fast}
        )
        self.telemetry.metrics.counter(
            "repro_slo_transitions_total", "SLO alert-level transitions"
        ).labels(slo=slo.name, level=level).inc()
        self.telemetry.event(
            "slo.transition",
            slo=slo.name,
            level=level,
            previous=prev,
            burn_fast=round(burn_fast, 3),
            burn_slow=round(burn_slow, 3),
            budget_remaining=round(remaining, 4),
        )
        if prev == LEVEL_OK:
            # an alert episode opens: a detached span ties the page to
            # whatever MAPE activity follows it in the same trace export
            state.episode_start = now
            state.episode_violation_seconds = 0.0
            state.alert_span = self.telemetry.start_span(
                "slo.alert",
                actor=self.name,
                slo=slo.name,
                objective=slo.description,
                level=level,
                burn_fast=round(burn_fast, 3),
                burn_slow=round(burn_slow, 3),
                budget_remaining_open=round(remaining, 4),
            )
        elif level == LEVEL_OK:
            self.telemetry.end_span(
                state.alert_span,
                resolved=True,
                budget_remaining_close=round(remaining, 4),
                violation_seconds=round(state.episode_violation_seconds, 6),
            )
            state.alert_span = None
            state.episode_start = None
        else:
            # escalation / de-escalation inside an open episode
            if state.alert_span is not None:
                state.alert_span.set_attribute("level", level)
                state.alert_span.add_event(
                    "slo.escalation", now, level=level, previous=prev
                )
        if self.broker is not None:
            self.broker.publish(
                {
                    "type": "slo",
                    "t": now,
                    "slo": slo.name,
                    "level": level,
                    "previous": prev,
                    "burn_fast": round(burn_fast, 3),
                    "burn_slow": round(burn_slow, 3),
                    "budget_remaining": round(remaining, 4),
                }
            )

    # -- reporting -------------------------------------------------------
    def transitions(self) -> Dict[str, List[Dict[str, Any]]]:
        """Every alert-level transition so far, keyed by SLO name."""
        with self._lock:
            return {
                name: list(state.transitions)
                for name, state in self._states.items()
                if state.transitions
            }

    def violation_seconds(self) -> Dict[str, float]:
        """Accumulated violation seconds per SLO."""
        with self._lock:
            return {
                name: state.violation_seconds
                for name, state in self._states.items()
            }

    def describe(self, now: Optional[float] = None) -> Dict[str, Any]:
        """JSON-ready engine state (the ``/slo`` endpoint body)."""
        t = self.telemetry.clock.now() if now is None else now
        with self._lock:
            states = list(self._states.values())
        objectives = []
        for state in states:
            slo = state.slo
            objectives.append(
                {
                    "name": slo.name,
                    "objective": slo.description,
                    "level": state.level,
                    "ok": state.last_verdict,
                    "burn_fast": round(
                        state.burn(self.windows.fast_long, t, slo.budget_fraction), 3
                    ),
                    "burn_slow": round(
                        state.burn(self.windows.slow_long, t, slo.budget_fraction), 3
                    ),
                    "budget_remaining": round(state.budget_remaining(t), 4),
                    "violation_seconds": round(state.violation_seconds, 6),
                    "transitions": len(state.transitions),
                    "labels": slo.labels,
                }
            )
        open_alerts = [o for o in objectives if o["level"] != LEVEL_OK]
        return {
            "engine": self.name,
            "evaluations": self.evaluations,
            "windows": {
                "fast": [self.windows.fast_short, self.windows.fast_long],
                "slow": [self.windows.slow_short, self.windows.slow_long],
                "page_burn": self.windows.page_burn,
                "warn_burn": self.windows.warn_burn,
            },
            "objectives": objectives,
            "open_alerts": len(open_alerts),
        }

    def close(self) -> None:
        """End any open alert spans (shutdown path).

        The close carries the same accounting a recovery close does —
        budget left and the episode's violation-seconds — so an export
        cut mid-alert still narrates a complete episode, just an
        unresolved one.
        """
        now = self.telemetry.clock.now()
        with self._lock:
            states = list(self._states.values())
        with self._evaluating:  # not under an evaluation opening an alert
            for state in states:
                if state.alert_span is not None:
                    self.telemetry.end_span(
                        state.alert_span,
                        resolved=False,
                        budget_remaining_close=round(state.budget_remaining(now), 4),
                        violation_seconds=round(
                            state.episode_violation_seconds, 6
                        ),
                    )
                    state.alert_span = None


# ----------------------------------------------------------------------
# adaptation-latency timestamps (ROADMAP item 4's yardstick)
# ----------------------------------------------------------------------


class AdaptationTracker:
    """Violation observed → plan committed → effect visible, with spans.

    First-wins per cycle: the first ``violation_observed`` after an idle
    period opens the cycle; later observations inside the same open
    cycle are coalesced (they are the same incident still hurting).  The
    three legs land in ``repro_adaptation_latency_seconds{stage=…}``:
    ``observe_to_commit``, ``commit_to_effect`` and ``total``.  A cycle
    that recovers without any committed plan closes as *self-resolved* —
    real and worth counting: it is the load going away on its own.
    """

    def __init__(self, telemetry: Any) -> None:
        self.telemetry = telemetry
        self._lock = threading.Lock()
        self._span: Optional[Span] = None
        self._observed_at: Optional[float] = None
        self._committed_at: Optional[float] = None
        self.cycles: List[Dict[str, Any]] = []

    def _now(self, override: Optional[float]) -> float:
        return self.telemetry.clock.now() if override is None else override

    def violation_observed(
        self, kind: str, *, now: Optional[float] = None, **attrs: Any
    ) -> None:
        t = self._now(now)
        with self._lock:
            if self._span is not None:
                self._span.add_event("adaptation.observed-again", t, kind=kind)
                return
            self._observed_at = t
            self._committed_at = None
            self._span = self.telemetry.start_span(
                "slo.adaptation", actor="SLO", kind=kind, observed_at=t, **attrs
            )

    def plan_committed(
        self, action: str, *, now: Optional[float] = None, **attrs: Any
    ) -> None:
        t = self._now(now)
        with self._lock:
            if self._span is None or self._observed_at is None:
                return
            first_commit = self._committed_at is None
            self._span.add_event("adaptation.committed", t, action=action, **attrs)
            if not first_commit:
                return
            self._committed_at = t
            self._span.set_attribute("action", action)
            self._span.set_attribute("committed_at", t)
        self.telemetry.metrics.histogram(
            "repro_adaptation_latency_seconds",
            "violation-observed → plan-committed → effect-visible legs",
        ).labels(stage="observe_to_commit").observe(t - self._observed_at)

    def effect_visible(self, *, now: Optional[float] = None, **attrs: Any) -> None:
        t = self._now(now)
        with self._lock:
            span, observed, committed = self._span, self._observed_at, self._committed_at
            if span is None or observed is None:
                return
            self._span = None
            self._observed_at = None
            self._committed_at = None
        hist = self.telemetry.metrics.histogram(
            "repro_adaptation_latency_seconds",
            "violation-observed → plan-committed → effect-visible legs",
        )
        hist.labels(stage="total").observe(t - observed)
        if committed is not None:
            hist.labels(stage="commit_to_effect").observe(t - committed)
        cycle = {
            "observed_at": observed,
            "committed_at": committed,
            "effect_at": t,
            "total": t - observed,
            "self_resolved": committed is None,
        }
        self.cycles.append(cycle)
        self.telemetry.end_span(
            span,
            effect_at=t,
            total_latency=round(t - observed, 6),
            self_resolved=committed is None,
            **attrs,
        )


# ----------------------------------------------------------------------
# the compiler: contracts -> objectives
# ----------------------------------------------------------------------


def slo_from_contract(
    contract: Any,
    *,
    name: str,
    manager: Optional[str] = None,
    tenant: Optional[str] = None,
    budget_fraction: float = 0.05,
    budget_window: float = 3600.0,
    rate_window: float = 10.0,
) -> List[SLO]:
    """Compile a live contract into SLO objectives — the SLA is the config.

    ``manager`` scopes throughput/latency contracts to one controller's
    gauges (the ``manager=`` label the :class:`FarmController` stamps);
    ``tenant`` scopes a :class:`RateContract` to one tenant's dispatch
    counters.  Composite contracts flatten into one objective per part;
    best-effort parts compile to nothing (they cannot be violated).
    """
    from ..core import contracts as c  # deferred: the rules engine imports obs

    kwargs = dict(budget_fraction=budget_fraction, budget_window=budget_window)
    labels = {}
    if manager:
        labels["manager"] = manager
    if tenant:
        labels["tenant"] = tenant

    if isinstance(contract, c.CompositeContract):
        out: List[SLO] = []
        for i, part in enumerate(contract.parts):
            out.extend(
                slo_from_contract(
                    part,
                    name=f"{name}.{i}",
                    manager=manager,
                    tenant=tenant,
                    budget_fraction=budget_fraction,
                    budget_window=budget_window,
                    rate_window=rate_window,
                )
            )
        return out

    if isinstance(contract, c.BestEffortContract):
        return []

    mlabels = {"manager": manager} if manager else None

    if isinstance(contract, (c.ThroughputRangeContract, c.MinThroughputContract)):

        def sample_throughput(store: TimeSeriesStore, now: float) -> Mapping[str, Any]:
            v = store.latest("repro_farm_departure_rate", mlabels)
            return {} if v is None else {"departure_rate": v}

        return [SLO(name, contract, sample_throughput, labels=labels, **kwargs)]

    if isinstance(contract, c.MaxLatencyContract):

        def sample_latency(store: TimeSeriesStore, now: float) -> Mapping[str, Any]:
            v = store.latest("repro_farm_latency_seconds", mlabels)
            return {} if v is None else {"mean_latency": v}

        return [SLO(name, contract, sample_latency, labels=labels, **kwargs)]

    if isinstance(contract, c.RateContract):
        if tenant is not None:
            tlabels = {"tenant": tenant}
            demanded = contract.rate

            def sample_tenant(store: TimeSeriesStore, now: float) -> Mapping[str, Any]:
                rate = store.window_rate(
                    "repro_tenant_dispatched_total", rate_window, tlabels, now=now
                )
                if rate is None:
                    return {}
                backlog = store.latest("repro_tenant_backlog", tlabels)
                if not backlog and rate < demanded:
                    # demand-limited: the tenant is not offering enough
                    # load to hit its SLA rate — that is compliance, not
                    # violation (nothing is queued behind the shortfall)
                    return {"rate": demanded}
                return {"rate": rate}

            return [SLO(name, contract, sample_tenant, labels=labels, **kwargs)]

        def sample_rate(store: TimeSeriesStore, now: float) -> Mapping[str, Any]:
            v = store.latest("repro_farm_departure_rate", mlabels)
            return {} if v is None else {"rate": v}

        return [SLO(name, contract, sample_rate, labels=labels, **kwargs)]

    if isinstance(contract, c.SecurityContract):

        def sample_security(store: TimeSeriesStore, now: float) -> Mapping[str, Any]:
            rate = store.window_rate(
                "repro_mc_insecure_dispatch_total", rate_window, None, now=now
            )
            if rate is None:
                return {}
            return {"leak_count": rate * rate_window}

        return [SLO(name, contract, sample_security, labels=labels, **kwargs)]

    # unknown contract kind: judge it against the controller's monitor
    # vocabulary if it can, else it stays permanently unjudgeable
    def sample_generic(store: TimeSeriesStore, now: float) -> Mapping[str, Any]:
        out: Dict[str, Any] = {}
        v = store.latest("repro_farm_departure_rate", mlabels)
        if v is not None:
            out["departure_rate"] = v
        w = store.latest("repro_farm_workers", mlabels)
        if w is not None:
            out["num_workers"] = w
        return out

    return [SLO(name, contract, sample_generic, labels=labels, **kwargs)]


def slos_for_sharded(
    sharded: Any,
    *,
    budget_fraction: float = 0.05,
    budget_window: float = 3600.0,
    rate_window: float = 10.0,
) -> List[SLO]:
    """Every objective a :class:`ShardedFarm` implies: root, shards, tenants.

    The root objective samples the *sum* of the shard controllers'
    departure gauges (the quantity the parent MAPE loop itself judges);
    per-shard objectives come from the current ``sub_contracts``; tenant
    objectives from each registered tenant's `RateContract` SLA.
    """
    kwargs = dict(
        budget_fraction=budget_fraction,
        budget_window=budget_window,
        rate_window=rate_window,
    )
    out: List[SLO] = []

    shard_managers = [f"AM_{sharded.name}-s{i}" for i in range(len(sharded.shards))]
    root_contract = sharded.contract

    def sample_root(store: TimeSeriesStore, now: float) -> Mapping[str, Any]:
        total = 0.0
        seen = False
        for mgr in shard_managers:
            v = store.latest("repro_farm_departure_rate", {"manager": mgr})
            if v is not None:
                total += v
                seen = True
        return {"departure_rate": total, "rate": total} if seen else {}

    out.append(
        SLO(
            f"{sharded.name}.root",
            root_contract,
            sample_root,
            budget_fraction=budget_fraction,
            budget_window=budget_window,
            labels={"farm": sharded.name},
        )
    )
    for i, sub in enumerate(sharded.sub_contracts):
        out.extend(
            slo_from_contract(
                sub, name=f"{sharded.name}.s{i}", manager=shard_managers[i], **kwargs
            )
        )
    registry = getattr(sharded, "registry", None)
    if registry is not None:
        for tenant in registry.tenants():
            out.extend(
                slo_from_contract(
                    tenant.sla,
                    name=f"tenant.{tenant.name}",
                    tenant=tenant.name,
                    **kwargs,
                )
            )
    return out
