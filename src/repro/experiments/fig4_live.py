"""Experiment FIG4-LIVE — the Figure 4 farm phases on a real substrate.

``fig4 --backend={thread,process,dist}`` replays the farm-side story of the
paper's §4.2 scenario against a *live* backend instead of the
discrete-event simulator, driven by the very same Figure 5 rule objects
(:func:`repro.core.policies.farm_rules`) through
:class:`~repro.runtime.controller.FarmController`:

1. **starvation** — the feeder runs below the contract stripe; the
   arrival-rate rule (``CheckInterArrivalRateLow``) raises
   ``notEnoughTasks`` violations, and no growth happens (the paper's
   "nothing can usefully be done locally").
2. **growth** — the feeder jumps above the stripe; departure rate lags
   behind with too few workers, so ``CheckRateLow`` fires
   ``ADD_EXECUTOR`` until throughput re-enters the contract.
3. **crash** (no-op on the thread backend) — one worker is faulted
   mid-stream: SIGKILLed on the process backend, its TCP connection
   severed on the dist backend (the fault a networked deployment
   actually meets).  The farm replays its un-acked tasks
   (at-least-once, deduped to exactly-once outward) while the capacity
   loss re-triggers ``CheckRateLow``: fault recovery is contract
   enforcement, as §2 frames it.
4. **drain** — the stream ends; every submitted task must be accounted
   for (zero loss even across the kill).

With ``--with-security`` the same run becomes the §3.2 *multi-concern*
story: the controller's grow actuations route through the
:class:`~repro.core.multiconcern.GeneralManager` coordinating it with a
:class:`~repro.security.manager.SecurityManager` on the wall clock, over
a pool of **untrusted** nodes.  Every growth then follows grow → quarantine →
secure → admit, and the run asserts its own invariant from the farm's
dispatch counters: zero tasks ever handed to an unsecured channel
(``repro_mc_insecure_dispatch_total == 0``), still with zero loss.
``coordination="naive"`` is the ablation: same pool, no intent
protocol, so the insecure-dispatch counter measures the leak window.

``--kill-coordinator`` makes the coordinator itself the fault, and
``--shards`` runs the farm-of-farms variant.  Every mode is one stack
builder and one feed/drain loop: the builder picks the mode's farm,
managers and fault, the loop feeds, drains and checks them all alike.

The sim backend (default) remains byte-identical to the regenerated
Figure 4 artefacts — this module never touches it.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from ..core.contracts import SecurityContract, ThroughputRangeContract
from ..core.multiconcern import CoordinationMode, GeneralManager
from ..obs.telemetry import Telemetry
from ..runtime.backend import FarmBackend
from ..runtime.controller import FarmController, WallTimeBase
from ..runtime.hierarchy import ShardedFarm, TenantRegistry, make_shard_backend
from ..security.domains import SecurityPolicy
from ..security.manager import SecurityABC, SecurityManager
from ..sim.resources import Domain, ResourceManager, make_cluster

__all__ = [
    "Fig4LiveConfig",
    "Fig4LiveResult",
    "Fig4ShardedConfig",
    "Fig4ShardedResult",
    "live_task",
    "make_backend",
    "run_fig4_live",
    "render_fig4_live",
    "run_fig4_sharded",
    "render_fig4_sharded",
]

# fixed parameters of the live scenario (wall-clock seconds)
_INITIAL_WORKERS = 1
_RATE_WINDOW = 1.5
_DRAIN_TIMEOUT = 60.0
_UNTRUSTED_NODES = 16              # growth pool size (all untrusted)
_SLO_WINDOW_SCALE = 1.0 / 150.0    # SRE minutes → fig4 seconds
_SLO_BUDGET_WINDOW = 30.0          # error-budget horizon (s)
_SLO_BUDGET_FRACTION = 0.05
# ... and of the farm-of-farms scenario
_SHARDED_CONTRACT_HIGH = 400.0
_SHARDED_TASK_WORK = 0.04          # one worker sustains ~25 tasks/s
_SHARDED_FEED_RATE = 100.0
_SHARDED_MAX_WORKERS = 4           # total worker budget across the shards
_SHARDED_CONTROL_PERIOD = 0.1
_SHARDED_REBALANCE_COOLDOWN = 0.3
_SHARDED_RATE_WINDOW = 0.8
_TENANT_RATE = 20.0                # per-tenant SLA (tasks/s)
_TENANT_BURST = 1.0


@dataclass
class Fig4LiveConfig:
    """Parameters of the live FIG4 scenario (wall-clock seconds)."""

    backend: str = "thread"
    contract_low: float = 30.0
    contract_high: float = 90.0
    task_work: float = 0.04          # one worker sustains ~25 tasks/s
    starve_rate: float = 10.0        # phase-1 feed, below the stripe
    feed_rate: float = 60.0          # phase-2 feed, inside the stripe
    starve_duration: float = 0.8
    total_tasks: int = 200
    max_workers: int = 8
    control_period: float = 0.2
    inject_crash: bool = True        # the mode's fault: SIGKILL, cut TCP or coordinator
    crash_after: int = 60            # tasks fed before the fault
    with_security: bool = False      # run the §3.2 multi-concern story
    coordination: str = "two-phase"  # or "naive": the leak-window ablation
    serve_telemetry: bool = False    # expose /metrics + /trace live over HTTP
    telemetry_port: int = 0          # 0 = pick a free port
    kill_coordinator: bool = False   # crash the whole coordinator stack mid-feed
    journal_path: str = ""           # dispatch journal ("" = private temp file)
    with_slo: bool = True            # compile the contract into live SLOs
    #                                  (whenever the run has real telemetry)


@dataclass
class Fig4LiveResult:
    """Outcome of one live run: the same traces, measured not simulated."""

    config: Fig4LiveConfig
    backend: str
    completed: int
    results_ok: bool
    duration: float
    actions: List[Tuple[float, str]]
    violations: List[Tuple[float, str]]
    worker_series: List[Tuple[float, float]] = field(default_factory=list)
    throughput_series: List[Tuple[float, float]] = field(default_factory=list)
    arrival_series: List[Tuple[float, float]] = field(default_factory=list)
    final_workers: int = 0
    crashes: int = 0
    replays: int = 0
    duplicates: int = 0
    dead_letters: int = 0
    # -- multi-concern story (populated by --with-security runs) -------
    mc_committed: int = 0
    mc_vetoed: int = 0
    mc_admitted: int = 0
    mc_amendments: int = 0
    insecure_dispatches: int = 0
    secured_workers: int = 0
    quarantined_at_end: int = 0
    # -- self-healing story (populated by --kill-coordinator runs) -----
    failovers: int = 0
    failover_latency: float = 0.0
    final_epoch: int = 0
    redispatched: int = 0
    #: base URL the live telemetry endpoint served on (when enabled)
    telemetry_url: str = ""
    # -- SLO story (populated whenever the run had real telemetry) ------
    slo_objectives: int = 0
    #: (t, slo, from_level, to_level) for every alert transition
    slo_transitions: List[Tuple[float, str, str, str]] = field(default_factory=list)
    slo_pages: int = 0
    slo_violation_seconds: float = 0.0
    adaptation_cycles: int = 0
    #: violation-observed → effect-visible latency of the first full cycle
    adaptation_latency: float = 0.0

    # -- figure-level checks -------------------------------------------
    def grew(self) -> bool:
        return any("addWorker" in a for _, a in self.actions)

    def starved_first(self) -> bool:
        """notEnoughTasks precedes the first growth, as in the paper."""
        viol = [t for t, v in self.violations if "notEnough" in str(v)]
        grow = [t for t, a in self.actions if "addWorker" in a]
        return bool(viol) and (not grow or min(viol) <= min(grow))

    def zero_loss(self) -> bool:
        return self.results_ok and self.dead_letters == 0

    def security_story_ok(self) -> bool:
        """The --with-security invariant: growth happened through the
        gate, nothing leaked, nothing lost, nobody stuck in quarantine."""
        return (
            self.mc_committed > 0
            and self.mc_admitted > 0
            and self.insecure_dispatches == 0
            and self.quarantined_at_end == 0
            and self.zero_loss()
        )

    def failover_story_ok(self) -> bool:
        """The --kill-coordinator invariant: the coordinator died with
        tasks in flight and the supervisor recovered every one of them
        exactly once."""
        return self.failovers > 0 and self.zero_loss()

    def slo_story_ok(self) -> bool:
        """The observability invariant: objectives were derived from the
        live contract, the starve phase burned budget loudly enough to
        raise at least one alert, and the violation time was accounted."""
        return (
            self.slo_objectives > 0
            and any(to != "ok" for _, _, _, to in self.slo_transitions)
            and self.slo_violation_seconds > 0.0
        )


@dataclass
class Fig4ShardedConfig:
    """Parameters of the farm-of-farms scenario (wall-clock seconds).

    With ``tenants == 0`` the run tells the *rebalancing* story: the
    whole feed lands on shard 0, whose own Figure 5 rules grow it to its
    parent-granted budget and then stall (``noLocalPlan``), so the
    parent moves budget from the idle shards until the hot shard can
    carry its slice.  With ``tenants > 0`` it tells the *multi-tenant*
    story instead: every submission passes the admission gate and the
    over-quota backlogs drain in weighted fair share.
    """

    backend: str = "thread"
    shards: int = 2
    tenants: int = 0
    contract_low: float = 120.0
    total_tasks: int = 240
    serve_telemetry: bool = False    # expose /metrics + /trace live over HTTP
    telemetry_port: int = 0          # 0 = pick a free port


@dataclass
class Fig4ShardedResult:
    """Outcome of one farm-of-farms run."""

    config: Fig4ShardedConfig
    backend: str
    completed: int
    results_ok: bool
    duration: float
    budgets: List[int] = field(default_factory=list)
    workers: List[int] = field(default_factory=list)
    #: (time, from_shard, to_shard, latency) for each capacity move
    rebalances: List[Tuple[float, int, int, float]] = field(default_factory=list)
    #: violation kind → count, aggregated by the parent across shards
    shard_violations: dict = field(default_factory=dict)
    root_violations: int = 0
    #: (name, submitted, admitted, queued, rejected, dispatched)
    tenant_stats: List[Tuple[str, int, int, int, int, int]] = field(default_factory=list)
    #: max relative deviation of a tenant's dispatch count from the mean,
    #: sampled while every tenant was still backlogged (the contended window)
    fair_share_error: float = 0.0

    def rebalanced(self) -> bool:
        return bool(self.rebalances)

    def zero_loss(self) -> bool:
        return self.results_ok


def live_task(payload: Any) -> Any:
    """The stage function: ``task_work`` seconds of blocking work.

    Module-level so it survives pickling under every multiprocessing
    start method.  Sleep-based, so the thread backend scales too and the
    two backends face the identical workload.
    """
    work, value = payload
    time.sleep(work)
    return value * value


def make_backend(cfg: Fig4LiveConfig, telemetry: Optional[Telemetry] = None) -> FarmBackend:
    return make_shard_backend(
        cfg.backend, live_task, initial_workers=_INITIAL_WORKERS, max_workers=cfg.max_workers,
        name=f"fig4-{cfg.backend}", telemetry=telemetry, rate_window=_RATE_WINDOW,
    )


def _build_stack(cfg: Any, telemetry: Optional[Telemetry], stack: contextlib.ExitStack):
    """Build one run's stack, putting each piece's teardown on ``stack``
    the moment the piece exists — a build that raises halfway closes
    whatever it had already started.

    Returns ``(farm, submit, fault, harvest)``: ``submit(i)`` feeds task
    ``i`` and says whether it was admitted; ``fault()`` is the mode's
    mid-feed fault and says whether it landed (``None`` when the run has
    none); ``harvest(results_ok)`` stops the managers once the stream
    has drained and builds the run's result.
    """
    if telemetry is None and (cfg.serve_telemetry or getattr(cfg, "with_security", False)):
        # the security story proves itself via the dispatch counters, and
        # the live endpoint has nothing to serve without a store — either
        # way the run needs real telemetry, not the null object
        telemetry = Telemetry()
    url = ""
    if cfg.serve_telemetry:
        server = stack.enter_context(telemetry.serve(port=cfg.telemetry_port))
        url = f"http://{server.host}:{server.port}"
        print(f"live telemetry on {url} "
              "(/metrics, /traces, /trace/<id>, /healthz, /query, /slo, /stream)")

    if isinstance(cfg, Fig4ShardedConfig):
        registry = TenantRegistry(telemetry=telemetry) if cfg.tenants > 0 else None
        names = [f"tenant{i}" for i in range(cfg.tenants)]
        for name in names:
            registry.register(name, _TENANT_RATE, burst=_TENANT_BURST)
        hfarm = ShardedFarm(
            live_task,
            contract=ThroughputRangeContract(cfg.contract_low, _SHARDED_CONTRACT_HIGH),
            shards=cfg.shards, backend=cfg.backend, max_workers_total=_SHARDED_MAX_WORKERS,
            control_period=_SHARDED_CONTROL_PERIOD,
            rebalance_cooldown=_SHARDED_REBALANCE_COOLDOWN, registry=registry,
            telemetry=telemetry, shard_kwargs={"rate_window": _SHARDED_RATE_WINDOW},
        )
        stack.callback(hfarm.shutdown)
        fair_share = [0.0]

        def submit_sharded(i: int) -> bool:
            if registry is None:
                # rebalancing story: the whole feed lands on shard 0
                hfarm.shards[0].farm.submit((_SHARDED_TASK_WORK, i))
                return True
            # multi-tenant story: everything through the admission gate
            verdict = hfarm.submit((_SHARDED_TASK_WORK, i), tenant=names[i % len(names)])
            if i == cfg.total_tasks - 1:
                # the contended window: every backlogged tenant is draining
                # against its token rate, so dispatch counts here measure
                # fair share, not merely "everything got through eventually"
                dispatched = [registry.get(n).dispatched for n in names]
                mean = sum(dispatched) / len(dispatched)
                if mean > 0:
                    fair_share[0] = max(abs(d - mean) / mean for d in dispatched)
            return verdict != "reject"

        def harvest_sharded(results_ok: bool) -> Fig4ShardedResult:
            tenants = registry.tenants() if registry is not None else []
            return Fig4ShardedResult(
                config=cfg, backend=cfg.backend, completed=hfarm.completed,
                results_ok=results_ok, duration=hfarm.now(), budgets=list(hfarm.budgets),
                workers=[s.farm.num_workers for s in hfarm.shards],
                rebalances=[
                    (e.time, e.from_shard, e.to_shard, e.latency) for e in hfarm.rebalances
                ],
                shard_violations=dict(Counter(kind for _t, _s, kind in hfarm.violations)),
                root_violations=len(hfarm.root_violations),
                tenant_stats=[
                    (t.name, t.submitted, t.admitted, t.queued, t.rejected, t.dispatched)
                    for t in tenants
                ],
                fair_share_error=fair_share[0],
            )

        return hfarm, submit_sharded, None, harvest_sharded

    contract = ThroughputRangeContract(cfg.contract_low, cfg.contract_high)
    if cfg.kill_coordinator:
        # the coordinator itself is the fault: the farm runs behind
        # journaled dispatch with a supervisor watching its heartbeat, and
        # at ``crash_after`` the whole stack — dispatcher and controller —
        # dies with tasks in flight; the supervisor replays the journal,
        # promotes a new incarnation (the dist standby, live workers
        # reattaching over TCP), redispatches the in-flight tasks and
        # restarts the controller under the journaled contract
        from ..runtime.supervision import SupervisedFarm, Supervisor

        journal_path = cfg.journal_path or os.path.join(
            stack.enter_context(tempfile.TemporaryDirectory(prefix="fig4-journal-")),
            "dispatch.journal",
        )
        farm = SupervisedFarm(
            live_task, backend=cfg.backend, journal_path=journal_path,
            name=f"fig4-{cfg.backend}", initial_workers=_INITIAL_WORKERS,
            max_workers=cfg.max_workers, telemetry=telemetry,
            farm_options={"rate_window": _RATE_WINDOW},
        )
        stack.callback(farm.shutdown)
        supervisor = Supervisor(
            farm, contract=contract, control_period=cfg.control_period,
            max_workers=cfg.max_workers, telemetry=telemetry,
        )
        stack.callback(supervisor.stop)
        supervisor.start()
        # the supervised controller keeps an epoch-stable manager name, so
        # its gauges form one series across failovers and the objectives
        # keep judging the farm through the coordinator's death
        manager = f"{supervisor.name}-am"
        # actions/violations span coordinator incarnations: the doomed
        # controller's lists are harvested right before the kill, the
        # replacement's at the end
        actions: List[Tuple[float, str]] = []
        violations: List[Tuple[float, str]] = []
        crashes: List[float] = []

        def harvest_controller() -> None:
            if supervisor.controller is not None:
                actions.extend(supervisor.controller.actions)
                violations.extend(supervisor.controller.violations)

        def crash() -> bool:
            harvest_controller()
            supervisor.crash_coordinator()
            crashes.append(farm.now())
            return True

        fault = crash if cfg.inject_crash else None

        def stop_managers() -> dict:
            harvest_controller()
            supervisor.stop()
            return dict(
                actions=actions, violations=violations, crashes=len(crashes),
                replays=farm.redispatched, duplicates=farm.farm.duplicates,
                failovers=supervisor.failovers, final_epoch=farm.epoch,
                failover_latency=farm.last_failover_seconds or 0.0,
                redispatched=farm.redispatched,
            )
    else:
        farm = make_backend(cfg, telemetry)
        stack.callback(farm.shutdown)
        manager = f"AM_{cfg.backend}"
        resources = None
        if cfg.with_security:
            # every channel starts secured; every *new* worker lands on
            # untrusted ground, so the intent protocol must secure it before
            # the dispatcher may touch it
            farm.secure_all()
            resources = ResourceManager(make_cluster(
                _UNTRUSTED_NODES, prefix="u",
                domain=Domain("untrusted_ip_domain_A", trusted=False),
            ))
        controller = FarmController(
            farm, contract, control_period=cfg.control_period,
            max_workers=cfg.max_workers, telemetry=telemetry, name=manager,
            resources=resources,
        )
        stack.callback(controller.stop)
        gm: Optional[GeneralManager] = None
        if cfg.with_security:
            security = SecurityManager(
                f"AM_sec_{cfg.backend}", WallTimeBase(farm.now),
                SecurityABC([controller.abc], None, SecurityPolicy()),
                control_period=cfg.control_period, telemetry=telemetry,
            )
            stack.callback(security.stop)
            security.assign_contract(SecurityContract())
            gm = GeneralManager(
                mode=CoordinationMode(cfg.coordination), telemetry=telemetry,
                name=f"GM_{cfg.backend}",
            )
            gm.register(security)
            gm.register(controller, priority=0)
        controller.start()
        fault = None
        if cfg.inject_crash and cfg.backend in ("process", "dist"):
            # SIGKILL on the process backend; on dist the distributed
            # fault — sever the TCP connection, the worker process itself
            # may be perfectly healthy
            cut = farm.inject_crash if cfg.backend == "process" else farm.drop_connection

            def fault() -> bool:
                return cut() is not None

        def stop_managers() -> dict:
            if gm is not None:
                security.stop()
            controller.stop()
            fields = dict(
                actions=list(controller.actions), violations=list(controller.violations),
                crashes=len(farm.crashes), replays=farm.replays, duplicates=farm.duplicates,
                dead_letters=len(farm.dead_letters),
            )
            if gm is not None:
                outcomes = gm.outcomes()
                counter = telemetry.metrics.counter
                fields.update(
                    mc_committed=outcomes.get("committed", 0) + outcomes.get("partial", 0),
                    mc_vetoed=outcomes.get("vetoed", 0),
                    mc_amendments=sum(r.amendments for r in gm.intents),
                    mc_admitted=int(
                        counter("repro_mc_admitted_workers_total", "").labels(gm=gm.name).value
                    ),
                    insecure_dispatches=int(
                        counter("repro_mc_insecure_dispatch_total", "")
                        .labels(farm=farm.name).value
                    ),
                    secured_workers=sum(
                        1 for w in farm.workers if getattr(w, "active", True) and w.secured
                    ),
                )
            return fields

    if telemetry is not None and telemetry.enabled and cfg.with_slo:
        # compile the contract into live SLOs — no manual alert config: the
        # embedded TSDB scrapes at half the control period so every MAPE
        # tick is observed, and the SRE burn-rate windows are scaled from
        # minutes to fig4's seconds
        from ..obs.slo import BurnWindows, SLOEngine, slo_from_contract

        stack.callback(telemetry.stop_timeseries)
        store = telemetry.start_timeseries(
            interval=cfg.control_period / 2.0, retention=600.0, scraper_thread=True
        )
        slos = slo_from_contract(
            contract, name=f"fig4.{cfg.backend}", manager=manager,
            budget_fraction=_SLO_BUDGET_FRACTION, budget_window=_SLO_BUDGET_WINDOW,
        )
        SLOEngine(
            telemetry, store, slos, windows=BurnWindows().scaled(_SLO_WINDOW_SCALE),
            broker=telemetry.stream,
        )

    series: List[Tuple[float, float, float, float]] = []

    def sample() -> None:
        now = farm.now()
        if now - (series[-1][0] if series else 0.0) < cfg.control_period / 2.0:
            return
        snap = farm.snapshot()
        series.append((now, snap.num_workers, snap.departure_rate, snap.arrival_rate))

    def submit(i: int) -> bool:
        farm.submit((cfg.task_work, i))
        sample()
        return True

    def harvest(results_ok: bool) -> Fig4LiveResult:
        sample()
        duration = farm.now()
        fields = stop_managers()
        snap = farm.snapshot()
        result = Fig4LiveResult(
            config=cfg, backend=cfg.backend, completed=snap.completed,
            results_ok=results_ok, duration=duration,
            worker_series=[(t, w) for t, w, _, _ in series],
            throughput_series=[(t, d) for t, _, d, _ in series],
            arrival_series=[(t, a) for t, _, _, a in series],
            final_workers=snap.num_workers, quarantined_at_end=snap.quarantined,
            telemetry_url=url, **fields,
        )
        engine = getattr(telemetry, "slo", None)
        if engine is not None:
            # fold the engine's accounting into the result
            result.slo_objectives = len(engine.slos)
            result.slo_transitions = sorted(
                (tr["t"], name, tr["from"], tr["to"])
                for name, transitions in engine.transitions().items()
                for tr in transitions
            )
            result.slo_pages = sum(1 for *_, to in result.slo_transitions if to == "page")
            result.slo_violation_seconds = sum(engine.violation_seconds().values())
            tracker = telemetry.adaptation
            if tracker is not None and tracker.cycles:
                result.adaptation_cycles = len(tracker.cycles)
                result.adaptation_latency = tracker.cycles[0]["total"]
        return result

    return farm, submit, fault, harvest


def _run(
    cfg: Any, telemetry: Optional[Telemetry], feed_rate: float,
    starve_duration: float = 0.0, starve_rate: float = 1.0,
) -> Any:
    """The one feed/drain loop of every mode: a starve phase below the
    stripe, a feed phase that lands the mode's fault once ``crash_after``
    tasks are in, then one drain and one check of every result."""
    with contextlib.ExitStack() as stack:
        farm, submit, fault, harvest = _build_stack(cfg, telemetry, stack)
        expected: List[int] = []
        t_end = farm.now() + starve_duration
        for i in range(cfg.total_tasks):
            starving = farm.now() < t_end
            if submit(i):
                expected.append(i * i)
            if fault is not None and not starving and i + 1 >= cfg.crash_after and fault():
                fault = None
            time.sleep(1.0 / (starve_rate if starving else feed_rate))
        results = farm.drain_results(len(expected), timeout=_DRAIN_TIMEOUT)
        return harvest(sorted(results) == expected)


def run_fig4_live(
    config: Optional[Fig4LiveConfig] = None, *, telemetry: Optional[Telemetry] = None
) -> Fig4LiveResult:
    """Run the live scenario and return its measured traces."""
    cfg = config or Fig4LiveConfig()
    if cfg.kill_coordinator and cfg.with_security:
        raise ValueError("--kill-coordinator and --with-security are mutually exclusive")
    return _run(cfg, telemetry, cfg.feed_rate, cfg.starve_duration, cfg.starve_rate)


def run_fig4_sharded(
    config: Optional[Fig4ShardedConfig] = None, *, telemetry: Optional[Telemetry] = None
) -> Fig4ShardedResult:
    """Run the farm-of-farms scenario and return its measured outcome."""
    return _run(config or Fig4ShardedConfig(), telemetry, _SHARDED_FEED_RATE)


def render_fig4_sharded(r: Fig4ShardedResult) -> str:
    """ASCII report for the farm-of-farms run."""
    from .report import table

    cfg = r.config
    out = [
        f"=== FIG4-SHARDED: {cfg.shards}-shard hierarchy on the "
        f"{r.backend} backend ===",
        "",
        f"root SLA: {cfg.contract_low:g}-{_SHARDED_CONTRACT_HIGH:g} tasks/s; "
        f"{cfg.total_tasks} tasks of {_SHARDED_TASK_WORK * 1000:g} ms; "
        f"total worker budget {_SHARDED_MAX_WORKERS}"
        + (
            f"; {cfg.tenants} tenants at {_TENANT_RATE:g} tasks/s each"
            if cfg.tenants
            else "; whole feed skewed onto shard 0"
        ),
        "",
        table(
            ["shard", "budget", "workers"],
            [
                [f"shard {i}", b, w]
                for i, (b, w) in enumerate(zip(r.budgets, r.workers))
            ],
        ),
    ]
    checks = [
        ["all dispatched tasks completed (zero loss)", r.zero_loss()],
        ["tasks completed", r.completed],
        ["capacity moves (rebalances)", len(r.rebalances)],
        ["root SLA violations (no donor left)", r.root_violations],
    ]
    for kind, count in sorted(r.shard_violations.items()):
        checks.append([f"shard violations: {kind}", count])
    if r.tenant_stats:
        out.append(
            table(
                ["tenant", "submitted", "admitted", "queued", "rejected", "dispatched"],
                [list(row) for row in r.tenant_stats],
            )
        )
        checks.append(
            ["fair-share error (contended window)", f"{r.fair_share_error:.1%}"]
        )
    out.append(table(["checkpoint", "measured"], checks))
    if r.rebalances:
        t, src, dst, lat = r.rebalances[0]
        out.append(
            f"first rebalance at t={t:.2f}s: shard {src} -> shard {dst} "
            f"({lat * 1000:.0f} ms after starvation was first seen)"
        )
    out.append(f"wall-clock duration: {r.duration:.2f}s")
    return "\n".join(out)


def render_fig4_live(r: Fig4LiveResult) -> str:
    """ASCII report mirroring the shape of the simulated Figure 4 one."""
    from .report import ascii_series, table

    cfg = r.config
    out = [
        f"=== FIG4-LIVE: Figure 5 rules on the {r.backend} backend (wall clock) ===",
        "",
        f"contract: {cfg.contract_low:g}-{cfg.contract_high:g} tasks/s; "
        f"{cfg.total_tasks} tasks of {cfg.task_work * 1000:g} ms; "
        f"feed {cfg.starve_rate:g} -> {cfg.feed_rate:g} tasks/s; "
        f"workers start at {_INITIAL_WORKERS}",
        "",
        "--- arrival rate vs the contract stripe ---",
        ascii_series(
            r.arrival_series,
            hlines=[cfg.contract_low, cfg.contract_high],
            title="arrival rate (tasks/s) — dashes = contract stripe",
            height=8,
        ),
        "--- throughput vs the contract stripe ---",
        ascii_series(
            r.throughput_series,
            hlines=[cfg.contract_low, cfg.contract_high],
            title="departure rate (tasks/s) — dashes = contract stripe",
            height=8,
        ),
        "--- workers in use ---",
        ascii_series(r.worker_series, title="live workers", height=6),
    ]
    checks = [
        ["all tasks completed (zero loss)", r.zero_loss()],
        ["starvation reported before growth", r.starved_first()],
        ["CheckRateLow grew the farm", r.grew()],
        ["final workers", r.final_workers],
        ["controller actions", len(r.actions)],
        ["violations reported", len(r.violations)],
    ]
    if cfg.kill_coordinator:
        checks += [
            ["coordinator crashes injected", r.crashes],
            ["coordinator failovers (supervisor)", r.failovers],
            ["journal replay + rebuild latency", f"{r.failover_latency * 1000:.1f} ms"],
            ["in-flight tasks redispatched", r.redispatched],
            ["duplicate acks suppressed", r.duplicates],
            ["final coordinator epoch", r.final_epoch],
            ["self-healing story holds", r.failover_story_ok()],
        ]
    elif r.backend in ("process", "dist"):
        fault = "SIGKILL injected" if r.backend == "process" else "connection severed"
        checks += [
            [f"worker crashes ({fault})", r.crashes],
            ["task dispatches replayed", r.replays],
            ["duplicate acks suppressed", r.duplicates],
            ["dead-lettered tasks", r.dead_letters],
        ]
    if r.slo_objectives:
        checks += [
            ["SLOs derived from the contract", r.slo_objectives],
            ["SLO alert transitions", len(r.slo_transitions)],
            ["page-grade alerts (fast burn)", r.slo_pages],
            ["SLA violation seconds accounted", f"{r.slo_violation_seconds:.2f}s"],
            ["adaptation cycles (observe→effect)", r.adaptation_cycles],
            [
                "first adaptation latency",
                f"{r.adaptation_latency * 1000:.0f} ms" if r.adaptation_cycles else "n/a",
            ],
            ["SLO story holds", r.slo_story_ok()],
        ]
    if cfg.with_security:
        checks += [
            [f"intents committed ({cfg.coordination})", r.mc_committed],
            ["intents vetoed", r.mc_vetoed],
            ["plan amendments (secure before admit)", r.mc_amendments],
            ["workers admitted through the gate", r.mc_admitted],
            ["insecure dispatches (the leak window)", r.insecure_dispatches],
            ["secured workers at end", r.secured_workers],
            ["still quarantined at end", r.quarantined_at_end],
            ["security story holds", r.security_story_ok()],
        ]
    out.append(table(["checkpoint", "measured"], checks))
    out.append(f"wall-clock duration: {r.duration:.2f}s")
    return "\n".join(out)
