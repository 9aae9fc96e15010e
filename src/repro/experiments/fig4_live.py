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
story: the controller's grow actuations route through a live
:class:`~repro.runtime.multiconcern.LiveGeneralManager` coordinating it
with a :class:`~repro.security.LiveSecurityManager` over a pool of
**untrusted** nodes.  Every growth then follows grow → quarantine →
secure → admit, and the run asserts its own invariant from the farm's
dispatch counters: zero tasks ever handed to an unsecured channel
(``repro_mc_insecure_dispatch_total == 0``), still with zero loss.
``coordination="naive"`` is the ablation: same pool, no intent
protocol, so the insecure-dispatch counter measures the leak window.

The sim backend (default) remains byte-identical to the regenerated
Figure 4 artefacts — this module never touches it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from ..core.contracts import ThroughputRangeContract
from ..core.multiconcern import CoordinationMode
from ..obs.telemetry import Telemetry
from ..runtime.backend import FarmBackend
from ..runtime.controller import FarmController
from ..runtime.dist_farm import DistFarm
from ..runtime.hierarchy.sharded_farm import make_shard_backend
from ..runtime.multiconcern import LiveGeneralManager, WorkerPlacement
from ..runtime.process_farm import ProcessFarm
from ..security.manager import LiveSecurityManager
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
    initial_workers: int = 1
    max_workers: int = 8
    control_period: float = 0.2
    rate_window: float = 1.5
    inject_crash: bool = True        # honoured by process (SIGKILL) and dist (cut TCP)
    crash_after: int = 60            # tasks fed before the fault
    drain_timeout: float = 60.0
    with_security: bool = False      # run the §3.2 multi-concern story
    untrusted_nodes: int = 16        # growth pool size (all untrusted)
    coordination: str = "two-phase"  # or "naive": the leak-window ablation
    serve_telemetry: bool = False    # expose /metrics + /trace live over HTTP
    telemetry_port: int = 0          # 0 = pick a free port
    kill_coordinator: bool = False   # crash the whole coordinator stack mid-feed
    journal_path: str = ""           # dispatch journal ("" = private temp file)
    # -- SLO engine (attached whenever the run has real telemetry) ------
    with_slo: bool = True            # compile the contract into live SLOs
    slo_window_scale: float = 1.0 / 150.0  # SRE minutes → fig4 seconds
    slo_budget_window: float = 30.0  # error-budget horizon (s)
    slo_budget_fraction: float = 0.05
    scrape_interval: float = 0.0     # TSDB scrape period (0 = control_period/2)


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


def live_task(payload: Any) -> Any:
    """The stage function: ``task_work`` seconds of blocking work.

    Module-level so it survives pickling under every multiprocessing
    start method.  Sleep-based, so the thread backend scales too and the
    two backends face the identical workload.
    """
    work, value = payload
    time.sleep(work)
    return value * value


def make_backend(
    cfg: Fig4LiveConfig, telemetry: Optional[Telemetry] = None
) -> FarmBackend:
    return make_shard_backend(
        cfg.backend,
        live_task,
        initial_workers=cfg.initial_workers,
        max_workers=cfg.max_workers,
        name=f"fig4-{cfg.backend}",
        telemetry=telemetry,
        rate_window=cfg.rate_window,
    )


def _attach_slo(
    cfg: Fig4LiveConfig, telemetry: Optional[Telemetry], contract: Any, manager: str
) -> Optional[Any]:
    """Compile the run's contract into live SLOs — no manual alert config.

    Starts the embedded TSDB (scraping at half the control period so
    every MAPE tick is observed), derives objectives straight from the
    active contract via :func:`repro.obs.slo.slo_from_contract`, and
    evaluates them with the SRE burn-rate windows scaled from minutes to
    fig4's seconds.
    """
    if telemetry is None or not telemetry.enabled or not cfg.with_slo:
        return None
    from ..obs.slo import BurnWindows, SLOEngine, slo_from_contract

    interval = cfg.scrape_interval or cfg.control_period / 2.0
    store = telemetry.start_timeseries(
        interval=interval, retention=600.0, scraper_thread=True
    )
    slos = slo_from_contract(
        contract,
        name=f"fig4.{cfg.backend}",
        manager=manager,
        budget_fraction=cfg.slo_budget_fraction,
        budget_window=cfg.slo_budget_window,
    )
    return SLOEngine(
        telemetry,
        store,
        slos,
        windows=BurnWindows().scaled(cfg.slo_window_scale),
        broker=telemetry.stream,
    )


def _harvest_slo(result: Fig4LiveResult, telemetry: Optional[Telemetry]) -> None:
    """Fold the engine's accounting into the run result (None-safe)."""
    engine = getattr(telemetry, "slo", None) if telemetry is not None else None
    if engine is None:
        return
    result.slo_objectives = len(engine.slos)
    for name, transitions in engine.transitions().items():
        for tr in transitions:
            result.slo_transitions.append((tr["t"], name, tr["from"], tr["to"]))
    result.slo_transitions.sort()
    result.slo_pages = sum(1 for *_rest, to in result.slo_transitions if to == "page")
    result.slo_violation_seconds = sum(engine.violation_seconds().values())
    tracker = getattr(telemetry, "adaptation", None)
    if tracker is not None and tracker.cycles:
        result.adaptation_cycles = len(tracker.cycles)
        result.adaptation_latency = tracker.cycles[0]["total"]


def run_fig4_live(
    config: Optional[Fig4LiveConfig] = None, *, telemetry: Optional[Telemetry] = None
) -> Fig4LiveResult:
    """Run the live scenario and return its measured traces."""
    cfg = config or Fig4LiveConfig()
    if cfg.kill_coordinator:
        if cfg.with_security:
            raise ValueError(
                "--kill-coordinator and --with-security are mutually exclusive"
            )
        return _run_fig4_supervised(cfg, telemetry)
    if telemetry is None and (cfg.with_security or cfg.serve_telemetry):
        # the security story proves itself via the dispatch counters, and
        # the live endpoint has nothing to serve without a store — either
        # way the run needs real telemetry, not the null object
        telemetry = Telemetry()
    server = None
    if cfg.serve_telemetry:
        server = telemetry.serve(port=cfg.telemetry_port)
        print(
            f"live telemetry on http://{server.host}:{server.port} "
            "(/metrics, /traces, /trace/<id>, /healthz, /query, /slo, /stream)"
        )
    farm = make_backend(cfg, telemetry)
    contract = ThroughputRangeContract(cfg.contract_low, cfg.contract_high)
    controller = FarmController(
        farm,
        contract,
        control_period=cfg.control_period,
        max_workers=cfg.max_workers,
        telemetry=telemetry,
        name=f"AM_{cfg.backend}",
    )
    _attach_slo(cfg, telemetry, contract, f"AM_{cfg.backend}")
    security: Optional[LiveSecurityManager] = None
    gm: Optional[LiveGeneralManager] = None
    if cfg.with_security:
        # every channel starts secured; every *new* worker lands on
        # untrusted ground, so the intent protocol must secure it before
        # the dispatcher may touch it
        farm.secure_all()
        pool = make_cluster(
            cfg.untrusted_nodes,
            prefix="u",
            domain=Domain("untrusted_ip_domain_A", trusted=False),
        )
        placement = WorkerPlacement(ResourceManager(pool))
        security = LiveSecurityManager(
            farm,
            placement,
            control_period=cfg.control_period,
            telemetry=telemetry,
            name=f"AM_sec_{cfg.backend}",
        )
        gm = LiveGeneralManager(
            farm,
            placement,
            mode=CoordinationMode(cfg.coordination),
            telemetry=telemetry,
            name=f"GM_{cfg.backend}",
        )
        gm.register(security)
        gm.register(controller, priority=0)
        security.start()
    controller.start()

    worker_series: List[Tuple[float, float]] = []
    throughput_series: List[Tuple[float, float]] = []
    arrival_series: List[Tuple[float, float]] = []
    last_sample = [0.0]

    def sample() -> None:
        now = farm.now()
        if now - last_sample[0] < cfg.control_period / 2.0:
            return
        last_sample[0] = now
        snap = farm.snapshot()
        worker_series.append((now, snap.num_workers))
        throughput_series.append((now, snap.departure_rate))
        arrival_series.append((now, snap.arrival_rate))

    fed = 0
    crashed = False
    try:
        # phase 1: starvation below the stripe
        t_end = farm.now() + cfg.starve_duration
        while farm.now() < t_end and fed < cfg.total_tasks:
            farm.submit((cfg.task_work, fed))
            fed += 1
            sample()
            time.sleep(1.0 / cfg.starve_rate)
        # phases 2-3: pressure inside the stripe, with an optional kill
        while fed < cfg.total_tasks:
            farm.submit((cfg.task_work, fed))
            fed += 1
            if cfg.inject_crash and not crashed and fed >= cfg.crash_after:
                if isinstance(farm, DistFarm):
                    # the distributed fault: sever the TCP connection —
                    # the worker process itself may be perfectly healthy
                    crashed = farm.drop_connection() is not None
                elif isinstance(farm, ProcessFarm):
                    crashed = farm.inject_crash() is not None
            sample()
            time.sleep(1.0 / cfg.feed_rate)
        # phase 4: drain
        results = farm.drain_results(fed, timeout=cfg.drain_timeout)
        sample()
        expected = sorted(i * i for i in range(fed))
        results_ok = sorted(results) == expected
        duration = farm.now()
        if security is not None:
            security.stop()
        controller.stop()
        snap = farm.snapshot()
        result = Fig4LiveResult(
            config=cfg,
            backend=cfg.backend,
            completed=snap.completed,
            results_ok=results_ok,
            duration=duration,
            actions=list(controller.actions),
            violations=list(controller.violations),
            worker_series=worker_series,
            throughput_series=throughput_series,
            arrival_series=arrival_series,
            final_workers=snap.num_workers,
            crashes=len(getattr(farm, "crashes", [])),
            replays=getattr(farm, "replays", 0),
            duplicates=getattr(farm, "duplicates", 0),
            dead_letters=len(getattr(farm, "dead_letters", [])),
        )
        _harvest_slo(result, telemetry)
        if gm is not None and telemetry is not None:
            outcomes = gm.outcomes()
            result.mc_committed = outcomes.get("committed", 0) + outcomes.get("partial", 0)
            result.mc_vetoed = outcomes.get("vetoed", 0)
            result.mc_amendments = sum(r.amendments for r in gm.intents)
            metrics = telemetry.metrics
            result.mc_admitted = int(
                metrics.counter("repro_mc_admitted_workers_total", "")
                .labels(gm=gm.name).value
            )
            result.insecure_dispatches = int(
                metrics.counter("repro_mc_insecure_dispatch_total", "")
                .labels(farm=farm.name).value
            )
            result.secured_workers = sum(
                1 for w in farm.workers if getattr(w, "active", True) and w.secured
            )
            result.quarantined_at_end = snap.quarantined
        if server is not None:
            result.telemetry_url = f"http://{server.host}:{server.port}"
        return result
    finally:
        if security is not None:
            security.stop()
        controller.stop()
        if telemetry is not None:
            telemetry.stop_timeseries()
        farm.shutdown()
        if server is not None:
            server.close()


# ----------------------------------------------------------------------
# the self-healing variant: --kill-coordinator
# ----------------------------------------------------------------------


def _run_fig4_supervised(
    cfg: Fig4LiveConfig, telemetry: Optional[Telemetry]
) -> Fig4LiveResult:
    """The FIG4 phases with the *coordinator itself* as the fault.

    The farm runs behind :class:`~repro.runtime.supervision.SupervisedFarm`
    (journaled dispatch) with a
    :class:`~repro.runtime.supervision.Supervisor` watching the
    heartbeat.  At ``crash_after`` fed tasks the whole coordinator stack
    — dispatcher and controller — is killed with tasks in flight; the
    supervisor replays the journal, promotes a new incarnation (the
    standby on the dist backend, with live workers reattaching over
    TCP), redispatches the in-flight tasks and restarts the controller
    under the journaled contract.  Zero loss must hold *across the
    coordinator's death*, not just a worker's.
    """
    import os
    import tempfile

    from ..runtime.supervision import SupervisedFarm, Supervisor

    if telemetry is None and cfg.serve_telemetry:
        telemetry = Telemetry()
    server = None
    if cfg.serve_telemetry:
        server = telemetry.serve(port=cfg.telemetry_port)
        print(
            f"live telemetry on http://{server.host}:{server.port} "
            "(/metrics, /traces, /trace/<id>, /healthz, /query, /slo, /stream)"
        )
    journal_path = cfg.journal_path
    cleanup_journal = False
    if not journal_path:
        fd, journal_path = tempfile.mkstemp(prefix="fig4-journal-", suffix=".jsonl")
        os.close(fd)
        cleanup_journal = True
    farm = SupervisedFarm(
        live_task,
        backend=cfg.backend,
        journal_path=journal_path,
        name=f"fig4-{cfg.backend}",
        initial_workers=cfg.initial_workers,
        max_workers=cfg.max_workers,
        telemetry=telemetry,
        farm_options={"rate_window": cfg.rate_window},
    )
    contract = ThroughputRangeContract(cfg.contract_low, cfg.contract_high)
    supervisor = Supervisor(
        farm,
        contract=contract,
        control_period=cfg.control_period,
        max_workers=cfg.max_workers,
        telemetry=telemetry,
    ).start()
    # the supervised controller keeps an epoch-stable manager name, so
    # its gauges form one series across failovers and these objectives
    # keep judging the farm through the coordinator's death
    _attach_slo(cfg, telemetry, contract, f"{supervisor.name}-am")

    worker_series: List[Tuple[float, float]] = []
    throughput_series: List[Tuple[float, float]] = []
    arrival_series: List[Tuple[float, float]] = []
    last_sample = [0.0]

    def sample() -> None:
        now = farm.now()
        if now - last_sample[0] < cfg.control_period / 2.0:
            return
        last_sample[0] = now
        snap = farm.snapshot()
        worker_series.append((now, snap.num_workers))
        throughput_series.append((now, snap.departure_rate))
        arrival_series.append((now, snap.arrival_rate))

    # actions/violations span coordinator incarnations: snapshot the
    # doomed controller's lists right before killing it, then append the
    # replacement's at the end
    actions: List[Tuple[float, str]] = []
    violations: List[Tuple[float, str]] = []

    def harvest_controller() -> None:
        controller = supervisor.controller
        if controller is not None:
            actions.extend(controller.actions)
            violations.extend(controller.violations)

    fed = 0
    crashed = False
    try:
        t_end = farm.now() + cfg.starve_duration
        while farm.now() < t_end and fed < cfg.total_tasks:
            farm.submit((cfg.task_work, fed))
            fed += 1
            sample()
            time.sleep(1.0 / cfg.starve_rate)
        while fed < cfg.total_tasks:
            farm.submit((cfg.task_work, fed))
            fed += 1
            if cfg.inject_crash and not crashed and fed >= cfg.crash_after:
                harvest_controller()
                supervisor.crash_coordinator()
                crashed = True
            sample()
            time.sleep(1.0 / cfg.feed_rate)
        results = farm.drain_results(fed, timeout=cfg.drain_timeout)
        sample()
        expected = sorted(i * i for i in range(fed))
        results_ok = sorted(results) == expected
        duration = farm.now()
        harvest_controller()
        supervisor.stop()
        snap = farm.snapshot()
        result = Fig4LiveResult(
            config=cfg,
            backend=cfg.backend,
            completed=snap.completed,
            results_ok=results_ok,
            duration=duration,
            actions=actions,
            violations=violations,
            worker_series=worker_series,
            throughput_series=throughput_series,
            arrival_series=arrival_series,
            final_workers=snap.num_workers,
            crashes=1 if crashed else 0,
            replays=farm.redispatched,
            duplicates=farm.duplicates,
            dead_letters=0,
            failovers=supervisor.failovers,
            failover_latency=farm.last_failover_seconds or 0.0,
            final_epoch=farm.epoch,
            redispatched=farm.redispatched,
        )
        _harvest_slo(result, telemetry)
        if server is not None:
            result.telemetry_url = f"http://{server.host}:{server.port}"
        return result
    finally:
        supervisor.stop()
        if telemetry is not None:
            telemetry.stop_timeseries()
        farm.shutdown()
        if server is not None:
            server.close()
        if cleanup_journal:
            try:
                os.unlink(journal_path)
            except OSError:
                pass


# ----------------------------------------------------------------------
# the sharded variant: --shards / --tenants
# ----------------------------------------------------------------------


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
    contract_high: float = 400.0
    task_work: float = 0.04           # one worker sustains ~25 tasks/s
    feed_rate: float = 100.0
    total_tasks: int = 240
    max_workers_total: int = 4
    control_period: float = 0.1
    rebalance_cooldown: float = 0.3
    rate_window: float = 0.8
    tenant_rate: float = 20.0         # per-tenant SLA (tasks/s)
    tenant_burst: float = 1.0
    drain_timeout: float = 60.0


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


def run_fig4_sharded(
    config: Optional[Fig4ShardedConfig] = None,
    *,
    telemetry: Optional[Telemetry] = None,
) -> Fig4ShardedResult:
    """Run the farm-of-farms scenario and return its measured outcome."""
    from ..core.contracts import ThroughputRangeContract as _Range
    from ..runtime.hierarchy import ShardedFarm, TenantRegistry

    cfg = config or Fig4ShardedConfig()
    registry = None
    tenant_names: List[str] = []
    if cfg.tenants > 0:
        registry = TenantRegistry(telemetry=telemetry)
        for i in range(cfg.tenants):
            name = f"tenant{i}"
            registry.register(name, cfg.tenant_rate, burst=cfg.tenant_burst)
            tenant_names.append(name)
    farm = ShardedFarm(
        live_task,
        contract=_Range(cfg.contract_low, cfg.contract_high),
        shards=cfg.shards,
        backend=cfg.backend,
        max_workers_total=cfg.max_workers_total,
        control_period=cfg.control_period,
        rebalance_cooldown=cfg.rebalance_cooldown,
        registry=registry,
        telemetry=telemetry,
        shard_kwargs={"rate_window": cfg.rate_window},
    )
    expected: List[int] = []
    fair_share_error = 0.0
    try:
        if cfg.tenants > 0:
            # multi-tenant story: everything through the admission gate
            for i in range(cfg.total_tasks):
                tenant = tenant_names[i % cfg.tenants]
                verdict = farm.submit((cfg.task_work, i), tenant=tenant)
                if verdict != "reject":
                    expected.append(i * i)
                time.sleep(1.0 / cfg.feed_rate)
            # the contended window: every backlogged tenant is draining
            # against its token rate, so dispatch counts here measure
            # fair share, not merely "everything got through eventually"
            dispatched = [registry.get(n).dispatched for n in tenant_names]
            mean = sum(dispatched) / len(dispatched)
            if mean > 0:
                fair_share_error = max(
                    abs(d - mean) / mean for d in dispatched
                )
        else:
            # rebalancing story: the whole feed lands on shard 0
            for i in range(cfg.total_tasks):
                farm.shards[0].farm.submit((cfg.task_work, i))
                expected.append(i * i)
                time.sleep(1.0 / cfg.feed_rate)
        # tenant backlogs keep draining through the parent loop's pump
        results = farm.drain_results(len(expected), timeout=cfg.drain_timeout)
        results_ok = sorted(results) == sorted(expected)
        violations: dict = {}
        for _t, _shard, kind in farm.violations:
            violations[kind] = violations.get(kind, 0) + 1
        tenant_stats = [
            (t.name, t.submitted, t.admitted, t.queued, t.rejected, t.dispatched)
            for t in (registry.tenants() if registry is not None else [])
        ]
        return Fig4ShardedResult(
            config=cfg,
            backend=cfg.backend,
            completed=farm.completed,
            results_ok=results_ok,
            duration=farm.now(),
            budgets=list(farm.budgets),
            workers=[s.farm.num_workers for s in farm.shards],
            rebalances=[
                (e.time, e.from_shard, e.to_shard, e.latency)
                for e in farm.rebalances
            ],
            shard_violations=violations,
            root_violations=len(farm.root_violations),
            tenant_stats=tenant_stats,
            fair_share_error=fair_share_error,
        )
    finally:
        farm.shutdown()


def render_fig4_sharded(r: Fig4ShardedResult) -> str:
    """ASCII report for the farm-of-farms run."""
    from .report import table

    cfg = r.config
    out = [
        f"=== FIG4-SHARDED: {cfg.shards}-shard hierarchy on the "
        f"{r.backend} backend ===",
        "",
        f"root SLA: {cfg.contract_low:g}-{cfg.contract_high:g} tasks/s; "
        f"{cfg.total_tasks} tasks of {cfg.task_work * 1000:g} ms; "
        f"total worker budget {cfg.max_workers_total}"
        + (
            f"; {cfg.tenants} tenants at {cfg.tenant_rate:g} tasks/s each"
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
        f"workers start at {cfg.initial_workers}",
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
            ["duplicate deliveries suppressed", r.duplicates],
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
