"""Experiment FIG4 — hierarchical AMs in a three-stage pipeline (Figure 4).

The paper's scenario, phase by phase (§4.2):

1. The user hands AM_A a 0.3–0.7 tasks/s throughput contract; AM_A
   forwards it to AM_P / AM_F / AM_C; AM_F's workers get best-effort.
2. **Starvation** — the producer emits too slowly; AM_F sees contrLow +
   notEnough, has no useful local action, raises violations and goes
   passive; AM_A responds with incRate contracts to AM_P ("the first
   stage produces tasks more and more frequently").
3. **Growth** — once input pressure suffices but throughput is still
   low, AM_F adds two workers (addWorker), with a monitoring blackout
   during reconfiguration; if the contract is still unmet it adds two
   more.
4. **Overshoot** — the rate increases overshoot the stripe; AM_F raises
   a tooMuchTasks *warning* and AM_A decRates the producer slightly.
5. **Drain** — the stream ends (endStream); AM_A stops reacting to
   notEnough; AM_F locally rebalances queued tasks.

The regenerated figure is four aligned traces: AM_A events, AM_F events,
rates vs the contract stripe, and cores in use (5 → 7 → 9).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.behavioural import PipelineApp, build_three_stage_pipeline
from ..core.contracts import ThroughputRangeContract
from ..core.events import Events
from ..obs.clock import SimClock
from ..obs.events import TraceRecorder
from ..obs.telemetry import Telemetry
from ..sim.engine import Simulator
from ..sim.resources import ResourceManager, make_cluster
from ..sim.workload import UniformWork

__all__ = ["Fig4Config", "Fig4Result", "run_fig4", "main", "parser", "run"]


@dataclass
class Fig4Config:
    """Parameters of the FIG4 scenario."""

    contract_low: float = 0.3
    contract_high: float = 0.7
    initial_rate: float = 0.2        # below the stripe: phase-2 starvation
    max_rate: float = 1.5
    worker_work_lo: float = 9.0      # per-task work (uniform band): one
    worker_work_hi: float = 15.0     # worker ≈ 1/12 tasks/s on average
    total_tasks: int = 300
    initial_degree: int = 3          # + producer + consumer = 5 cores
    pool_size: int = 24
    duration: float = 900.0
    control_period: float = 10.0
    worker_setup_time: float = 10.0
    rate_window: float = 30.0
    inc_factor: float = 1.4
    dec_factor: float = 0.92
    seed: int = 42
    #: route AM_F's worker additions through a two-phase GeneralManager.
    #: Off by default: the GM adds its own intentReview marks, and
    #: the regenerated Figure 4 artefacts must stay byte-identical.
    with_coordinator: bool = False

    @property
    def mean_worker_work(self) -> float:
        return (self.worker_work_lo + self.worker_work_hi) / 2.0


@dataclass
class Fig4Result:
    """Outcome of one FIG4 run with the figure's four traces."""

    config: Fig4Config
    app: PipelineApp
    cores_series: List[Tuple[float, float]] = field(default_factory=list)
    input_rate_series: List[Tuple[float, float]] = field(default_factory=list)
    throughput_series: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def trace(self) -> TraceRecorder:
        """The run's decision marks."""
        return self.app.trace

    # -- event accessors (the first two graphs) -------------------------
    def am_f_events(self) -> List[str]:
        return self.trace.event_names("AM_F")

    @property
    def inc_rate_times(self) -> List[float]:
        return [e.time for e in self.trace.events_of("AM_A", Events.INC_RATE)]

    @property
    def dec_rate_times(self) -> List[float]:
        return [e.time for e in self.trace.events_of("AM_A", Events.DEC_RATE)]

    @property
    def add_worker_times(self) -> List[float]:
        return [e.time for e in self.trace.events_of("AM_F", Events.ADD_WORKER)]

    @property
    def first_violation_time(self) -> Optional[float]:
        ev = self.trace.first(Events.RAISE_VIOL, actor="AM_F")
        return ev.time if ev else None

    @property
    def end_stream_time(self) -> Optional[float]:
        ev = self.trace.first(Events.END_STREAM, actor="AM_A")
        return ev.time if ev else None

    # -- figure-level checks ---------------------------------------------
    def phase_order_holds(self) -> bool:
        """The paper's causal chain: starve → raiseViol → incRate → addWorker."""
        return self.trace.assert_order(
            [Events.NOT_ENOUGH, Events.RAISE_VIOL]
        ) and self.trace.assert_order([Events.RAISE_VIOL, Events.INC_RATE]) and (
            not self.add_worker_times
            or min(self.add_worker_times) > min(self.inc_rate_times or [float("inf")])
        )

    def cores_step_values(self) -> List[int]:
        """Distinct cores-in-use plateau values, in order (5 → 7 → 9)."""
        steps: List[int] = []
        for _, v in self.cores_series:
            iv = int(v)
            if not steps or steps[-1] != iv:
                steps.append(iv)
        return steps

    def final_throughput(self) -> Optional[float]:
        """Delivery rate while the stream was still live (steady state)."""
        end = self.end_stream_time
        pts = [
            (t, v)
            for t, v in self.throughput_series
            if end is None or t <= end
        ]
        return pts[-1][1] if pts else None

    def in_stripe_at_end(self) -> bool:
        v = self.final_throughput()
        if v is None:
            return False
        return self.config.contract_low <= v <= self.config.contract_high * 1.1


def run_fig4(
    config: Optional[Fig4Config] = None, *, telemetry: Optional[Telemetry] = None
) -> Fig4Result:
    """Run the FIG4 scenario and return its traces and summary.

    The run records on ``telemetry`` (a fresh one when omitted), whose
    clock is set to follow the simulation: every manager mark, MAPE
    phase, rule evaluation, violation propagation and (with
    ``config.with_coordinator``) intent round.
    """
    cfg = config or Fig4Config()
    telemetry = telemetry if telemetry is not None else Telemetry()
    sim = Simulator(telemetry=telemetry)
    telemetry.clock = SimClock(sim)
    rm = ResourceManager(make_cluster(cfg.pool_size))

    app = build_three_stage_pipeline(
        sim,
        rm,
        work_model=UniformWork(cfg.worker_work_lo, cfg.worker_work_hi, seed=cfg.seed),
        worker_work=cfg.mean_worker_work,
        initial_rate=cfg.initial_rate,
        max_rate=cfg.max_rate,
        total_tasks=cfg.total_tasks,
        initial_degree=cfg.initial_degree,
        control_period=cfg.control_period,
        worker_setup_time=cfg.worker_setup_time,
        rate_window=cfg.rate_window,
        inc_factor=cfg.inc_factor,
        dec_factor=cfg.dec_factor,
        telemetry=telemetry,
    )
    if cfg.with_coordinator:
        from ..core.multiconcern import CoordinationMode, GeneralManager

        gm = GeneralManager(mode=CoordinationMode.TWO_PHASE, telemetry=telemetry)
        gm.register(app.am_f)
        app.gm = gm  # type: ignore[attr-defined]
    app.assign_contract(ThroughputRangeContract(cfg.contract_low, cfg.contract_high))

    result = Fig4Result(config=cfg, app=app)

    def sample() -> None:
        snap = app.farm.force_snapshot()
        result.cores_series.append((sim.now, float(app.cores_in_use())))
        result.input_rate_series.append((sim.now, float(snap.arrival_rate)))
        result.throughput_series.append((sim.now, float(snap.departure_rate)))

    sim.periodic(cfg.control_period / 2.0, sample, name="sampler")
    sim.run(until=cfg.duration)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    """CLI: run FIG4, print the report, optionally dump the decision audit.

    ``--backend`` selects the substrate the Figure 5 rules drive:
    ``sim`` (default, the deterministic DES reproducing the paper's
    figure), ``thread`` (live threads), ``process`` (supervised OS
    processes with SIGKILL fault injection and task replay) or ``dist``
    (TCP-connected worker processes behind an asyncio coordinator, with
    connection-severing fault injection).
    ``--trace-out PATH`` attaches telemetry and writes the full decision
    audit — the managers' marks, MAPE/rule/violation/intent spans — as
    JSON lines.  ``--metrics-out PATH`` additionally dumps
    the metrics registry in Prometheus text format.
    """
    p = parser("python -m repro.experiments.fig4")
    return run(p, p.parse_args(argv))


def parser(prog: str) -> argparse.ArgumentParser:
    """FIG4's option set; :func:`run` checks and runs what it parsed."""
    parser = argparse.ArgumentParser(prog=prog, description=main.__doc__)
    parser.add_argument(
        "--backend", choices=("sim", "thread", "process", "dist"), default="sim",
        help="substrate under the rules: deterministic sim (default), "
        "live threads, crash-supervised OS processes, or TCP-connected "
        "distributed workers",
    )
    parser.add_argument(
        "--no-crash", action="store_true",
        help="process/dist backends: skip the fault injection",
    )
    parser.add_argument(
        "--kill-coordinator", action="store_true",
        help="live backends: run under journaled supervision and crash "
        "the whole coordinator stack mid-feed — the supervisor replays "
        "the journal, promotes a new incarnation (the dist standby) and "
        "redispatches the in-flight tasks with zero loss",
    )
    parser.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="live backends: run the farm-of-farms variant with N shards "
        "under one parent manager (skewed feed -> budget rebalancing)",
    )
    parser.add_argument(
        "--tenants", type=int, default=0, metavar="M",
        help="with --shards: multiplex M tenants with per-tenant rate "
        "SLAs through the admission gate and fair-share scheduler",
    )
    parser.add_argument(
        "--with-security", action="store_true",
        help="live backends: run the §3.2 multi-concern story — growth "
        "routes through a live GM + security manager, every new worker "
        "is quarantined until its channel is secured",
    )
    parser.add_argument(
        "--coordination", choices=("two-phase", "naive"), default="two-phase",
        help="with --with-security: intent protocol (default) or the "
        "naive ablation that measures the insecure-dispatch leak window",
    )
    parser.add_argument(
        "--serve-telemetry", action="store_true",
        help="live backends: serve /metrics, /traces, /trace/<id>, "
        "/healthz, /query, /slo and /stream over HTTP for the duration "
        "of the run (watch it live with python -m repro.obs.top)",
    )
    parser.add_argument(
        "--no-slo", action="store_true",
        help="live backends without --shards: skip deriving SLO burn-rate objectives "
        "from the contract (on by default when telemetry is enabled)",
    )
    parser.add_argument(
        "--telemetry-port", type=int, default=0, metavar="PORT",
        help="with --serve-telemetry: bind this port (default: pick a free one)",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write the decision audit (spans + events + series) as JSONL",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the metrics registry as Prometheus text",
    )
    parser.add_argument(
        "--duration", type=float, default=None,
        help="sim backend: override the simulated duration",
    )
    parser.add_argument(
        "--with-coordinator", action="store_true",
        help="sim backend: route AM_F worker additions through a two-phase GM",
    )
    return parser


def run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Refuse an option the chosen mode would ignore, then run that mode."""
    live = args.backend != "sim"
    needs_live = "needs a live backend (thread/process/dist)"
    sim_only = "only applies to the sim backend"
    unsharded = "does not combine with --shards"
    for refused, message in (
        (args.tenants and not args.shards, "--tenants needs --shards"),
        (args.kill_coordinator and not live, f"--kill-coordinator {needs_live}"),
        (args.shards and not live, f"--shards {needs_live}"),
        (args.with_security and not live, f"--with-security {needs_live}"),
        (args.serve_telemetry and not live, f"--serve-telemetry {needs_live}"),
        (
            args.telemetry_port and not args.serve_telemetry,
            "--telemetry-port only makes sense with --serve-telemetry",
        ),
        (args.duration is not None and live, f"--duration {sim_only}"),
        (args.with_coordinator and live, f"--with-coordinator {sim_only}"),
        (
            args.kill_coordinator and args.with_security,
            "--kill-coordinator and --with-security are mutually exclusive",
        ),
        (args.kill_coordinator and args.shards, f"--kill-coordinator {unsharded}"),
        (args.with_security and args.shards, f"--with-security {unsharded}"),
        (args.no_slo and args.shards, f"--no-slo {unsharded}"),
    ):
        if refused:
            parser.error(message)

    telemetry = Telemetry() if args.trace_out or args.metrics_out else None
    if args.shards:
        from .fig4_live import Fig4ShardedConfig, render_fig4_sharded, run_fig4_sharded

        cfg = Fig4ShardedConfig(
            backend=args.backend, shards=args.shards, tenants=args.tenants,
            serve_telemetry=args.serve_telemetry, telemetry_port=args.telemetry_port,
        )
        print(render_fig4_sharded(run_fig4_sharded(cfg, telemetry=telemetry)))
    elif live:
        from .fig4_live import Fig4LiveConfig, render_fig4_live, run_fig4_live

        cfg = Fig4LiveConfig(
            backend=args.backend,
            inject_crash=not args.no_crash,
            with_security=args.with_security,
            coordination=args.coordination,
            serve_telemetry=args.serve_telemetry,
            telemetry_port=args.telemetry_port,
            kill_coordinator=args.kill_coordinator,
            with_slo=not args.no_slo,
        )
        print(render_fig4_live(run_fig4_live(cfg, telemetry=telemetry)))
    else:
        from .report import render_fig4

        cfg = Fig4Config(with_coordinator=args.with_coordinator)
        if args.duration is not None:
            cfg.duration = args.duration
        print(render_fig4(run_fig4(cfg, telemetry=telemetry)))

    if args.trace_out:
        from ..obs.export import write_trace_jsonl

        n = write_trace_jsonl(args.trace_out, telemetry)
        print(f"wrote {n} trace records to {args.trace_out}")
    if args.metrics_out:
        from ..obs.export import prometheus_text

        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(prometheus_text(telemetry.metrics))
        print(f"wrote metrics to {args.metrics_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
