"""Rendering experiment results as figure-shaped text reports.

Each ``render_*`` function turns one experiment's result object into the
textual analogue of the corresponding paper figure: aligned event
timelines (Figure 4's first two graphs), rate charts with the contract
stripe (third graph), and step charts of resources used (fourth graph).
``python -m repro.experiments`` prints these, regenerating every figure
of the paper in text form.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..obs.export import ascii_series, ascii_timeline
from .ablation import AblationRow
from .failures import FaultResult
from .fig3 import Fig3Result
from .fig4 import Fig4Result
from .loadspike import LoadSpikeResult
from .multiconcern import MultiConcernResult
from .migration import MigrationResult
from .patterns import PatternsResult
from .split import SplitResult
from .stagefarm import StageFarmResult

__all__ = [
    "render_fig3",
    "render_fig4",
    "render_loadspike",
    "render_multiconcern",
    "render_split",
    "render_ablation",
    "render_faults",
    "render_stagefarm",
    "render_patterns",
    "render_migration",
    "table",
]


def table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Plain-text table with aligned columns."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def _fmt(value: Optional[float], digits: int = 2) -> str:
    if value is None:
        return "-"
    return f"{value:.{digits}f}"


def render_fig3(r: Fig3Result) -> str:
    """Figure 3: farm ramp-up toward the 0.6 task/s contract."""
    out = ["=== FIG3: single AM ensuring a throughput contract (paper Fig. 3) ===", ""]
    out.append(
        f"contract: >= {r.config.target_throughput:g} tasks/s; "
        f"per-worker rate {r.config.worker_rate:g} tasks/s; "
        f"input pressure {r.config.input_rate:g} tasks/s"
    )
    out.append("")
    out.append(
        ascii_series(
            r.throughput_series,
            hlines=[r.config.target_throughput],
            title="farm throughput (tasks/s) — dashed line = contract",
            height=10,
        )
    )
    out.append(
        ascii_series(
            r.workers_series,
            title="parallelism degree (workers)",
            height=8,
        )
    )
    out.append(
        table(
            ["metric", "value"],
            [
                ["time to contract (s)", _fmt(r.time_to_contract, 1)],
                ["final workers", r.final_workers],
                ["final throughput", _fmt(r.final_throughput, 3)],
                ["addWorker actions", len(r.add_worker_times)],
                ["removeWorker actions", r.remove_worker_count],
                ["contract met", r.contract_met],
                ["staircase monotone", r.staircase_is_monotone()],
            ],
        )
    )
    return "\n".join(out)


def render_fig4(r: Fig4Result) -> str:
    """Figure 4: the four aligned graphs of the hierarchical run."""
    cfg = r.config
    out = ["=== FIG4: hierarchical AMs in a three-stage pipeline (paper Fig. 4) ===", ""]
    out.append(
        f"contract: {cfg.contract_low:g}-{cfg.contract_high:g} tasks/s; "
        f"{cfg.total_tasks} tasks; initial producer rate {cfg.initial_rate:g}/s; "
        f"initial farm degree {cfg.initial_degree}"
    )
    out.append("")
    out.append("--- graph 1: AM_A (application/pipeline manager) events ---")
    out.append(ascii_timeline(r.trace.events_of("AM_A"), width=70))
    out.append("--- graph 2: AM_F (farm manager) events ---")
    out.append(ascii_timeline(r.trace.events_of("AM_F"), width=70))
    out.append("--- graph 3: input rate & throughput vs the contract stripe ---")
    out.append(
        ascii_series(
            r.input_rate_series,
            hlines=[cfg.contract_low, cfg.contract_high],
            title="input task rate (tasks/s) — dashes = contract stripe",
            height=9,
        )
    )
    out.append(
        ascii_series(
            r.throughput_series,
            hlines=[cfg.contract_low, cfg.contract_high],
            title="stage-2 throughput (tasks/s) — dashes = contract stripe",
            height=9,
        )
    )
    out.append("--- graph 4: resources (cores) used ---")
    out.append(ascii_series(r.cores_series, title="cores in use", height=7))
    out.append(
        table(
            ["checkpoint (paper §4.2)", "reproduced"],
            [
                ["starve → raiseViol → incRate → addWorker order", r.phase_order_holds()],
                ["cores step 5 → 7 → 9", r.cores_step_values()],
                ["incRate actions", len(r.inc_rate_times)],
                ["decRate actions (warning path)", len(r.dec_rate_times)],
                ["addWorker batches (x2 workers)", len(r.add_worker_times)],
                ["first violation at (s)", _fmt(r.first_violation_time, 1)],
                ["endStream at (s)", _fmt(r.end_stream_time, 1)],
                ["steady throughput in stripe", r.in_stripe_at_end()],
                ["tasks delivered", r.app.delivered],
            ],
        )
    )
    return "\n".join(out)


def render_loadspike(r: LoadSpikeResult) -> str:
    """EXT-LOAD: the §4.2 external-load adaptation claim."""
    out = ["=== EXT-LOAD: adaptation to external load on worker cores (§4.2) ===", ""]
    out.append(
        ascii_series(
            r.throughput_series,
            hlines=[r.config.target_throughput],
            title=f"throughput; load spike at t={r.config.spike_time:g}s",
            height=10,
        )
    )
    out.append(
        ascii_series(
            r.workers_series,
            title="parallelism degree",
            height=7,
        )
    )
    out.append(
        table(
            ["metric", "value"],
            [
                ["workers before spike", r.workers_before],
                ["workers after recovery", r.workers_after],
                ["throughput before", _fmt(r.throughput_before, 3)],
                ["throughput dip", _fmt(r.throughput_dip, 3)],
                ["throughput after", _fmt(r.throughput_after, 3)],
                ["dip visible", r.dip_visible],
                ["adapted (added workers & recovered)", r.adapted],
            ],
        )
    )
    return "\n".join(out)


def render_multiconcern(naive: MultiConcernResult, two_phase: MultiConcernResult) -> str:
    """MC-2PC: naive vs two-phase coordination, side by side."""
    out = ["=== MC-2PC: perf+security coordination (paper §3.2) ===", ""]
    out.append(
        table(
            ["metric", "naive", "two-phase"],
            [
                ["plaintext leaks to untrusted domain", naive.leaks, two_phase.leaks],
                ["exposed workers at end", naive.exposed_at_end, two_phase.exposed_at_end],
                ["perf contract met", naive.perf_contract_met, two_phase.perf_contract_met],
                ["final throughput", _fmt(naive.final_throughput, 3), _fmt(two_phase.final_throughput, 3)],
                ["untrusted-domain workers", naive.untrusted_workers, two_phase.untrusted_workers],
                ["secured workers", naive.secured_workers, two_phase.secured_workers],
                ["intents amended pre-commit", naive.amended_intents, two_phase.amended_intents],
                ["reactive secure actions (late!)", naive.reactive_secure_actions, two_phase.reactive_secure_actions],
            ],
        )
    )
    out.append(
        "expected shape: both modes end secure and in perf-contract; only the\n"
        "naive mode leaks plaintext during the window between worker\n"
        "instantiation and the security manager's next control tick.\n"
    )
    return "\n".join(out)


def render_split(r: SplitResult, soundness: Tuple[int, int]) -> str:
    """SPLIT: P_spl heuristics vs uniform and optimal allocations."""
    out = ["=== SPLIT: contract-splitting heuristics (paper §3.1, P_spl) ===", ""]
    checked, held = soundness
    out.append(
        f"throughput-split soundness: stage SLAs met => pipeline SLA met in "
        f"{held}/{checked} random pipelines\n"
    )
    rows = [
        [
            "×".join(f"{w:g}" for w in c.works),
            c.budget,
            c.proportional,
            c.uniform,
            c.optimal,
            _fmt(c.thr_proportional, 3),
            _fmt(c.thr_uniform, 3),
            _fmt(c.thr_optimal, 3),
            _fmt(c.proportional_efficiency, 3),
        ]
        for c in r.cases[:12]
    ]
    out.append(
        table(
            ["stage works", "budget", "prop", "unif", "opt", "thr(prop)", "thr(unif)", "thr(opt)", "eff"],
            rows,
        )
    )
    out.append(
        table(
            ["aggregate", "value"],
            [
                ["cases", len(r.cases)],
                ["mean proportional efficiency vs optimal", _fmt(r.mean_efficiency, 3)],
                ["min proportional efficiency", _fmt(r.min_efficiency, 3)],
                ["fraction where proportional >= uniform", _fmt(r.beats_or_ties_uniform_fraction, 3)],
            ],
        )
    )
    return "\n".join(out)


def render_faults(r: FaultResult) -> str:
    """FAULT: worker crashes, task recovery, capacity replacement."""
    out = ["=== FAULT: autonomic reaction to worker crashes (concern of §2) ===", ""]
    out.append(
        ascii_series(
            r.throughput_series,
            hlines=[r.config.target_throughput],
            title=f"throughput; crashes at t={list(r.config.crash_times)}",
            height=10,
        )
    )
    out.append(
        ascii_series(r.workers_series, title="parallelism degree", height=7)
    )
    out.append(
        table(
            ["metric", "value"],
            [
                ["worker crashes injected", r.crashes],
                ["tasks recovered from crashed workers", r.recovered_tasks],
                ["tasks completed / submitted", f"{r.completed} / {r.config.total_tasks}"],
                ["no task lost", r.no_task_lost],
                ["replacement workers recruited", r.replacements],
                ["throughput after recovery (live)", _fmt(r.live_throughput_after_recovery, 3)],
                ["capacity recovered", r.capacity_recovered],
            ],
        )
    )
    return "\n".join(out)


def render_stagefarm(r: StageFarmResult) -> str:
    """STAGE-FARM: the §4.2 stage-to-farm transformation."""
    out = ["=== STAGE-FARM: transforming a bottleneck stage into a farm (§4.2) ===", ""]
    out.append(
        ascii_series(
            r.throughput_series,
            hlines=[r.config.contract_low, r.config.contract_high],
            title=(
                f"pipeline throughput; consumer core loaded at "
                f"t={r.config.spike_time:g}s — dashes = contract stripe"
            ),
            height=10,
        )
    )
    out.append(
        table(
            ["metric", "value"],
            [
                ["throughput before spike", _fmt(r.throughput_before, 3)],
                ["dip after spike", _fmt(r.throughput_dip, 3)],
                ["stage promoted to farm", r.promoted],
                ["promotion at (s)", _fmt(r.promotion_time, 1)],
                ["stage-farm workers at end", r.stage_farm_workers],
                ["throughput after promotion", _fmt(r.throughput_after, 3)],
                ["contract recovered", r.recovered],
            ],
        )
    )
    return "\n".join(out)


def render_patterns(r: PatternsResult) -> str:
    """PATTERNS: farm vs data-parallel map trade-off table."""
    out = ["=== PATTERNS: task farm vs data-parallel map (§3 variants) ===", ""]
    out.append(
        f"per-task work {r.task_work:g}s; throughput from a saturated run, "
        "latency from an unloaded run\n"
    )
    rows = []
    for d in r.degrees():
        farm = r.point("farm", d)
        dmap = r.point("map", d)
        rows.append(
            [
                d,
                _fmt(farm.throughput, 3),
                _fmt(dmap.throughput, 3),
                _fmt(farm.mean_latency, 2),
                _fmt(dmap.mean_latency, 2),
                "map" if r.map_wins_latency(d) else "farm",
            ]
        )
    out.append(
        table(
            ["degree", "thr(farm)", "thr(map)", "lat(farm)", "lat(map)", "latency winner"],
            rows,
        )
    )
    out.append(
        "expected shape: the farm holds the throughput edge (no per-task\n"
        "scatter/gather) while the map's unloaded latency is ~work/degree.\n"
    )
    return "\n".join(out)


def render_migration(r: MigrationResult) -> str:
    """MIGRATE: migration-first vs growth recovery on the load spike."""
    out = ["=== MIGRATE: migration vs growth as the recovery policy (§3) ===", ""]
    out.append(
        f"all {r.config.initial_degree} initial worker nodes lose "
        f"{r.config.spike_load:.0%} of their speed at t={r.config.spike_time:g}s; "
        "fresh nodes are available in the pool\n"
    )
    out.append(
        table(
            ["metric", "standard (grow)", "migration-first"],
            [
                ["final workers", r.standard.final_workers, r.migration_first.final_workers],
                ["nodes allocated", r.standard.nodes_allocated, r.migration_first.nodes_allocated],
                ["final throughput", _fmt(r.standard.final_throughput, 3), _fmt(r.migration_first.final_throughput, 3)],
                ["migrations", r.standard.migrations, r.migration_first.migrations],
                ["worker additions", r.standard.additions, r.migration_first.additions],
                ["contract recovered", r.standard.recovered, r.migration_first.recovered],
            ],
        )
    )
    out.append(
        "expected shape: both policies restore the contract; migrating the\n"
        "slow workers onto fresh nodes does it with far fewer resources.\n"
    )
    return "\n".join(out)


def render_ablation(rows: List[AblationRow], title: str) -> str:
    """ABL-RULES: one sweep's table."""
    out = [f"=== ABL-RULES: {title} ===", ""]
    out.append(
        table(
            ["value", "time-to-contract (s)", "final workers", "final thr", "adds", "removes", "reconfigs"],
            [
                [
                    f"{r.value:g}",
                    _fmt(r.time_to_contract, 1),
                    r.final_workers,
                    _fmt(r.final_throughput, 3),
                    r.adds,
                    r.removes,
                    r.reconfigurations,
                ]
                for r in rows
            ],
        )
    )
    return "\n".join(out)
