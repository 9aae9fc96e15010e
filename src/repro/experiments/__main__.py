"""Run every experiment and print/regenerate the full report set.

Usage::

    python -m repro.experiments            # run everything, print reports
    python -m repro.experiments fig4 mc    # run a subset
    python -m repro.experiments fig4 --trace-out audit.jsonl
    python -m repro.experiments fig4 --backend=process
    python -m repro.experiments fig4 --backend=dist --with-security
    python -m repro.experiments fig4 --backend=thread --serve-telemetry
    python -m repro.experiments fig4 --backend=dist --kill-coordinator
    python -m repro.experiments fig4 --backend=thread --shards 2 --tenants 3

Experiment keys: fig3, fig4, loadspike, multiconcern (mc), split,
ablation, faults, stagefarm, patterns, migration.  Every option of
``python -m repro.experiments.fig4`` works here too, before or after the
keys, and is checked by FIG4's own parser: ``--trace-out PATH`` attaches
telemetry to the FIG4 run and writes its decision audit as JSONL;
``--backend {sim,thread,process,dist}`` selects the substrate under the
FIG4 rules; ``--with-security`` (live backends) runs the multi-concern
story — live GM + security manager, quarantine → secure → admit — and
``--coordination naive`` is its leak-window ablation;
``--serve-telemetry`` (live backends) exposes /metrics and /trace over
HTTP while the run is in flight; ``--shards N`` (``--tenants M``) runs
the live farm of farms (see ``--help`` for the full option set).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from . import fig4
from .ablation import sweep_control_period, sweep_hysteresis
from .failures import run_faults
from .fig3 import Fig3Config, run_fig3
from .loadspike import run_loadspike
from .migration import run_migration
from .multiconcern import MultiConcernConfig, run_multiconcern
from .patterns import run_patterns
from .report import (
    render_ablation,
    render_faults,
    render_fig3,
    render_fig4,
    render_loadspike,
    render_migration,
    render_multiconcern,
    render_patterns,
    render_split,
    render_stagefarm,
)
from .split import run_split, verify_throughput_split_soundness
from .stagefarm import run_stagefarm


def _fig3() -> str:
    return render_fig3(run_fig3())


def _fig4() -> str:
    return render_fig4(fig4.run_fig4())


def _loadspike() -> str:
    return render_loadspike(run_loadspike())


def _multiconcern() -> str:
    naive = run_multiconcern(MultiConcernConfig(mode="naive"))
    two_phase = run_multiconcern(MultiConcernConfig(mode="two-phase"))
    return render_multiconcern(naive, two_phase)


def _split() -> str:
    return render_split(run_split(n_cases=100), verify_throughput_split_soundness(n_cases=200))


def _ablation() -> str:
    a = render_ablation(
        sweep_control_period(base=Fig3Config(duration=600.0)),
        "control period sweep (FIG3 scenario)",
    )
    b = render_ablation(
        sweep_hysteresis(duration=600.0), "hysteresis width sweep (0.6-centred stripe)"
    )
    return a + "\n" + b


def _faults() -> str:
    return render_faults(run_faults())


def _stagefarm() -> str:
    return render_stagefarm(run_stagefarm())


def _patterns() -> str:
    return render_patterns(run_patterns())


def _migration() -> str:
    return render_migration(run_migration())


RUNNERS: Dict[str, Callable[[], str]] = {
    "fig3": _fig3,
    "fig4": _fig4,
    "loadspike": _loadspike,
    "multiconcern": _multiconcern,
    "mc": _multiconcern,
    "split": _split,
    "ablation": _ablation,
    "faults": _faults,
    "stagefarm": _stagefarm,
    "patterns": _patterns,
    "migration": _migration,
}

DEFAULT_ORDER = (
    "fig3",
    "fig4",
    "loadspike",
    "multiconcern",
    "split",
    "ablation",
    "faults",
    "stagefarm",
    "patterns",
    "migration",
)


def main(argv: Optional[List[str]] = None) -> int:
    parser = fig4.parser("python -m repro.experiments")
    parser.description = "Print the report of each experiment KEY (default: all)."
    parser.add_argument(
        "keys", nargs="*", metavar="KEY",
        help=f"experiments to run, in order (default: all); one of {sorted(RUNNERS)}",
    )
    args = parser.parse_intermixed_args(argv)
    keys = args.keys or list(DEFAULT_ORDER)
    unknown = [k for k in keys if k not in RUNNERS]
    if unknown:
        print(f"unknown experiment(s): {unknown}; choose from {sorted(RUNNERS)}")
        return 2
    runners = dict(RUNNERS)
    if any(v != parser.get_default(k) for k, v in vars(args).items() if k != "keys"):
        runners["fig4"] = lambda: (fig4.run(parser, args), "")[1]
    for key in keys:
        print(runners[key]())
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
