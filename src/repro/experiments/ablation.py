"""Experiment ABL-RULES — sensitivity of the control loop's design knobs.

DESIGN.md calls out two design choices inherited from the paper that
deserve ablation:

* the **control period** — "The control loop itself invokes the JBoss
  rule engine periodically" (§4.1), but the paper never justifies the
  period.  Too long and the manager reacts sluggishly (time-to-contract
  grows); too short and it overreacts to noisy windowed rates
  (over-provisioning, oscillation).
* the **hysteresis width** — the gap between ``FARM_LOW_PERF_LEVEL`` and
  ``FARM_HIGH_PERF_LEVEL``.  A degenerate width (low == high) makes the
  add/remove rule pair oscillate; the paper's 0.3–0.7 stripe is wide.

Both sweeps run the FIG3 scenario with one knob varied, reporting
time-to-contract, final parallelism degree, and the number of
reconfigurations (adds + removes — the oscillation measure).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from ..core.contracts import ThroughputRangeContract
from .fig3 import Fig3Config, Fig3Result, first_time_reaching, run_fig3, run_sampled, single_farm

__all__ = [
    "AblationRow",
    "sweep_control_period",
    "sweep_hysteresis",
    "compare_initial_deployment",
]


@dataclass
class AblationRow:
    """One sweep point's outcome."""

    knob: str
    value: float
    time_to_contract: Optional[float]
    final_workers: int
    final_throughput: float
    adds: int
    removes: int

    @property
    def reconfigurations(self) -> int:
        return self.adds + self.removes


def sweep_control_period(
    periods: Sequence[float] = (2.0, 5.0, 10.0, 20.0, 40.0),
    base: Optional[Fig3Config] = None,
) -> List[AblationRow]:
    """Run FIG3 once per control period."""
    rows = []
    for period in periods:
        cfg = replace(base or Fig3Config(), control_period=period)
        r = run_fig3(cfg)
        rows.append(_row("control_period", period, r))
    return rows


def sweep_hysteresis(
    widths: Sequence[float] = (0.0, 0.1, 0.2, 0.4, 0.8),
    *,
    center: float = 0.6,
    duration: float = 600.0,
) -> List[AblationRow]:
    """Run a range-contract farm with varying stripe widths around 0.6.

    Width 0 is the degenerate low==high contract; the add/remove pair
    then chatters whenever the measured rate crosses the line.
    """
    rows = []
    for width in widths:
        low = max(0.05, center - width / 2.0)
        high = center + width / 2.0
        rows.append(_run_hysteresis_case(width, low, high, duration))
    return rows


def compare_initial_deployment(
    base: Optional[Fig3Config] = None,
) -> List[AblationRow]:
    """§3's "initial parallelism degree setup" vs the ramp-from-one.

    ``initial_degree=1`` reproduces FIG3's staircase; ``initial_degree=0``
    lets the manager deploy the cost model's optimal degree the moment the
    contract arrives — the paper's claim that the degree "can be initially
    set to some 'optimal' value and then adapted".
    """
    rows = []
    for label, degree in (("ramp-from-1", 1), ("model-initial", 0)):
        cfg = replace(base or Fig3Config(), initial_degree=degree)
        r = run_fig3(cfg)
        row = _row("initial_deployment", degree, r)
        row.knob = label
        rows.append(row)
    return rows


def _run_hysteresis_case(width: float, low: float, high: float, duration: float) -> AblationRow:
    # pressure above the stripe keeps the farm loaded
    cfg = Fig3Config(input_rate=high + 0.2, pool_size=24, duration=duration)
    sim, trace, _, bs = single_farm(cfg, add_burst=1, contract=ThroughputRangeContract(low, high))
    snap = run_sampled(sim, trace, bs, period=cfg.control_period / 2.0, until=duration)
    return AblationRow(
        knob="hysteresis_width",
        value=width,
        time_to_contract=first_time_reaching(trace.series_values("throughput"), low),
        final_workers=snap.num_workers,
        final_throughput=snap.departure_rate,
        adds=trace.count("addWorker"),
        removes=trace.count("removeWorker"),
    )


def _row(knob: str, value: float, r: Fig3Result) -> AblationRow:
    return AblationRow(
        knob=knob,
        value=value,
        time_to_contract=r.time_to_contract,
        final_workers=r.final_workers,
        final_throughput=r.final_throughput,
        adds=len(r.add_worker_times),
        removes=r.remove_worker_count,
    )
