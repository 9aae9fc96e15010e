"""Experiment FIG3 — single AM ensuring a 0.6 task/s contract (Figure 3).

"Figure 3 plots typical behaviour observed when using a single BS to
implement a medical image processing application.  The BS used here
implements a task farm.  Its autonomic manager takes care of performance
optimization/tuning.  The (user provided) contract specifies that 0.6
images per second be processed and the figure plots the initial set-up
of the task farm with the addition of more and more processing resources
up to the point where the contract is eventually satisfied." (§4.1)

We substitute the image-processing stream with a synthetic one whose
per-task work makes a single worker deliver ≈0.2 tasks/s (so the
contract needs ≥3 workers, plus headroom for dispatch dynamics), start
the farm at one worker, and let the Figure 5 rules ramp it up.

Expected shape: a monotone staircase of parallelism degree; throughput
crossing the 0.6 line and stabilising; no add/remove oscillation after
stabilisation.

FIG3 is the single-farm scenario with nothing added: EXT-LOAD, FAULT,
MIGRATE and the ablations build the same one through
:func:`single_farm` and :func:`run_sampled` and add their perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from ..core.behavioural import FarmBS, build_farm_bs
from ..core.contracts import Contract, MinThroughputContract
from ..obs.events import TraceRecorder
from ..sim.engine import Simulator
from ..sim.farm import FarmSnapshot
from ..sim.resources import ResourceManager, make_cluster
from ..sim.workload import ConstantWork, TaskSource

__all__ = [
    "Fig3Config",
    "Fig3Result",
    "run_fig3",
    "single_farm",
    "run_sampled",
    "first_time_reaching",
]


@dataclass
class Fig3Config:
    """Parameters of the FIG3 scenario."""

    target_throughput: float = 0.6   # the paper's 0.6 images/s SLA
    worker_rate: float = 0.2         # one worker's service rate (tasks/s)
    input_rate: float = 0.8          # stream pressure (must exceed target)
    initial_degree: int = 1
    pool_size: int = 16
    total_tasks: Optional[int] = None  # None = endless stream
    duration: float = 600.0
    control_period: float = 10.0
    worker_setup_time: float = 5.0
    rate_window: float = 20.0
    add_burst: int = 1               # Fig. 3 adds resources one at a time

    @property
    def worker_work(self) -> float:
        return 1.0 / self.worker_rate


@dataclass
class Fig3Result:
    """Outcome of one FIG3 run, with the figure's two series."""

    config: Fig3Config
    trace: TraceRecorder
    bs: FarmBS
    final_workers: int
    final_throughput: float
    time_to_contract: Optional[float]
    workers_series: List[Tuple[float, float]] = field(default_factory=list)
    throughput_series: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def contract_met(self) -> bool:
        return self.final_throughput >= self.config.target_throughput * 0.95

    @property
    def add_worker_times(self) -> List[float]:
        return [e.time for e in self.trace.events_of(name="addWorker")]

    @property
    def remove_worker_count(self) -> int:
        return self.trace.count("removeWorker")

    def staircase_is_monotone(self) -> bool:
        """Parallelism degree never decreases during the ramp."""
        values = [v for _, v in self.workers_series]
        return all(a <= b for a, b in zip(values, values[1:]))


def single_farm(
    cfg: Any,
    *,
    add_burst: int,
    name: str = "farm",
    total: Optional[int] = None,
    policy: str = "standard",
    contract: Optional[Contract] = None,
) -> Tuple[Simulator, TraceRecorder, ResourceManager, FarmBS]:
    """The §4 scenario every single-farm experiment perturbs.

    One farm BS on a ``cfg.pool_size`` cluster, fed a constant-work
    stream at ``cfg.input_rate`` (``total`` tasks, or endless), under
    ``contract`` — by default ``cfg.target_throughput`` as a
    :class:`MinThroughputContract`.  ``cfg`` is any config with
    :class:`Fig3Config`'s scenario fields.
    """
    sim = Simulator()
    trace = TraceRecorder()
    rm = ResourceManager(make_cluster(cfg.pool_size))
    bs = build_farm_bs(
        sim,
        rm,
        name=name,
        worker_work=cfg.worker_work,
        initial_degree=cfg.initial_degree,
        trace=trace,
        control_period=cfg.control_period,
        worker_setup_time=cfg.worker_setup_time,
        rate_window=cfg.rate_window,
        constants_kwargs={"add_burst": add_burst, "max_workers": cfg.pool_size},
        spawn_worker_managers=False,
        policy=policy,
    )
    TaskSource(
        sim,
        bs.farm.input,
        rate=cfg.input_rate,
        work_model=ConstantWork(cfg.worker_work),
        total=total,
        name="stream",
        on_end_of_stream=bs.farm.notify_end_of_stream,
    )
    if contract is None:
        contract = MinThroughputContract(cfg.target_throughput)
    bs.assign_contract(contract)
    return sim, trace, rm, bs


def run_sampled(
    sim: Simulator, trace: TraceRecorder, bs: FarmBS, *, period: float, until: float
) -> FarmSnapshot:
    """Sample the ``workers`` and ``throughput`` series every ``period``
    on a fixed grid, independent of the manager's own control loop, run
    to ``until`` and return the final snapshot."""

    def sample() -> None:
        snap = bs.farm.force_snapshot()
        trace.sample("workers", sim.now, snap.num_workers)
        trace.sample("throughput", sim.now, snap.departure_rate)

    sim.periodic(period, sample, name="sampler")
    sim.run(until=until)
    return bs.farm.force_snapshot()


def first_time_reaching(points: Sequence[Tuple[float, float]], level: float) -> Optional[float]:
    """Time of the first sample at or above ``level`` (None if never)."""
    return next((t for t, v in points if v >= level), None)


def run_fig3(config: Optional[Fig3Config] = None) -> Fig3Result:
    """Run the FIG3 scenario and return its trace and summary."""
    cfg = config or Fig3Config()
    sim, trace, _, bs = single_farm(
        cfg, add_burst=cfg.add_burst, name="imgfarm", total=cfg.total_tasks
    )
    snap = run_sampled(sim, trace, bs, period=cfg.control_period / 2.0, until=cfg.duration)
    throughput_series = trace.series_values("throughput")
    return Fig3Result(
        config=cfg,
        trace=trace,
        bs=bs,
        final_workers=snap.num_workers,
        final_throughput=snap.departure_rate,
        time_to_contract=first_time_reaching(throughput_series, cfg.target_throughput),
        workers_series=trace.series_values("workers"),
        throughput_series=throughput_series,
    )
