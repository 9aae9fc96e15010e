"""Experiment FAULT — autonomic reaction to worker crashes.

Fault tolerance is one of the paper's canonical non-functional concerns
(§2 lists it alongside performance and security; the evaluation does not
measure it).  The behavioural-skeleton machinery handles it for free:

* the **mechanism** recovers the *tasks* — a crashed worker's in-flight
  task is replayed and its queue migrates to survivors (at-least-once);
* the **manager** recovers the *capacity* — the lost worker drops the
  measured departure rate below the contract, so Figure 5's
  ``CheckRateLow`` fires and a replacement is recruited; no
  fault-specific rule is needed.

The experiment crashes ``n_crashes`` workers at fixed times and checks
that (a) no task is ever lost, and (b) throughput returns to contract
after each crash.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.behavioural import FarmBS
from ..obs.events import TraceRecorder
from .fig3 import run_sampled, single_farm

__all__ = ["FaultConfig", "FaultResult", "run_faults"]


@dataclass
class FaultConfig:
    target_throughput: float = 0.6
    worker_rate: float = 0.2
    input_rate: float = 0.7
    initial_degree: int = 4
    pool_size: int = 20
    crash_times: Tuple[float, ...] = (150.0, 300.0)
    crashes_per_event: int = 2   # deep enough to breach the contract even
                                 # after warm-up over-provisioning
    total_tasks: int = 300
    duration: float = 900.0
    control_period: float = 10.0
    worker_setup_time: float = 5.0
    rate_window: float = 20.0

    @property
    def worker_work(self) -> float:
        return 1.0 / self.worker_rate


@dataclass
class FaultResult:
    config: FaultConfig
    trace: TraceRecorder
    bs: FarmBS
    crashes: int
    recovered_tasks: int
    completed: int
    final_throughput: float
    replacements: int
    live_throughput_after_recovery: float = 0.0

    @property
    def no_task_lost(self) -> bool:
        return self.completed == self.config.total_tasks

    @property
    def capacity_recovered(self) -> bool:
        """The manager re-recruited and restored contract-level service.

        Replacements may be fewer than crashes: the manager restores the
        *contract*, not the headcount — warm-up over-provisioning absorbs
        part of the loss.
        """
        return self.replacements > 0 and self.live_throughput_after_recovery >= (
            self.config.target_throughput * 0.9
        )


def run_faults(config: Optional[FaultConfig] = None) -> FaultResult:
    cfg = config or FaultConfig()
    sim, trace, _, bs = single_farm(cfg, add_burst=1, total=cfg.total_tasks)

    recovered = [0]

    def crash() -> None:
        for _ in range(cfg.crashes_per_event):
            live = [w for w in bs.farm.workers if w.active]
            if not live:
                return
            victim = live[0]  # the longest-serving worker
            n = bs.farm.fail_worker(victim)
            recovered[0] += n
            trace.mark(sim.now, "chaos", "workerCrash", worker=victim.name, recovered=n)

    for t in cfg.crash_times:
        sim.schedule_at(t, crash)

    snap = run_sampled(sim, trace, bs, period=cfg.control_period / 2.0, until=cfg.duration)
    crash_times = [e.time for e in trace.events_of("chaos", "workerCrash")]
    post_crash_adds = [
        e.time
        for e in trace.events_of(name="addWorker")
        if crash_times and e.time > min(crash_times)
    ]
    # throughput after the last crash's recovery but before the stream
    # drained (≈ total_tasks / input_rate)
    stream_end = cfg.total_tasks / cfg.input_rate
    window_lo = (max(crash_times) if crash_times else 0.0) + 60.0
    live_points = [
        v
        for t, v in trace.series_values("throughput")
        if window_lo <= t <= stream_end
    ]
    live_recovered = max(live_points) if live_points else 0.0

    return FaultResult(
        config=cfg,
        trace=trace,
        bs=bs,
        crashes=bs.farm.failures,
        recovered_tasks=recovered[0],
        completed=bs.farm.completed,
        final_throughput=snap.departure_rate,
        replacements=len(post_crash_adds),
        live_throughput_after_recovery=live_recovered,
    )
