"""Experiment STAGE-FARM — autonomic stage-to-farm transformation (§4.2).

The scenario the paper sketches but does not implement: a *sequential*
pipeline stage becomes the bottleneck (here, the consumer's node loses
most of its speed to an external load), so no amount of farm-side
reconfiguration can restore the pipeline's contract.  The stage manager
detects it is saturated-yet-below-contract and reports
``contractUnsatisfiable``; the pipeline manager answers by transforming
the stage into a farm of stage-instances, after which the contract is
re-established.

Expected shape: throughput collapse at the load spike; a ``farmStage``
event at AM_A; recovery above the contract with the stage now running as
a farm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.adaptation import install_stage_promotion
from ..core.behavioural import PipelineApp, build_three_stage_pipeline
from ..core.contracts import ThroughputRangeContract
from ..core.events import Events
from ..obs.events import TraceRecorder
from ..sim.engine import Simulator
from ..sim.resources import ResourceManager, make_cluster
from ..sim.workload import ConstantWork

__all__ = ["StageFarmConfig", "StageFarmResult", "run_stagefarm"]


@dataclass
class StageFarmConfig:
    contract_low: float = 0.3
    contract_high: float = 0.7
    producer_rate: float = 0.5         # inside the stripe from the start
    worker_work: float = 6.0           # 3 workers sustain 0.5 tasks/s
    consumer_work: float = 1.0         # consumer fine at full speed (1 t/s)
    consumer_load: float = 0.8         # ...until it keeps only 20%
    spike_time: float = 150.0
    farm_degree: int = 4               # stage instances after promotion
    initial_degree: int = 3
    pool_size: int = 20
    duration: float = 700.0
    control_period: float = 10.0
    worker_setup_time: float = 5.0
    rate_window: float = 20.0


@dataclass
class StageFarmResult:
    config: StageFarmConfig
    trace: TraceRecorder
    app: PipelineApp
    promoted: bool
    promotion_time: Optional[float]
    throughput_before: float
    throughput_dip: float
    throughput_after: float
    stage_farm_workers: int

    @property
    def recovered(self) -> bool:
        return (
            self.promoted
            and self.throughput_after >= self.config.contract_low * 0.95
        )

    @property
    def dip_visible(self) -> bool:
        return self.throughput_dip < self.config.contract_low


def run_stagefarm(config: Optional[StageFarmConfig] = None) -> StageFarmResult:
    cfg = config or StageFarmConfig()
    sim = Simulator()
    trace = TraceRecorder()
    rm = ResourceManager(make_cluster(cfg.pool_size))

    app = build_three_stage_pipeline(
        sim,
        rm,
        work_model=ConstantWork(cfg.worker_work),
        worker_work=cfg.worker_work,
        initial_rate=cfg.producer_rate,
        max_rate=cfg.producer_rate,   # producer is not the story here
        total_tasks=None,
        initial_degree=cfg.initial_degree,
        consumer_work=cfg.consumer_work,
        control_period=cfg.control_period,
        worker_setup_time=cfg.worker_setup_time,
        rate_window=cfg.rate_window,
        trace=trace,
    )

    promoted_farms: List = []
    install_stage_promotion(
        app.am_a,
        app.am_c,
        rm,
        degree=cfg.farm_degree,
        worker_setup_time=cfg.worker_setup_time,
        on_promoted=lambda farm, mgr: promoted_farms.append((farm, mgr)),
    )

    app.assign_contract(ThroughputRangeContract(cfg.contract_low, cfg.contract_high))

    # the consumer's core gets hammered by an external tenant
    app.consumer_stage.node.load_schedule.set_load(cfg.spike_time, cfg.consumer_load)

    def sample() -> None:
        trace.sample("pipeline_throughput", sim.now, app.pipeline.throughput())

    sim.periodic(cfg.control_period / 2.0, sample, name="sampler")
    sim.run(until=cfg.duration)

    thr = trace.series_values("pipeline_throughput")

    promo_ev = trace.first(Events.FARM_STAGE, actor="AM_A")
    dip_window_end = promo_ev.time + 30.0 if promo_ev else cfg.duration
    dip = min(
        (v for t, v in thr if cfg.spike_time < t <= dip_window_end),
        default=trace.value_at("pipeline_throughput", cfg.spike_time) or 0.0,
    )

    return StageFarmResult(
        config=cfg,
        trace=trace,
        app=app,
        promoted=promo_ev is not None,
        promotion_time=promo_ev.time if promo_ev else None,
        throughput_before=trace.value_at("pipeline_throughput", cfg.spike_time - 1.0) or 0.0,
        throughput_dip=dip,
        throughput_after=thr[-1][1] if thr else 0.0,
        stage_farm_workers=(
            promoted_farms[0][0].num_workers if promoted_farms else 0
        ),
    )
