"""Experiment EXT-LOAD — adaptation to external load on the worker cores.

"Autonomic adaptation has also been achieved in the case of additional
(external) load upon the cores used for the computation of the BS
application.  In this case, overloaded workers […] began to deliver
fewer results than expected and the manager reacted by adding workers to
the farm." (§4.2)

We reproduce this on the single-farm BS: the farm runs in contract, then
at ``spike_time`` an external load step hits a fraction of the worker
nodes; their effective speed drops, throughput falls below the contract,
and the Figure 5 ``CheckRateLow`` rule adds workers until the contract
is re-established.

Expected shape: throughput dip at the spike, a burst of addWorker
actions, and recovery back above the contract level — with strictly more
workers than before the spike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..core.behavioural import FarmBS
from ..obs.events import TraceRecorder
from .fig3 import run_sampled, single_farm

__all__ = ["LoadSpikeConfig", "LoadSpikeResult", "run_loadspike"]


@dataclass
class LoadSpikeConfig:
    target_throughput: float = 0.6
    worker_rate: float = 0.2
    input_rate: float = 0.8          # matches initial capacity: no warm-up growth
    initial_degree: int = 4          # comfortably in contract at start
    pool_size: int = 20
    spike_time: float = 200.0
    spike_load: float = 0.6          # loaded nodes keep 40% of their speed
    spiked_fraction: float = 1.0     # fraction of *initial* workers hit
    duration: float = 600.0
    control_period: float = 10.0
    worker_setup_time: float = 5.0
    rate_window: float = 20.0

    @property
    def worker_work(self) -> float:
        return 1.0 / self.worker_rate


@dataclass
class LoadSpikeResult:
    config: LoadSpikeConfig
    trace: TraceRecorder
    bs: FarmBS
    workers_before: int
    workers_after: int
    throughput_before: float
    throughput_dip: float
    throughput_after: float
    spiked_nodes: List[str] = field(default_factory=list)

    @property
    def adapted(self) -> bool:
        """The manager added capacity and restored the contract."""
        return (
            self.workers_after > self.workers_before
            and self.throughput_after >= self.config.target_throughput * 0.9
        )

    @property
    def dip_visible(self) -> bool:
        return self.throughput_dip < self.throughput_before * 0.95


def run_loadspike(config: Optional[LoadSpikeConfig] = None) -> LoadSpikeResult:
    cfg = config or LoadSpikeConfig()
    sim, trace, _, bs = single_farm(cfg, add_burst=1)

    # inject the external load step on a fraction of the initial workers
    initial_nodes = [w.node for w in bs.farm.workers]
    n_spiked = max(1, int(len(initial_nodes) * cfg.spiked_fraction))
    spiked = initial_nodes[:n_spiked]
    for node in spiked:
        node.load_schedule.set_load(cfg.spike_time, cfg.spike_load)

    run_sampled(sim, trace, bs, period=cfg.control_period / 2.0, until=cfg.duration)

    thr = trace.series_values("throughput")
    before = trace.value_at("throughput", cfg.spike_time - 1.0) or 0.0
    dip = min(
        (v for t, v in thr if cfg.spike_time < t <= cfg.spike_time + 120.0),
        default=before,
    )
    return LoadSpikeResult(
        config=cfg,
        trace=trace,
        bs=bs,
        workers_before=int(trace.value_at("workers", cfg.spike_time - 1.0) or 0.0),
        workers_after=int(trace.final_value("workers") or 0.0),
        throughput_before=before,
        throughput_dip=dip,
        throughput_after=trace.final_value("throughput") or 0.0,
        spiked_nodes=[n.name for n in spiked],
    )
