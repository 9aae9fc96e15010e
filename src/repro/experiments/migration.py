"""Experiment MIGRATE — migration vs growth as the recovery policy.

Section 3 lists two distinct performance-AM policies for degraded
service: "adaptation of parallelism degree" (add workers — the Figure 5
rule) and "migration of poorly performing activities to faster execution
resources".  This experiment pits them against each other on the
EXT-LOAD scenario: worker nodes lose most of their speed to an external
tenant while fresh, unloaded nodes sit in the pool.

* **standard** policy — the manager adds workers next to the degraded
  ones, recovering throughput by brute capacity (degraded nodes keep
  occupying slots).
* **migration-first** policy — the manager *moves* its slowest workers
  onto the fresh nodes, recovering with the *same* parallelism degree
  and fewer total nodes consumed.

Expected shape: both policies restore the contract; migration ends with
fewer (or equal) workers and strictly fewer allocated nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.behavioural import FarmBS
from ..obs.events import TraceRecorder
from .fig3 import run_sampled, single_farm

__all__ = ["MigrationConfig", "MigrationOutcome", "MigrationResult", "run_migration"]


@dataclass
class MigrationConfig:
    target_throughput: float = 0.6
    worker_rate: float = 0.2
    input_rate: float = 0.8
    initial_degree: int = 4
    pool_size: int = 20
    spike_time: float = 200.0
    spike_load: float = 0.7          # loaded nodes keep 30% of their speed
    duration: float = 700.0
    control_period: float = 10.0
    worker_setup_time: float = 5.0
    rate_window: float = 20.0

    @property
    def worker_work(self) -> float:
        return 1.0 / self.worker_rate


@dataclass
class MigrationOutcome:
    """One policy's end state."""

    policy: str
    trace: TraceRecorder
    bs: FarmBS
    final_workers: int
    nodes_allocated: int
    final_throughput: float
    migrations: int
    additions: int

    @property
    def recovered(self) -> bool:
        return self.final_throughput >= 0.9 * 0.6  # vs the default target


@dataclass
class MigrationResult:
    config: MigrationConfig
    standard: MigrationOutcome
    migration_first: MigrationOutcome

    @property
    def migration_uses_fewer_nodes(self) -> bool:
        return self.migration_first.nodes_allocated < self.standard.nodes_allocated

    @property
    def both_recover(self) -> bool:
        return self.standard.recovered and self.migration_first.recovered


def _run_policy(policy: str, cfg: MigrationConfig) -> MigrationOutcome:
    sim, trace, rm, bs = single_farm(cfg, add_burst=1, policy=policy)
    for w in bs.farm.workers:
        w.node.load_schedule.set_load(cfg.spike_time, cfg.spike_load)
    snap = run_sampled(sim, trace, bs, period=cfg.control_period / 2.0, until=cfg.duration)
    return MigrationOutcome(
        policy=policy,
        trace=trace,
        bs=bs,
        final_workers=snap.num_workers,
        nodes_allocated=rm.allocated_count,
        final_throughput=snap.departure_rate,
        migrations=trace.count("migrateWorker"),
        additions=trace.count("addWorker"),
    )


def run_migration(config: Optional[MigrationConfig] = None) -> MigrationResult:
    cfg = config or MigrationConfig()
    return MigrationResult(
        config=cfg,
        standard=_run_policy("standard", cfg),
        migration_first=_run_policy("migration-first", cfg),
    )
