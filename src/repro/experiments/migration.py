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

from ..core.behavioural import FarmBS, build_farm_bs
from ..core.contracts import MinThroughputContract
from ..obs.events import TraceRecorder
from ..sim.engine import Simulator
from ..sim.resources import ResourceManager, make_cluster
from ..sim.workload import ConstantWork, TaskSource

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
    sim = Simulator()
    trace = TraceRecorder()
    rm = ResourceManager(make_cluster(cfg.pool_size))

    bs = build_farm_bs(
        sim,
        rm,
        name="farm",
        worker_work=cfg.worker_work,
        initial_degree=cfg.initial_degree,
        trace=trace,
        control_period=cfg.control_period,
        worker_setup_time=cfg.worker_setup_time,
        rate_window=cfg.rate_window,
        constants_kwargs={"add_burst": 1, "max_workers": cfg.pool_size},
        spawn_worker_managers=False,
        policy=policy,
    )
    TaskSource(
        sim,
        bs.farm.input,
        rate=cfg.input_rate,
        work_model=ConstantWork(cfg.worker_work),
        name="stream",
    )
    bs.assign_contract(MinThroughputContract(cfg.target_throughput))

    for w in bs.farm.workers:
        w.node.load_schedule.set_load(cfg.spike_time, cfg.spike_load)

    def sample() -> None:
        snap = bs.farm.force_snapshot()
        trace.sample("throughput", sim.now, snap.departure_rate)
        trace.sample("workers", sim.now, snap.num_workers)

    sim.periodic(cfg.control_period / 2.0, sample, name="sampler")
    sim.run(until=cfg.duration)

    snap = bs.farm.force_snapshot()
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
