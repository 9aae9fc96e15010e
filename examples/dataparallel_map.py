#!/usr/bin/env python3
"""Data-parallel map under the same autonomic manager as the farm.

Section 3 models both the task farm and data-parallel computation as
variants of one functional-replication behavioural skeleton.  This
example proves the claim operationally: a :class:`SimMap` (scatter →
compute → reduce) is driven by the *identical* ``FarmABC`` +
``FarmManager`` + Figure 5 rules that manage the task farm — zero new
policy code — and the manager widens the map until the contract holds.

Run:  python examples/dataparallel_map.py
"""

from repro.core import MinThroughputContract, build_map_bs
from repro.obs.export import ascii_series
from repro.sim import ResourceManager, Simulator, make_cluster
from repro.sim.resources import Node
from repro.sim.workload import ConstantWork, TaskSource


def main() -> None:
    sim = Simulator()
    pool = ResourceManager(make_cluster(16, prefix="mapnode"))

    # Each "task" is a data collection needing 10 s of total work; the
    # map scatters it across however many workers it currently has.  The
    # builder wires the FARM manager stack over the map mechanism — the
    # paper's point that both are one functional-replication BS.
    bs = build_map_bs(
        sim,
        pool,
        name="dpmap",
        initial_degree=1,
        emitter_node=Node("frontend"),
        scatter_overhead=0.05,
        gather_overhead=0.05,
        worker_setup_time=5.0,
        rate_window=20.0,
    )
    smap, manager = bs.farm, bs.manager

    TaskSource(sim, smap.input, rate=0.5, work_model=ConstantWork(10.0), name="collections")
    bs.assign_contract(MinThroughputContract(0.4))

    trace = manager.trace

    def sample() -> None:
        snap = smap.force_snapshot()
        trace.sample("throughput", sim.now, snap.departure_rate)
        trace.sample("workers", sim.now, snap.num_workers)

    sim.periodic(5.0, sample)
    sim.run(until=400.0)

    print(
        ascii_series(
            trace.series_values("throughput"),
            hlines=[0.4],
            title="collections/s (contract >= 0.4) — map widened autonomically",
            height=10,
        )
    )
    snap = smap.force_snapshot()
    print(f"final width     : {snap.num_workers} workers (started at 1)")
    print(f"throughput      : {snap.departure_rate:.2f} collections/s")
    print(f"contract met    : {manager.contract_satisfied()}")
    print(f"manager actions : {[e.name for e in trace.events_of('AM_dpmap') if e.name == 'addWorker']}")


if __name__ == "__main__":
    main()
