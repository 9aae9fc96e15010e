#!/usr/bin/env python3
"""The paper's nested tree: farm(pipeline(seq, seq)) under one manager.

Section 3.1's canonical composition is a farm whose workers are
pipelines.  Here each farm executor is a two-stage pipeline replica
(pre-process 2 s, then filter 5 s), so adding an "executor" recruits two
nodes at once.  The unchanged farm manager and Figure 5 rules grow the
replica count until the throughput contract holds — behavioural-skeleton
composition at work.

Run:  python examples/nested_skeletons.py
"""

from repro.core import MinThroughputContract
from repro.core.skeleton_manager import FarmManager
from repro.gcm.abc_controller import FarmABC
from repro.obs.export import ascii_series
from repro.sim import ResourceManager, SimFarmOfPipelines, Simulator, make_cluster
from repro.sim.workload import ConstantWork, TaskSource
from repro.skeletons import Farm, Pipe, Seq, throughput

STAGE_WORKS = [2.0, 5.0]  # pre-process, filter


def main() -> None:
    sim = Simulator()
    pool = ResourceManager(make_cluster(24, prefix="node"))

    fp = SimFarmOfPipelines(
        sim,
        name="nested",
        stage_works=STAGE_WORKS,
        replica_setup_time=5.0,
        rate_window=20.0,
    )
    abc = FarmABC(fp, pool, nodes_per_executor=len(STAGE_WORKS))
    abc.bootstrap(1)
    manager = FarmManager("AM_nest", sim, abc, control_period=10.0, manage_workers=False)

    TaskSource(sim, fp.input, rate=0.8, work_model=ConstantWork(1.0), name="stream")
    manager.assign_contract(MinThroughputContract(0.6))

    # the analytic prediction from the skeleton cost model
    def predicted(replicas: int) -> float:
        return throughput(Farm(Pipe(*[Seq(w) for w in STAGE_WORKS]), degree=replicas))

    delivered = []

    def sample() -> None:
        delivered.append((sim.now, fp.force_snapshot().departure_rate))

    sim.periodic(5.0, sample)
    sim.run(until=400.0)

    print(
        ascii_series(
            delivered,
            hlines=[0.6],
            title="tasks/s through farm(pipe(seq(2), seq(5))) — contract 0.6",
            height=10,
        )
    )
    snap = fp.force_snapshot()
    n = snap.num_workers
    print(f"replicas        : {n} (each = 2 nodes; {len(abc.nodes_in_use)} nodes in use)")
    print(f"throughput      : {snap.departure_rate:.2f} tasks/s")
    print(f"cost model says : {predicted(n):.2f} tasks/s at {n} replicas "
          f"(slowest stage {max(STAGE_WORKS):g}s)")
    print(f"contract met    : {manager.contract_satisfied()}")


if __name__ == "__main__":
    main()
