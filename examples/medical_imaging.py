#!/usr/bin/env python3
"""The paper's Figure 3 application: medical image processing at 0.6 img/s.

A stream of "images" (synthetic tasks sized so one worker sustains 0.2
images/s) flows through a task-farm behavioural skeleton whose manager
holds the user SLA "0.6 images per second".  The run regenerates the
ramp-up plot of the paper's Figure 3, including a mid-stream *hot spot*
(a stretch of images that are 3x harder to process — §4.1's "temporary
hot spots in image processing") to show the manager compensating.

Run:  python examples/medical_imaging.py
"""

from repro.core import MinThroughputContract, build_farm_bs
from repro.obs.events import TraceRecorder
from repro.obs.export import ascii_series
from repro.sim import ResourceManager, Simulator, make_cluster
from repro.sim.workload import ConstantWork, HotSpotWork, TaskSource

TARGET = 0.6          # images per second (the paper's SLA)
IMAGE_WORK = 5.0      # seconds of processing per image on one node
HOT_SPOT = (120, 160) # image indices that are 3x harder


def main() -> None:
    sim = Simulator()
    trace = TraceRecorder()
    pool = ResourceManager(make_cluster(16, prefix="imgnode"))

    bs = build_farm_bs(
        sim,
        pool,
        name="imgfarm",
        worker_work=IMAGE_WORK,
        initial_degree=1,
        trace=trace,
        control_period=10.0,
        constants_kwargs={"add_burst": 1, "max_workers": 16},
    )

    work = HotSpotWork(ConstantWork(IMAGE_WORK), *HOT_SPOT, factor=3.0)
    TaskSource(sim, bs.farm.input, rate=0.8, work_model=work, name="scanner")

    bs.assign_contract(MinThroughputContract(TARGET))

    def sample() -> None:
        snap = bs.farm.force_snapshot()
        trace.sample("throughput", sim.now, snap.departure_rate)
        trace.sample("workers", sim.now, snap.num_workers)

    sim.periodic(5.0, sample)
    sim.run(until=700.0)

    print(
        ascii_series(
            trace.series_values("throughput"),
            hlines=[TARGET],
            title=f"images/s processed (contract: >= {TARGET}) — hot spot at "
            f"images {HOT_SPOT[0]}-{HOT_SPOT[1]}",
            height=12,
        )
    )
    print(ascii_series(trace.series_values("workers"), title="workers allocated", height=8))

    adds = trace.events_of(name="addWorker")
    print(f"worker additions: {[round(e.time, 1) for e in adds]}")
    snap = bs.farm.force_snapshot()
    print(f"final: {snap.num_workers} workers, {snap.departure_rate:.2f} img/s, "
          f"{snap.completed} images processed")


if __name__ == "__main__":
    main()
