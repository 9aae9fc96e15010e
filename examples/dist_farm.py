#!/usr/bin/env python3
"""The distributed farm — same rules, workers across a TCP boundary.

``process_farm_crashes.py`` already showed crash recovery, but its
workers still share a host and a multiprocessing pipe with the manager.
The :class:`~repro.runtime.DistFarm` coordinator speaks a small framed
protocol over TCP instead (:mod:`repro.runtime.dist_proto`), which buys
two things:

* the fault model gains the *network* failure a real deployment meets —
  this example severs a worker's connection mid-stream (the worker
  process itself is perfectly healthy) and shows the same replay +
  ``CheckRateLow`` recovery chain;
* workers need not be children of the coordinator at all.  While this
  example runs, it prints the exact ``python -m repro.runtime.dist_worker``
  command that would attach one more worker from any machine that can
  reach the coordinator's port.

One constraint travels with the wire: the task function crosses the
boundary *by name* (``module:qualname``), so it must be importable on
the worker's side — here we reuse the library's ``live_task``.

Run:  python examples/dist_farm.py
"""

import time

from repro.core import MinThroughputContract
from repro.runtime import DistFarm, FarmController

# payload for live_task is (seconds_of_work, value); result is value**2
TASK_FN = "repro.experiments.fig4_live:live_task"
WORK = 0.02


def main() -> None:
    farm = DistFarm(
        TASK_FN,
        initial_workers=3,
        name="dfarm",
        heartbeat_period=0.05,
        heartbeat_timeout=0.5,
        supervise_period=0.02,
        backoff_base=0.02,
        backoff_cap=0.2,
        rate_window=0.5,
    )
    print(f"coordinator listening on {farm.port}; attach more workers with:")
    print(
        f"  python -m repro.runtime.dist_worker "
        f"--host <coordinator-ip> --port {farm.port} --fn {TASK_FN}"
    )
    print()

    # three workers at 20 ms/task sustain ~150 tasks/s; demand 110 so the
    # contract holds — until the severed connection removes a third of it
    controller = FarmController(
        farm,
        MinThroughputContract(110.0),
        control_period=0.15,
        max_workers=6,
    )

    try:
        total = 400
        for i in range(total):
            farm.submit((WORK, i))
            if i == 120:
                # the rate window is full of steady-state throughput now,
                # so the contract reads as satisfied until the fault
                controller.start()
            if i == 180:
                victim = farm.drop_connection()  # cut the TCP link only
                print(f"[t={farm.now():5.2f}s] severed connection of worker {victim}")
            time.sleep(0.005)  # ~200 tasks/s arrival pressure

        results = farm.drain_results(total, timeout=120.0)
        controller.stop()

        snap = farm.snapshot()
        lost = total - len(set(results))
        print()
        print(f"tasks submitted : {total}")
        print(f"results received: {len(results)}  (lost: {lost})")
        print(f"final workers   : {snap.num_workers} (started at 3)")
        print(f"throughput      : {snap.departure_rate:.1f} tasks/s")
        print()
        print("fault accounting:")
        for t, worker_id in farm.crashes:
            print(f"  t={t:5.2f}s  worker {worker_id} declared dead")
        print(f"  task dispatches replayed : {farm.replays}")
        print(f"  duplicate results dropped: {farm.duplicates}")
        print(f"  dead-lettered tasks      : {len(farm.dead_letters)}")
        print()
        print("controller actions (CheckRateLow restoring capacity):")
        for t, action in controller.actions:
            print(f"  t={t:5.2f}s  {action}")
        print()
        ok = lost == 0 and not farm.dead_letters
        print(f"zero loss       : {ok}")
    finally:
        controller.stop()
        farm.shutdown()


if __name__ == "__main__":
    main()
