#!/usr/bin/env python3
"""Live multi-concern coordination — grow, quarantine, secure, admit.

``multiconcern_security.py`` shows the two-phase intent protocol in the
discrete-event simulator.  This example runs the same protocol on a
*live* substrate: a thread farm whose admission gate holds every new
worker in quarantine until the security manager's amendment has been
honoured.  The script

* grows the farm through the :class:`GeneralManager` the simulator uses,
  planning on the :class:`FarmABC` the simulated farms use — each
  reserved node sits in an untrusted domain, so the registered
  :class:`SecurityManager` (on a wall-clock :class:`WallTimeBase`)
  amends the plan and the commit step
  secures every channel *before* admission;
* proves the gate from the farm's own dispatch counters: zero tasks
  ever travelled to an unsecured worker;
* replays the same growth in ``naive`` coordination mode, where workers
  are admitted immediately and the insecure-dispatch counter measures
  the leak window the paper warns about (§3.2);
* shows a veto: when a domain's trust is revoked outright, a grow
  intent reserving its nodes dies in review and no worker appears.

With ``--serve-telemetry`` the two-phase episode additionally exposes
its telemetry live over HTTP (``/metrics``, ``/traces``,
``/trace/<id>``, ``/healthz``) and pauses at the end so you can point
``curl`` at the intent/commit trace while the store is still warm.

Run:  python examples/multiconcern_live.py [--serve-telemetry [PORT]]
"""

import sys
import time

from repro.core.multiconcern import CoordinationMode, GeneralManager
from repro.gcm.abc_controller import FarmABC
from repro.obs import Telemetry
from repro.rules.beans import ManagerOperation
from repro.runtime import ThreadFarm
from repro.runtime.controller import WallTimeBase
from repro.security import SecurityABC, SecurityManager, SecurityPolicy
from repro.sim.resources import Domain, ResourceManager, make_cluster


def render_image(task_id: int) -> int:
    """Stand-in for a blocking processing step (~5 ms each)."""
    time.sleep(0.005)
    return task_id * task_id


class Orchestrator:
    """Stands in for AM_perf: something that *wants* more workers, grown
    through ``abc`` on the farm's clock."""

    name = "AM_perf"

    def __init__(self, abc: FarmABC) -> None:
        self.abc = abc
        self.sim = WallTimeBase(abc.farm.now)


def coordinate(farm, pool, mode=CoordinationMode.TWO_PHASE, telemetry=None,
               veto_domains=()):
    """The GM with AM_sec registered, and AM_perf's stand-in: both grow
    and watch ``farm`` through one ABC over ``pool``."""
    abc = FarmABC(farm, ResourceManager(pool))
    security = SecurityManager(
        "AM_sec", WallTimeBase(farm.now), SecurityABC([abc], None, SecurityPolicy()),
        veto_domains=veto_domains, telemetry=telemetry, autostart=False,
    )
    gm = GeneralManager(mode=mode, telemetry=telemetry)
    gm.register(security)
    return gm, Orchestrator(abc)


def run_mode(mode: CoordinationMode, serve_port: int = None) -> tuple:
    """One growth episode under ``mode``; returns (insecure, total) dispatches."""
    tel = Telemetry()
    server = None
    if serve_port is not None:
        server = tel.serve(port=serve_port)
        print(f"  live telemetry on http://{server.host}:{server.port} "
              "(/metrics, /traces, /trace/<id>, /healthz)")
    farm = ThreadFarm(render_image, initial_workers=2, max_workers=12,
                      name=f"farm-{mode.value}", telemetry=tel)
    farm.secure_all()  # the bootstrap workers' channels are already safe
    pool = make_cluster(8, prefix="u", domain=Domain("edge", trusted=False))
    gm, orchestrator = coordinate(farm, pool, mode, telemetry=tel)

    # interleave feeding with growth so the gate is exercised mid-stream
    total = 120
    for i in range(total):
        farm.submit(i)
        if i in (30, 60):
            gm.execute_intent(orchestrator, ManagerOperation.ADD_EXECUTOR,
                              {"count": 2})
        time.sleep(0.001)
    results = farm.drain_results(total, timeout=30.0)
    assert sorted(results) == sorted(i * i for i in range(total))
    final_workers = farm.num_workers
    farm.shutdown()

    metrics = tel.metrics
    insecure = metrics.counter("repro_mc_insecure_dispatch_total", "") \
        .labels(farm=farm.name).value
    dispatched = metrics.counter("repro_mc_dispatch_total", "") \
        .labels(farm=farm.name).value
    print(f"  {mode.value:9s}: {gm.outcomes()} -> {final_workers} workers, "
          f"{insecure:.0f}/{dispatched:.0f} dispatches insecure")
    if server is not None:
        try:
            input("  telemetry still being served — press Enter to continue...")
        except EOFError:
            pass
        server.close()
    return insecure, dispatched


def main() -> None:
    serve_port = None
    if "--serve-telemetry" in sys.argv[1:]:
        rest = [a for a in sys.argv[1:] if a != "--serve-telemetry"]
        serve_port = int(rest[0]) if rest else 0
    print("=== MC-LIVE: two-phase intent protocol on the thread farm ===")
    print()
    print("growth over untrusted nodes, 120 tasks in flight:")
    secure_leaks, _ = run_mode(CoordinationMode.TWO_PHASE, serve_port=serve_port)
    naive_leaks, _ = run_mode(CoordinationMode.NAIVE)
    print()
    print(f"two-phase leak window: {secure_leaks:.0f} tasks "
          f"(quarantine -> secure -> admit closes it)")
    print(f"naive leak window    : {naive_leaks:.0f} tasks "
          f"(admitted before securing)")
    assert secure_leaks == 0

    # --- the veto: revoked trust kills the intent in review -------------
    farm = ThreadFarm(render_image, initial_workers=1, max_workers=4, name="farm-veto")
    farm.secure_all()
    pool = make_cluster(4, prefix="x", domain=Domain("revoked", trusted=False))
    gm, orchestrator = coordinate(farm, pool, veto_domains=("revoked",))
    ok = gm.execute_intent(orchestrator, ManagerOperation.ADD_EXECUTOR, {"count": 2})
    print()
    print(f"veto of a revoked domain: intent ok={ok}, outcomes={gm.outcomes()}, "
          f"workers still {farm.num_workers}")
    assert not ok and farm.num_workers == 1
    farm.shutdown()
    print()
    print("no task ever reached an unsecured worker under two-phase commit")


if __name__ == "__main__":
    main()
