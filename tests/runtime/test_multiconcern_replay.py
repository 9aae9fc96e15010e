"""One intent protocol, two clocks: the multi-concern decision differential.

The same :class:`~repro.core.multiconcern.GeneralManager` and
:class:`~repro.security.manager.SecurityManager` classes run one
scripted sequence twice — over a ``SimFarm``/``FarmABC`` under the
``Simulator``, and over a ``ThreadFarm``/``LiveFarmABC`` under a
``WallTimeBase``:

1. grow 2 over untrusted nodes (AM_sec amends the plan to secure them);
2. grow 1 onto a node whose domain the trust registry vouches for (no
   amendment);
3. revoke that domain's trust outright (``veto_domains``);
4. grow 1 onto the revoked domain (AM_sec vetoes).

Both clocks must record the same ``(outcome, amendments, reviewers)``
per intent, the same ``mc.intent`` attributes, and the same secured
worker → node bindings.  ``test_decision_replay.py`` holds the
performance manager to the same standard.
"""

from repro.core.manager import AutonomicManager
from repro.core.multiconcern import GeneralManager
from repro.gcm.abc_controller import FarmABC
from repro.obs.telemetry import Telemetry
from repro.rules.beans import ManagerOperation
from repro.runtime.controller import LiveFarmABC, WallTimeBase
from repro.runtime.farm_runtime import ThreadFarm
from repro.security.domains import SecurityPolicy, TrustRegistry
from repro.security.manager import SecurityABC, SecurityManager
from repro.sim.engine import Simulator
from repro.sim.farm import SimFarm
from repro.sim.resources import Domain, Node, ResourceManager, make_cluster

EDGE = Domain("edge", trusted=False)
PARTNER = Domain("partner", trusted=False)


def pool():
    return ResourceManager(
        make_cluster(2, prefix="edge", domain=EDGE)
        + make_cluster(2, prefix="partner", domain=PARTNER)
    )


def run_script(clock, abc):
    """Drive the scripted sequence; returns what both clocks must agree on."""
    registry = TrustRegistry()
    registry.set_trust(PARTNER.name, True)
    tel = Telemetry()
    security = SecurityManager(
        "AM_sec", clock, SecurityABC([abc], None, SecurityPolicy(registry)),
        telemetry=tel, autostart=False,
    )
    perf = AutonomicManager("AM_perf", clock, abc=abc, autostart=False)
    gm = GeneralManager(telemetry=tel)
    gm.register(security)
    gm.register(perf)

    def grow(count):
        return gm.execute_intent(perf, ManagerOperation.ADD_EXECUTOR, {"count": count})

    assert grow(2)
    assert grow(1)
    registry.set_trust(PARTNER.name, False)
    security.veto_domains = frozenset({PARTNER.name})
    assert not grow(1)
    return (
        [(r.outcome, r.amendments, r.reviewers) for r in gm.intents],
        [(s.actor, s.attributes) for s in tel.spans.spans if s.name == "mc.intent"],
        sorted((node.name, w.secured) for w, node in abc.bindings()),
        len(abc.resources.available()),
        (security.amendments, security.vetoes),
    )


def test_sim_and_live_decide_the_same_intents():
    sim = Simulator()
    farm = SimFarm(sim, emitter_node=Node("frontend"), worker_setup_time=0.0)
    on_sim = run_script(sim, FarmABC(farm, pool()))

    live = ThreadFarm(lambda x: x, initial_workers=1, max_workers=8)
    try:
        on_live = run_script(WallTimeBase(live.now), LiveFarmABC(live, pool()))
    finally:
        live.shutdown()

    assert on_sim == on_live
    records, intents, bindings, free, counts = on_live
    assert records == [
        ("committed", 1, ("AM_sec",)),
        ("committed", 0, ("AM_sec",)),
        ("vetoed", 0, ("AM_sec",)),
    ]
    assert [(actor, i["outcome"]) for actor, i in intents] == [
        ("GM", "committed"), ("GM", "committed"), ("GM", "vetoed"),
    ]
    assert bindings == [("edge-0", True), ("edge-1", True), ("partner-0", False)]
    assert free == 1  # the vetoed plan's node went back to the pool
    assert counts == (2, 1)
