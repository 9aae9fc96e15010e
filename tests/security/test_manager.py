"""Tests for the security manager: reactive securing and intent review."""

import pytest

from repro.core.contracts import MinThroughputContract, SecurityContract
from repro.core.events import Events
from repro.gcm.abc_controller import FarmABC
from repro.obs import SimClock, Telemetry
from repro.rules.beans import ManagerOperation
from repro.security.domains import SecurityPolicy
from repro.security.manager import SecurityABC, SecurityManager
from repro.sim.engine import Simulator
from repro.sim.farm import SimFarm
from repro.sim.network import Network
from repro.sim.resources import Domain, Node, ResourceManager
from repro.sim.workload import ConstantWork, finite_stream

LAN = Domain("lan", trusted=True)
WAN = Domain("wan", trusted=False)


def setup(sec_period=15.0):
    sim = Simulator()
    network = Network()
    rm = ResourceManager(
        [Node("t0", domain=LAN), Node("u0", domain=WAN), Node("u1", domain=WAN)]
    )
    farm = SimFarm(
        sim, emitter_node=Node("e", domain=LAN), network=network, worker_setup_time=0.0
    )
    fabc = FarmABC(farm, rm)
    policy = SecurityPolicy()
    sec_abc = SecurityABC([fabc], network, policy)
    mgr = SecurityManager(
        "AM_sec", sim, sec_abc, control_period=sec_period, telemetry=Telemetry(SimClock(sim))
    )
    return sim, farm, fabc, sec_abc, mgr, network


class TestSecurityABC:
    def test_no_exposure_initially(self):
        sim, farm, fabc, sec_abc, mgr, net = setup()
        fabc.bootstrap(1)  # trusted node preferred
        assert sec_abc.exposed_workers() == []
        assert sec_abc.monitor()["insecure_untrusted_workers"] == 0

    def test_detects_exposed_worker(self):
        sim, farm, fabc, sec_abc, mgr, net = setup()
        fabc.bootstrap(2)  # t0 + u0 (unsecured!)
        exposed = sec_abc.exposed_workers()
        assert len(exposed) == 1
        assert exposed[0].node.name == "u0"

    def test_secure_channel_closes_exposure(self):
        sim, farm, fabc, sec_abc, mgr, net = setup()
        fabc.bootstrap(2)
        assert sec_abc.execute(ManagerOperation.SECURE_CHANNEL)
        assert sec_abc.exposed_workers() == []
        assert sec_abc.secured_actions == 1

    def test_unsupported_op(self):
        sim, farm, fabc, sec_abc, mgr, net = setup()
        with pytest.raises(ValueError):
            sec_abc.execute(ManagerOperation.ADD_EXECUTOR)


class TestSecurityManagerLoop:
    def test_requires_security_contract(self):
        sim, farm, fabc, sec_abc, mgr, net = setup()
        with pytest.raises(ValueError):
            mgr.assign_contract(MinThroughputContract(0.5))

    def test_reactively_secures_exposed_worker(self):
        sim, farm, fabc, sec_abc, mgr, net = setup(sec_period=15.0)
        mgr.assign_contract(SecurityContract())
        fabc.bootstrap(2)  # exposes u0
        sim.run(until=14.0)
        assert len(sec_abc.exposed_workers()) == 1  # window still open
        sim.run(until=16.0)
        assert sec_abc.exposed_workers() == []  # first tick closed it
        assert mgr.trace.count(Events.SECURE_WORKER) == 1

    def test_contract_satisfied_after_securing(self):
        sim, farm, fabc, sec_abc, mgr, net = setup()
        mgr.assign_contract(SecurityContract())
        fabc.bootstrap(2)
        sim.run(until=30.0)
        assert mgr.contract_satisfied() is True

    def test_leak_counter_in_monitor(self):
        sim, farm, fabc, sec_abc, mgr, net = setup()
        mgr.assign_contract(SecurityContract())
        fabc.bootstrap(3)  # t0, u0, u1 all unsecured except none
        for t in finite_stream(6, ConstantWork(0.1)):
            farm.submit(t)
        sim.run(until=5.0)
        data = sec_abc.monitor()
        assert data["leak_count"] > 0

    def test_trust_revocation_detected(self):
        """Revoking a domain's trust mid-run exposes its workers."""
        sim, farm, fabc, sec_abc, mgr, net = setup()
        mgr.assign_contract(SecurityContract())
        fabc.bootstrap(1)  # trusted t0 only
        sim.run(until=20.0)
        assert sec_abc.exposed_workers() == []
        sec_abc.policy.registry.set_trust("lan", False)
        assert len(sec_abc.exposed_workers()) == 1
        sim.run(until=40.0)  # next tick secures it
        assert sec_abc.exposed_workers() == []


class TestIntentReview:
    def test_amends_untrusted_nodes_only(self):
        sim, farm, fabc, sec_abc, mgr, net = setup()
        plan = fabc.plan_add_workers(3)  # t0, u0, u1
        assert mgr.review_intent(None, plan) is True
        secured = plan.secured
        assert secured.get("u0") and secured.get("u1")
        assert "t0" not in secured

    def test_never_vetoes(self):
        sim, farm, fabc, sec_abc, mgr, net = setup()
        plan = fabc.plan_add_workers(1)
        assert mgr.review_intent(None, plan) is True
