"""Live multi-concern coordination: GM + security over real backends.

The §3.2 story, asserted rather than narrated, on every wall-clock
substrate:

* a grow intent expressed by a performance manager routes through the
  :class:`~repro.core.multiconcern.GeneralManager`, the security
  manager amends it, and the commit runs quarantine → secure → admit —
  with the farm's own dispatch counters proving that **zero** tasks
  ever travelled to an unsecured worker;
* the naive ablation on the same pool leaks, measurably;
* a veto arriving mid-grow (trust revoked between two intents) kills
  the later intent cleanly: no worker appears, nodes are returned;
* a Hypothesis property drives arbitrary interleavings of grow /
  trust-revocation / reactive ticks through the GM and checks the
  committed-plan ⊆ secured-workers invariant after every step;
* the ``fig4 --with-security`` experiment completes its phase story
  end to end.
"""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.contracts import SecurityContract
from repro.core.multiconcern import CoordinationMode, GeneralManager
from repro.obs.telemetry import Telemetry
from repro.rules.beans import ManagerOperation
from repro.gcm.abc_controller import FarmABC
from repro.runtime.controller import WallTimeBase
from repro.runtime.dist_farm import DistFarm
from repro.runtime.farm_runtime import ThreadFarm
from repro.runtime.process_farm import ProcessFarm
from repro.security.domains import SecurityPolicy, TrustRegistry
from repro.security.manager import SecurityABC, SecurityManager
from repro.sim.resources import Domain, ResourceManager, make_cluster

pytestmark = pytest.mark.multiconcern

BACKENDS = ("thread", "process", "dist")

UNTRUSTED = Domain("untrusted_ip_domain_A", trusted=False)


def mc_task(payload):
    """Module-level so it crosses the process/TCP boundary by name."""
    work, value = payload
    if work:
        time.sleep(work)
    return value * value


def make_farm(backend, telemetry, *, initial_workers=2, max_workers=8):
    tuning = dict(
        heartbeat_period=0.05,
        heartbeat_timeout=0.5,
        supervise_period=0.02,
        backoff_base=0.02,
        backoff_cap=0.2,
    )
    if backend == "thread":
        return ThreadFarm(
            mc_task,
            initial_workers=initial_workers,
            max_workers=max_workers,
            rate_window=0.5,
            telemetry=telemetry,
        )
    if backend == "process":
        return ProcessFarm(
            mc_task,
            initial_workers=initial_workers,
            max_workers=max_workers,
            rate_window=0.5,
            telemetry=telemetry,
            **tuning,
        )
    if backend == "dist":
        return DistFarm(
            mc_task,
            initial_workers=initial_workers,
            max_workers=max_workers,
            rate_window=0.5,
            telemetry=telemetry,
            **tuning,
        )
    raise ValueError(backend)


class Originator:
    """Stands in for AM_perf when tests drive intents by hand: it grows
    through the farm ABC the latest :func:`build_coordination` made."""

    name = "AM_perf"
    abc = None
    sim = None


class Placement:
    """That ABC's node pool and worker → node map, as the tests read them."""

    def __init__(self, abc):
        self.abc = abc
        self.resources = abc.resources

    def bound(self):
        return {w.worker_id: node for w, node in self.abc.bindings()}


def make_security(abc, policy, **kwargs):
    """AM_sec over ``abc``'s farm, its MAPE ticks driven by hand."""
    security = SecurityManager(
        "AM_sec_live", WallTimeBase(abc.farm.now), SecurityABC([abc], None, policy),
        autostart=False, **kwargs,
    )
    security.assign_contract(SecurityContract())
    return security


def build_coordination(farm, telemetry, *, pool_size=8, veto_domains=(),
                       mode=CoordinationMode.TWO_PHASE, registry=None):
    pool = make_cluster(pool_size, prefix="u", domain=UNTRUSTED)
    abc = FarmABC(farm, ResourceManager(pool))
    Originator.abc, Originator.sim = abc, WallTimeBase(farm.now)
    policy = SecurityPolicy(registry) if registry is not None else SecurityPolicy()
    security = make_security(abc, policy, veto_domains=veto_domains, telemetry=telemetry)
    gm = GeneralManager(mode=mode, telemetry=telemetry)
    gm.register(security)
    return gm, security, Placement(abc)


def insecure_dispatches(telemetry, farm):
    return telemetry.metrics.counter(
        "repro_mc_insecure_dispatch_total", ""
    ).labels(farm=farm.name).value


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


class TestLiveGrowStory:
    def test_grow_secure_admit_zero_insecure_dispatch(self, backend):
        """The tentpole invariant on every backend: growth over untrusted
        nodes mid-stream, and not one task crosses an unsecured channel."""
        tel = Telemetry()
        farm = make_farm(backend, tel)
        try:
            farm.secure_all()
            gm, security, placement = build_coordination(farm, tel)
            total = 80
            for i in range(total):
                farm.submit((0.004, i))
                if i in (20, 45):
                    assert gm.execute_intent(
                        Originator(), ManagerOperation.ADD_EXECUTOR, {"count": 2}
                    )
            results = farm.drain_results(total, timeout=120.0)
            assert sorted(r for r in results if not isinstance(r, Exception)) == [
                i * i for i in range(total)
            ]
            assert insecure_dispatches(tel, farm) == 0
            assert farm.quarantined_workers == 0
            assert farm.num_workers == 6
            # every grown worker was amended to secure and ended secured
            assert sum(r.amendments for r in gm.intents) == 2
            for worker_id in placement.bound():
                w = next(w for w in farm.workers if w.worker_id == worker_id)
                assert w.secured
        finally:
            farm.shutdown()

    def test_naive_mode_leaks_on_thread(self):
        """The ablation: same pool, no intent protocol — the window
        between instantiation and (never-arriving) securing leaks."""
        tel = Telemetry()
        farm = make_farm("thread", tel)
        try:
            farm.secure_all()
            gm, security, _ = build_coordination(
                farm, tel, mode=CoordinationMode.NAIVE
            )
            total = 80
            for i in range(total):
                farm.submit((0.002, i))
                if i == 10:
                    assert gm.execute_intent(
                        Originator(), ManagerOperation.ADD_EXECUTOR, {"count": 3}
                    )
            farm.drain_results(total, timeout=60.0)
            assert insecure_dispatches(tel, farm) > 0
        finally:
            farm.shutdown()

    def test_controller_routes_intents_through_gm(self):
        """A FarmController registered with the GM grows via intents:
        its ADD_EXECUTOR actuations produce quarantine→secure→admit."""
        from repro.core.contracts import MinThroughputContract
        from repro.runtime.controller import FarmController

        tel = Telemetry()
        farm = make_farm("thread", tel, initial_workers=1)
        try:
            farm.secure_all()
            gm, security, placement = build_coordination(farm, tel)
            controller = FarmController(
                farm,
                MinThroughputContract(500.0),  # unreachable: always wants more
                control_period=0.05,
                max_workers=8,
                telemetry=tel,
                resources=placement.resources,
            )
            gm.register(controller, priority=0)
            assert controller.coordinator is gm
            for i in range(60):
                farm.submit((0.004, i))
                if i == 20:
                    controller.control_step()
            farm.drain_results(60, timeout=60.0)
            assert any("(intent)" in a for _, a in controller.actions)
            assert gm.outcomes().get("committed", 0) >= 1
            assert insecure_dispatches(tel, farm) == 0
        finally:
            farm.shutdown()


class TestVetoMidGrow:
    def test_trust_revocation_between_intents_vetoes_later_grow(self):
        """Deterministic regression: the first grow commits; trust of the
        pool's domain is then revoked and listed for veto; the second
        grow dies in review with no worker instantiated and its nodes
        returned to the pool."""
        tel = Telemetry()
        farm = make_farm("thread", tel, max_workers=12)
        try:
            farm.secure_all()
            registry = TrustRegistry()
            gm, security, placement = build_coordination(
                farm, tel, registry=registry,
                veto_domains=(UNTRUSTED.name,),
            )
            # while the domain is trusted (override), growth is clean
            registry.set_trust(UNTRUSTED.name, True)
            security_veto_free = make_security(
                placement.abc, SecurityPolicy(registry), telemetry=tel
            )
            gm_open = GeneralManager(telemetry=tel, name="GM_open")
            gm_open.register(security_veto_free)
            assert gm_open.execute_intent(
                Originator(), ManagerOperation.ADD_EXECUTOR, {"count": 2}
            )
            workers_before = farm.num_workers
            free_before = len(placement.resources.available())
            # mid-run revocation: the veto-configured manager now rejects
            assert not gm.execute_intent(
                Originator(), ManagerOperation.ADD_EXECUTOR, {"count": 2}
            )
            assert gm.outcomes() == {"vetoed": 1}
            assert security.vetoes == 1
            assert farm.num_workers == workers_before
            assert farm.quarantined_workers == 0
            # the vetoed plan's nodes went back to the pool
            assert len(placement.resources.available()) == free_before
        finally:
            farm.shutdown()


# ----------------------------------------------------------------------
# Hypothesis: committed plan ⊆ secured workers under any interleaving
# ----------------------------------------------------------------------


class FakeWorker:
    def __init__(self, worker_id, secured, quarantined):
        self.worker_id = worker_id
        self.secured = secured
        self.quarantined = quarantined
        self.active = True
        self.retiring = False
        self.dispatched = 0


class FakeFarm:
    """Synchronous in-memory FarmBackend surface for property tests.

    Implements exactly the slice of the protocol the GM and security
    manager touch, so Hypothesis can run thousands of interleavings
    without threads or sockets.
    """

    name = "fake"

    def __init__(self, initial_workers=1, max_workers=64):
        self.workers = []
        self.max_workers = max_workers
        self._next_id = 0
        self._clock = 0.0
        for _ in range(initial_workers):
            self.add_worker(secured=True)

    def now(self):
        self._clock += 0.001
        return self._clock

    def add_worker(self, *, secured=False, quarantined=False):
        if sum(1 for w in self.workers if w.active) >= self.max_workers:
            raise RuntimeError("worker limit reached")
        w = FakeWorker(self._next_id, secured, quarantined)
        self._next_id += 1
        self.workers.append(w)
        return w

    def secure_worker(self, worker_id):
        for w in self.workers:
            if w.worker_id == worker_id and w.active:
                w.secured = True
                return True
        return False

    def admit_worker(self, worker_id):
        for w in self.workers:
            if w.worker_id == worker_id and w.active:
                w.quarantined = False
                return True
        return False

    @property
    def num_workers(self):
        return sum(1 for w in self.workers if w.active and not w.quarantined)

    @property
    def quarantined_workers(self):
        return sum(1 for w in self.workers if w.active and w.quarantined)

    def dispatch_round(self):
        """One round-robin sweep over the admitted workers."""
        for w in self.workers:
            if w.active and not w.quarantined:
                w.dispatched += 1


OPS = st.lists(
    st.sampled_from(["grow", "grow2", "revoke", "restore", "tick", "dispatch"]),
    min_size=1,
    max_size=30,
)


class TestIntentInterleavingProperty:
    @given(ops=OPS)
    @settings(max_examples=60, deadline=None)
    def test_committed_workers_are_secured_under_any_interleaving(self, ops):
        """Whatever order grow intents, trust flips, reactive ticks and
        dispatch rounds arrive in, every worker the GM ever admitted is
        secured, and no quarantined worker is ever dispatched to."""
        farm = FakeFarm()
        registry = TrustRegistry()
        gm, security, placement = build_coordination(
            farm, None, pool_size=64, registry=registry
        )
        origin = Originator()
        admitted_ids = set()
        for op in ops:
            if op == "grow":
                gm.execute_intent(origin, ManagerOperation.ADD_EXECUTOR, {"count": 1})
            elif op == "grow2":
                gm.execute_intent(origin, ManagerOperation.ADD_EXECUTOR, {"count": 2})
            elif op == "revoke":
                registry.set_trust(UNTRUSTED.name, False)
            elif op == "restore":
                registry.set_trust(UNTRUSTED.name, True)
            elif op == "tick":
                security.control_step()
            elif op == "dispatch":
                farm.dispatch_round()
            # the invariant holds after EVERY step, not just at the end
            for w in farm.workers:
                if w.quarantined:
                    assert w.dispatched == 0
            admitted_ids |= {
                w.worker_id
                for w in farm.workers
                if w.active and not w.quarantined and w.worker_id in placement.bound()
            }
        # every worker the GM committed through the gate ended secured:
        # amendments run against live trust, so a worker admitted while
        # the domain was *trusted* may legitimately be unsecured — but
        # then a reactive tick under revoked trust must close it, which
        # is what the final sweep asserts
        registry.set_trust(UNTRUSTED.name, False)
        security.control_step()
        for w in farm.workers:
            if w.worker_id in admitted_ids and w.active:
                assert w.secured, f"admitted worker {w.worker_id} left unsecured"


class TestFig4SecurityAcceptance:
    @pytest.fixture()
    def quick_cfg(self):
        from repro.experiments.fig4_live import Fig4LiveConfig

        return Fig4LiveConfig(
            backend="dist",
            with_security=True,
            total_tasks=80,
            starve_duration=0.4,
            crash_after=30,
            feed_rate=80.0,
            max_workers=6,
        )

    def test_fig4_dist_with_security_completes_the_story(self, quick_cfg):
        """ISSUE acceptance: the dist fig4 security story ends with zero
        tasks lost and zero insecure dispatches, straight from the
        repro_mc_* metrics."""
        from repro.experiments.fig4_live import run_fig4_live

        tel = Telemetry()
        r = run_fig4_live(quick_cfg, telemetry=tel)
        assert r.zero_loss()
        assert r.insecure_dispatches == 0
        assert (
            tel.metrics.counter("repro_mc_insecure_dispatch_total", "")
            .labels(farm="fig4-dist").value == 0
        )
        assert r.mc_committed >= 1
        assert r.mc_admitted >= 1
        assert r.quarantined_at_end == 0
        assert r.security_story_ok()

    def test_fig4_cli_with_security_on_thread(self, capsys):
        from repro.experiments.fig4 import main as fig4_main

        assert fig4_main(["--backend", "thread", "--with-security"]) == 0
        out = capsys.readouterr().out
        assert "security story holds" in out
        assert "insecure dispatches" in out

    def test_fig4_cli_rejects_security_on_sim(self):
        from repro.experiments.fig4 import main as fig4_main

        with pytest.raises(SystemExit):
            fig4_main(["--with-security"])
