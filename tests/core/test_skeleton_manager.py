"""Tests for the pattern-specific managers (AM_F, AM_A, AM_P, AM_C, AM_W)."""

import pytest

from repro.core.behavioural import build_farm_bs, build_three_stage_pipeline
from repro.core.contracts import (
    BestEffortContract,
    MinThroughputContract,
    ParallelismDegreeContract,
    RateContract,
    ThroughputRangeContract,
)
from repro.core.events import Events, ViolationKind
from repro.core.manager import ManagerError, ManagerState
from repro.core.skeleton_manager import (
    FarmManager,
    PipelineManager,
    ProducerManager,
    WorkerManager,
)
from repro.gcm.abc_controller import FarmABC, ProducerABC
from repro.obs import SimClock, Telemetry
from repro.sim.engine import Simulator
from repro.sim.farm import SimFarm
from repro.sim.queues import Store
from repro.sim.resources import Node, ResourceManager, make_cluster
from repro.sim.workload import ConstantWork, TaskSource, finite_stream


from repro.core.manager import AutonomicManager


def AutonomicManagerStub(sim):
    """A minimal parent manager for passive-mode tests."""
    return AutonomicManager("parent", sim, autostart=False)


def farm_manager_setup(pool=10, control_period=10.0, setup_time=0.0, degree=2):
    sim = Simulator()
    rm = ResourceManager(make_cluster(pool))
    farm = SimFarm(sim, emitter_node=Node("e"), worker_setup_time=setup_time)
    abc = FarmABC(farm, rm)
    mgr = FarmManager(
        "AM_F",
        sim,
        abc,
        control_period=control_period,
        manage_workers=False,
        telemetry=Telemetry(SimClock(sim)),
    )
    if degree:
        abc.bootstrap(degree)
    return sim, farm, abc, mgr


class TestFarmManagerContracts:
    def test_range_contract_sets_thresholds(self):
        _, _, _, mgr = farm_manager_setup()
        mgr.assign_contract(ThroughputRangeContract(0.3, 0.7))
        assert mgr.constants.FARM_LOW_PERF_LEVEL == 0.3
        assert mgr.constants.FARM_HIGH_PERF_LEVEL == 0.7

    def test_min_contract_sets_thresholds(self):
        _, _, _, mgr = farm_manager_setup()
        mgr.assign_contract(MinThroughputContract(0.6))
        assert mgr.constants.FARM_LOW_PERF_LEVEL == 0.6
        assert mgr.constants.FARM_HIGH_PERF_LEVEL == float("inf")

    def test_best_effort_disables_thresholds(self):
        _, _, _, mgr = farm_manager_setup()
        mgr.assign_contract(BestEffortContract())
        assert mgr.constants.FARM_LOW_PERF_LEVEL == 0.0

    def test_unsupported_contract_rejected(self):
        _, _, _, mgr = farm_manager_setup()
        with pytest.raises(ManagerError):
            mgr.assign_contract(ParallelismDegreeContract(1, 4))

    def test_children_receive_best_effort(self):
        sim, farm, abc, mgr = farm_manager_setup()
        mgr.manage_workers = True
        mgr.spawn_worker_managers()
        mgr.assign_contract(MinThroughputContract(0.5))
        assert len(mgr.children) == 2
        assert all(isinstance(c.contract, BestEffortContract) for c in mgr.children)


class TestFarmManagerLoop:
    def test_starvation_raises_violation_and_goes_passive(self):
        sim, farm, abc, mgr = farm_manager_setup()
        parent = AutonomicManagerStub(sim)
        parent.add_child(mgr)
        mgr.assign_contract(ThroughputRangeContract(0.3, 0.7))
        # no input stream at all -> arrival 0 < 0.3
        sim.run(until=10.0)
        assert mgr.violations_raised
        assert mgr.violations_raised[0].kind == ViolationKind.NOT_ENOUGH_TASKS
        assert mgr.state is ManagerState.PASSIVE

    def test_starvation_on_root_manager_stays_active(self):
        sim, farm, abc, mgr = farm_manager_setup()
        mgr.assign_contract(ThroughputRangeContract(0.3, 0.7))
        sim.run(until=10.0)
        assert mgr.violations_raised
        assert mgr.state is ManagerState.ACTIVE
        assert mgr.unhandled_violations

    def test_passive_manager_keeps_reporting(self):
        sim, farm, abc, mgr = farm_manager_setup()
        mgr.assign_contract(ThroughputRangeContract(0.3, 0.7))
        sim.run(until=40.0)
        assert len(mgr.violations_raised) >= 3  # one per tick while starving

    def test_underperformance_adds_workers(self):
        sim, farm, abc, mgr = farm_manager_setup(degree=1)
        mgr.assign_contract(MinThroughputContract(0.6))
        TaskSource(sim, farm.input, rate=0.8, work_model=ConstantWork(5.0))
        sim.run(until=300.0)
        assert farm.num_workers >= 3  # needs >= 3 to reach 0.6 at 0.2/worker
        assert mgr.trace.count(Events.ADD_WORKER) >= 1
        snap = farm.force_snapshot()
        assert snap.departure_rate >= 0.55

    def test_overprovision_removes_workers(self):
        sim, farm, abc, mgr = farm_manager_setup(degree=6)
        mgr.assign_contract(ThroughputRangeContract(0.2, 0.4))
        TaskSource(sim, farm.input, rate=1.2, work_model=ConstantWork(1.0))
        sim.run(until=60.0)
        # departure would be 1.2 >> 0.4 with 6 fast workers: rule removes
        assert mgr.trace.count(Events.REMOVE_WORKER) >= 1
        assert farm.num_workers < 6

    def test_exhausted_pool_escalates(self):
        sim, farm, abc, mgr = farm_manager_setup(pool=2, degree=2)
        mgr.assign_contract(MinThroughputContract(0.9))
        TaskSource(sim, farm.input, rate=1.0, work_model=ConstantWork(5.0))
        sim.run(until=60.0)
        kinds = [v.kind for v in mgr.violations_raised]
        assert ViolationKind.NO_LOCAL_PLAN in kinds

    def test_blackout_skips_control_tick(self):
        sim, farm, abc, mgr = farm_manager_setup(setup_time=25.0, degree=0)
        abc.bootstrap(1)  # blackout until t=25
        mgr.assign_contract(ThroughputRangeContract(0.3, 0.7))
        sim.run(until=20.0)
        # two ticks elapsed inside blackout: no observation, no violation
        assert mgr.last_monitor is None
        assert mgr.violations_raised == []

    def test_rebalance_marked_when_effective(self):
        sim, farm, abc, mgr = farm_manager_setup(degree=2)
        mgr.assign_contract(ThroughputRangeContract(0.3, 0.7))
        # load one queue heavily so variance > FARM_MAX_UNBALANCE
        for t in finite_stream(12, ConstantWork(100.0)):
            farm.workers[0].queue.put_nowait(t)
        # arrival must be inside the stripe so only CheckLoadBalance fires:
        TaskSource(sim, farm.input, rate=0.5, work_model=ConstantWork(100.0))
        sim.run(until=10.5)
        assert mgr.trace.count(Events.REBALANCE) >= 1


class TestProducerManager:
    def _setup(self, max_rate=None):
        sim = Simulator()
        out = Store(sim)
        src = TaskSource(
            sim, out, rate=0.2, work_model=ConstantWork(1.0), max_rate=max_rate
        )
        mgr = ProducerManager("AM_P", sim, ProducerABC(src))
        return sim, src, mgr

    def test_rate_contract_applied(self):
        sim, src, mgr = self._setup()
        mgr.assign_contract(RateContract(0.5))
        assert src.rate == 0.5
        assert mgr.active

    def test_best_effort_keeps_configured_rate(self):
        sim, src, mgr = self._setup()
        mgr.assign_contract(BestEffortContract())
        assert src.rate == 0.2

    def test_unachievable_rate_reports_warning(self):
        sim, src, mgr = self._setup(max_rate=0.4)
        mgr.assign_contract(RateContract(1.0))
        assert src.rate == 0.4  # clamped: best locally achievable
        assert mgr.violations_raised
        v = mgr.violations_raised[0]
        assert v.kind == ViolationKind.CONTRACT_UNSATISFIABLE
        assert v.is_warning
        assert mgr.active  # warning: stays active

    def test_wrong_contract_type_rejected(self):
        sim, src, mgr = self._setup()
        with pytest.raises(ManagerError):
            mgr.assign_contract(MinThroughputContract(0.5))

    def test_current_rate(self):
        sim, src, mgr = self._setup()
        assert mgr.current_rate() == 0.2


class TestPipelineManagerPolicies:
    def _pipeline(self):
        sim = Simulator()
        rm = ResourceManager(make_cluster(12))
        app = build_three_stage_pipeline(
            sim,
            rm,
            work_model=ConstantWork(10.0),
            worker_work=10.0,
            initial_rate=0.2,
            max_rate=2.0,
            total_tasks=None,
            initial_degree=2,
            control_period=10.0,
            worker_setup_time=5.0,
        )
        return sim, app

    def test_contract_forwarded_to_stages(self):
        sim, app = self._pipeline()
        contract = ThroughputRangeContract(0.3, 0.7)
        app.assign_contract(contract)
        assert app.am_f.contract == contract
        assert app.am_c.contract == contract
        assert isinstance(app.am_p.contract, BestEffortContract)

    def test_not_enough_triggers_inc_rate(self):
        sim, app = self._pipeline()
        app.assign_contract(ThroughputRangeContract(0.3, 0.7))
        sim.run(until=60.0)
        assert app.trace.count(Events.INC_RATE, actor="AM_A") >= 1
        assert app.source.rate > 0.2

    def test_inc_rate_reactivates_farm_manager(self):
        sim, app = self._pipeline()
        app.assign_contract(ThroughputRangeContract(0.3, 0.7))
        sim.run(until=100.0)
        # the farm manager bounced passive->active at least once
        names = app.trace.event_names("AM_F")
        assert Events.GO_PASSIVE in names
        idx = names.index(Events.GO_PASSIVE)
        assert Events.GO_ACTIVE in names[idx:]

    def test_invalid_factors_rejected(self):
        sim = Simulator()
        with pytest.raises(ManagerError):
            PipelineManager("AM_A", sim, inc_factor=1.0)
        with pytest.raises(ManagerError):
            PipelineManager("AM_A", sim, dec_factor=1.5)

    def test_end_stream_stops_inc_rate(self):
        sim, app = self._pipeline()
        app.assign_contract(ThroughputRangeContract(0.3, 0.7))
        sim.run(until=30.0)
        rate_before = app.source.rate
        app.am_a.notify_end_of_stream()
        sim.run(until=200.0)
        # violations keep coming (farm starves as the stream dries) but
        # no further incRate is issued after endStream
        inc_events = app.trace.events_of("AM_A", Events.INC_RATE)
        assert all(e.time <= 40.0 for e in inc_events)
        assert app.trace.count(Events.END_STREAM, actor="AM_A") >= 1

    def test_escalation_of_no_local_plan(self):
        sim = Simulator()
        rm = ResourceManager(make_cluster(2))  # tiny pool: growth impossible
        app = build_three_stage_pipeline(
            sim,
            rm,
            work_model=ConstantWork(30.0),
            worker_work=30.0,
            initial_rate=0.5,
            max_rate=2.0,
            total_tasks=None,
            initial_degree=2,
            control_period=10.0,
            worker_setup_time=2.0,
        )
        app.assign_contract(ThroughputRangeContract(0.3, 0.7))
        sim.run(until=150.0)
        # farm wants workers, pool is empty -> noLocalPlan escalated to
        # AM_A, which (as root) records it as unhandled
        assert any(
            v.kind == ViolationKind.NO_LOCAL_PLAN for v in app.am_a.escalated
        )


class TestWorkerManager:
    def test_monitors_worker(self):
        sim, farm, abc, mgr = farm_manager_setup(degree=1)
        worker = farm.workers[0]
        wm = WorkerManager("AM_W0", sim, worker, control_period=10.0)
        wm.assign_contract(BestEffortContract())
        for t in finite_stream(3, ConstantWork(2.0)):
            farm.submit(t)
        sim.run(until=10.0)
        assert wm.last_monitor is not None
        assert wm.last_monitor["completed"] >= 1
        assert wm.contract_satisfied() is True


class TestModelBasedInitialDeployment:
    """§3's first listed policy: 'initial parallelism degree setup' —
    the cost model sizes the farm before the first control tick."""

    def _build(self, pool=16, target=0.6, worker_work=5.0):
        from repro.core.behavioural import build_farm_bs
        from repro.sim.resources import ResourceManager, make_cluster

        sim = Simulator()
        rm = ResourceManager(make_cluster(pool))
        bs = build_farm_bs(
            sim, rm, worker_work=worker_work, initial_degree=0,
            worker_setup_time=5.0, rate_window=20.0,
            constants_kwargs={"add_burst": 1, "max_workers": pool},
            spawn_worker_managers=False,
        )
        return sim, rm, bs

    def test_contract_triggers_optimal_deployment(self):
        sim, rm, bs = self._build()
        assert bs.farm.workers == []
        bs.assign_contract(MinThroughputContract(0.6))
        # 0.6 t/s at 0.2 t/s per worker -> exactly 3 workers immediately
        assert len(bs.farm.workers) == 3
        ev = bs.trace.first("addWorker")
        assert ev.detail.get("initial") is True
        assert ev.detail["count"] == 3

    def test_beats_ramp_up_to_contract(self):
        """Model-based deployment reaches the contract sooner than the
        ramp-from-one used in FIG3."""
        from repro.sim.workload import ConstantWork as CW, TaskSource as TS

        def time_to_contract(initial_degree):
            from repro.core.behavioural import build_farm_bs
            from repro.sim.resources import ResourceManager, make_cluster

            sim = Simulator()
            rm = ResourceManager(make_cluster(16))
            bs = build_farm_bs(
                sim, rm, worker_work=5.0, initial_degree=initial_degree,
                worker_setup_time=5.0, rate_window=20.0,
                constants_kwargs={"add_burst": 1, "max_workers": 16},
                spawn_worker_managers=False,
            )
            TS(sim, bs.farm.input, rate=0.8, work_model=CW(5.0))
            bs.assign_contract(MinThroughputContract(0.6))
            hit = []

            def probe():
                if not hit and bs.farm.force_snapshot().departure_rate >= 0.6:
                    hit.append(sim.now)

            sim.periodic(5.0, probe)
            sim.run(until=400.0)
            return hit[0] if hit else float("inf")

        assert time_to_contract(0) < time_to_contract(1)

    def test_pool_too_small_reports_violation(self):
        sim, rm, bs = self._build(pool=2, target=0.6)
        bs.assign_contract(MinThroughputContract(0.6))  # needs 3, pool has 2
        kinds = [v.kind for v in bs.manager.violations_raised]
        assert ViolationKind.NO_LOCAL_PLAN in kinds

    def test_no_redeployment_when_workers_exist(self):
        sim, rm, bs = self._build()
        bs.assign_contract(MinThroughputContract(0.6))
        assert len(bs.farm.workers) == 3
        # re-contracting must not stack another initial deployment
        bs.assign_contract(MinThroughputContract(0.6))
        assert len(bs.farm.workers) == 3

    def test_best_effort_contract_deploys_nothing(self):
        sim, rm, bs = self._build()
        bs.assign_contract(BestEffortContract())
        assert bs.farm.workers == []


class TestOneManagerTwoClocks:
    """What the DES side gained when the live controller became this class."""

    def test_failed_swap_leaves_old_contract_fully_in_force(self):
        """Mirror of the live lifecycle test: a composite with one
        uninterpretable part is rejected *before* any threshold (or
        ``manager.contract``) mutates — not half-applied up to the bad part."""
        from repro.core.contracts import CompositeContract

        _, _, _, mgr = farm_manager_setup()
        mgr.assign_contract(ThroughputRangeContract(2.0, 5.0))
        bad = CompositeContract([ThroughputRangeContract(7.0, 9.0), RateContract(5.0)])
        with pytest.raises(ManagerError):
            mgr.assign_contract(bad)
        assert mgr.constants.FARM_LOW_PERF_LEVEL == 2.0
        assert mgr.constants.FARM_HIGH_PERF_LEVEL == 5.0
        assert isinstance(mgr.contract, ThroughputRangeContract)

    def test_loop_keeps_ticking_after_rules_fire(self):
        """control_step() returns the fired rule names (the live tests
        read them) — and a PeriodicTask stops on a truthy return, so the
        DES loop must not hand that list back to it."""
        sim, _, _, mgr = farm_manager_setup(control_period=10.0)
        mgr.assign_contract(MinThroughputContract(0.5))  # starved: no source
        sim.run(until=15.0)
        assert mgr.engine.fired_names() == ["CheckInterArrivalRateLow"]  # tick 1 fired
        sim.run(until=35.0)
        assert mgr.trace.count(Events.NOT_ENOUGH, "AM_F") == 3  # ticks 2 and 3 ran
        assert not mgr._loop.cancelled
