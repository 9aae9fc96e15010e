"""Tests for the ABC controllers: monitoring, actuators, plan/commit."""

import pytest

from repro.gcm.abc_controller import ABCError, FarmABC, ProducerABC, StageABC
from repro.rules.beans import ManagerOperation
from repro.sim.engine import Simulator
from repro.sim.farm import SimFarm
from repro.sim.pipeline import SeqStage
from repro.sim.queues import Store
from repro.sim.resources import Node, ResourceManager, make_cluster
from repro.sim.workload import ConstantWork, TaskSource, finite_stream


def farm_setup(n_pool=6, setup_time=0.0):
    sim = Simulator()
    nodes = make_cluster(n_pool)
    rm = ResourceManager(nodes)
    emitter = Node("emitter")
    farm = SimFarm(sim, emitter_node=emitter, worker_setup_time=setup_time)
    abc = FarmABC(farm, rm)
    return sim, farm, rm, abc


class TestFarmABCMonitoring:
    def test_monitor_fields(self):
        sim, farm, rm, abc = farm_setup()
        abc.bootstrap(2)
        data = abc.monitor()
        assert data["num_workers"] == 2
        for key in (
            "arrival_rate",
            "departure_rate",
            "queue_variance",
            "utilization",
            "completed",
            "pending",
            "end_of_stream",
        ):
            assert key in data

    def test_monitor_none_during_blackout(self):
        sim, farm, rm, abc = farm_setup(setup_time=5.0)
        abc.bootstrap(1)
        assert abc.monitor() is None
        sim.run(until=6.0)
        assert abc.monitor() is not None

    def test_nodes_in_use_tracking(self):
        sim, farm, rm, abc = farm_setup()
        abc.bootstrap(3)
        assert len(abc.nodes_in_use) == 3
        abc.execute(ManagerOperation.REMOVE_EXECUTOR)
        assert len(abc.nodes_in_use) == 2


class TestFarmABCActuators:
    def test_add_executor(self):
        sim, farm, rm, abc = farm_setup()
        abc.bootstrap(1)
        assert abc.execute(ManagerOperation.ADD_EXECUTOR)
        assert farm.num_workers == 2
        assert rm.allocated_count == 2

    def test_add_executor_with_count(self):
        sim, farm, rm, abc = farm_setup()
        abc.bootstrap(1)
        assert abc.execute(ManagerOperation.ADD_EXECUTOR, {"count": 2})
        assert farm.num_workers == 3

    def test_add_executor_fails_without_resources(self):
        sim, farm, rm, abc = farm_setup(n_pool=1)
        abc.bootstrap(1)
        assert not abc.execute(ManagerOperation.ADD_EXECUTOR)
        assert farm.num_workers == 1

    def test_remove_executor_releases_node(self):
        sim, farm, rm, abc = farm_setup()
        abc.bootstrap(2)
        assert abc.execute(ManagerOperation.REMOVE_EXECUTOR)
        assert farm.num_workers == 1
        assert rm.allocated_count == 1

    def test_remove_last_executor_refused(self):
        sim, farm, rm, abc = farm_setup()
        abc.bootstrap(1)
        assert not abc.execute(ManagerOperation.REMOVE_EXECUTOR)

    def test_balance_load(self):
        sim, farm, rm, abc = farm_setup()
        abc.bootstrap(2)
        for t in finite_stream(10, ConstantWork(100.0)):
            farm.workers[0].queue.put_nowait(t)
        assert abc.execute(ManagerOperation.BALANCE_LOAD)
        lens = [len(w.queue) for w in farm.workers]
        assert max(lens) - min(lens) <= 1

    def test_secure_channel_all(self):
        sim, farm, rm, abc = farm_setup()
        abc.bootstrap(2)
        assert abc.execute(ManagerOperation.SECURE_CHANNEL)
        assert all(w.secured for w in farm.workers)

    def test_secure_channel_single_worker(self):
        sim, farm, rm, abc = farm_setup()
        abc.bootstrap(2)
        target = farm.workers[0]
        assert abc.execute(ManagerOperation.SECURE_CHANNEL, target)
        assert target.secured
        assert not farm.workers[1].secured

    def test_unknown_op_rejected(self):
        sim, farm, rm, abc = farm_setup()
        with pytest.raises(ABCError):
            abc.execute(ManagerOperation.SET_RATE, 1.0)

    def test_supported_operations(self):
        _, _, _, abc = farm_setup()
        ops = abc.supported_operations()
        assert ManagerOperation.ADD_EXECUTOR in ops
        assert abc.can_execute(ManagerOperation.BALANCE_LOAD)
        assert not abc.can_execute(ManagerOperation.SET_RATE)


class TestPlanCommitAbort:
    def test_plan_reserves_nodes(self):
        sim, farm, rm, abc = farm_setup()
        plan = abc.plan_add_workers(2)
        assert plan is not None
        assert len(plan.nodes) == 2
        assert rm.allocated_count == 2
        assert farm.num_workers == 0  # nothing instantiated yet

    def test_commit_instantiates(self):
        sim, farm, rm, abc = farm_setup()
        plan = abc.plan_add_workers(2)
        workers = abc.commit_plan(plan)
        assert len(workers) == 2
        assert farm.num_workers == 2
        assert plan.committed

    def test_abort_releases(self):
        sim, farm, rm, abc = farm_setup()
        plan = abc.plan_add_workers(2)
        abc.abort_plan(plan)
        assert rm.allocated_count == 0
        assert plan.aborted

    def test_double_commit_rejected(self):
        sim, farm, rm, abc = farm_setup()
        plan = abc.plan_add_workers(1)
        abc.commit_plan(plan)
        with pytest.raises(ABCError):
            abc.commit_plan(plan)
        with pytest.raises(ABCError):
            abc.abort_plan(plan)

    def test_plan_none_when_pool_exhausted(self):
        sim, farm, rm, abc = farm_setup(n_pool=1)
        abc.bootstrap(1)
        assert abc.plan_add_workers(1) is None

    def test_require_secure_applies_at_commit(self):
        sim, farm, rm, abc = farm_setup()
        plan = abc.plan_add_workers(2)
        plan.require_secure(plan.nodes[0])
        workers = abc.commit_plan(plan)
        secured = {w.node.name: w.secured for w in workers}
        assert secured[plan.nodes[0].name] is True
        assert secured[plan.nodes[1].name] is False


class TestProducerABC:
    def _producer(self, max_rate=None):
        sim = Simulator()
        out = Store(sim)
        src = TaskSource(
            sim, out, rate=0.5, work_model=ConstantWork(1.0), total=100, max_rate=max_rate
        )
        return sim, src, ProducerABC(src)

    def test_monitor(self):
        sim, src, abc = self._producer()
        data = abc.monitor()
        assert data["rate"] == 0.5
        assert data["emitted"] == 0
        assert data["finished"] is False

    def test_set_rate(self):
        sim, src, abc = self._producer()
        assert abc.execute(ManagerOperation.SET_RATE, 2.0)
        assert src.rate == 2.0
        assert abc.execute(ManagerOperation.SET_RATE, {"rate": 3.0})
        assert src.rate == 3.0

    def test_set_rate_at_physical_limit_reports_failure(self):
        sim, src, abc = self._producer(max_rate=1.0)
        assert not abc.execute(ManagerOperation.SET_RATE, 5.0)
        assert src.rate == 1.0

    def test_bad_data_rejected(self):
        sim, src, abc = self._producer()
        with pytest.raises(ABCError):
            abc.execute(ManagerOperation.SET_RATE, "fast")

    def test_unsupported_op(self):
        sim, src, abc = self._producer()
        with pytest.raises(ABCError):
            abc.execute(ManagerOperation.ADD_EXECUTOR)


class TestStageABC:
    def test_monitor_only(self):
        sim = Simulator()
        stage = SeqStage(
            sim,
            name="s",
            node=Node("n"),
            input_store=Store(sim),
            output_store=None,
            service_work=1.0,
        )
        abc = StageABC(stage)
        data = abc.monitor()
        assert data["completed"] == 0
        assert abc.supported_operations() == frozenset()
        with pytest.raises(ABCError):
            abc.execute(ManagerOperation.BALANCE_LOAD)


class TestNodesPerExecutor:
    def test_validation(self):
        sim, farm, rm, _ = farm_setup()
        with pytest.raises(ABCError):
            FarmABC(farm, rm, nodes_per_executor=0)

    def test_plan_reserves_group_per_executor(self):
        sim, farm, rm, _ = farm_setup(n_pool=6)
        abc = FarmABC(farm, rm, nodes_per_executor=3)
        plan = abc.plan_add_workers(2)
        assert plan is not None
        assert len(plan.nodes) == 6

    def test_plan_fails_when_group_unavailable(self):
        sim, farm, rm, _ = farm_setup(n_pool=2)
        abc = FarmABC(farm, rm, nodes_per_executor=3)
        assert abc.plan_add_workers(1) is None
