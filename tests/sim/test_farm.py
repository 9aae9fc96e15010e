"""Tests for the simulated task farm: dispatch, actuators, monitoring."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.farm import DispatchPolicy, SimFarm
from repro.sim.network import Network
from repro.sim.resources import Domain, Node, make_cluster
from repro.sim.workload import ConstantWork, TaskSource, finite_stream


def build_farm(sim, n_workers=2, *, work=1.0, setup=0.0, dispatch=DispatchPolicy.ROUND_ROBIN, network=None):
    nodes = make_cluster(n_workers + 1)
    farm = SimFarm(
        sim,
        name="farm",
        emitter_node=nodes[0],
        network=network,
        dispatch=dispatch,
        worker_setup_time=setup,
    )
    for n in nodes[1:]:
        farm.add_worker(n)
    return farm


class TestBasicFlow:
    def test_all_tasks_complete(self):
        sim = Simulator()
        farm = build_farm(sim, n_workers=3)
        for t in finite_stream(30, ConstantWork(1.0)):
            farm.submit(t)
        sim.run()
        assert farm.completed == 30
        assert farm.pending == 0
        assert len(farm.output) == 30

    def test_results_carry_timing(self):
        sim = Simulator()
        farm = build_farm(sim, n_workers=1)
        for t in finite_stream(3, ConstantWork(2.0)):
            farm.submit(t)
        sim.run()
        done = farm.output.peek_items()
        assert all(t.completed_at is not None for t in done)
        assert all(t.started_at is not None for t in done)

    def test_throughput_scales_with_workers(self):
        """Twice the workers -> roughly half the makespan (farm model)."""
        def makespan(n):
            sim = Simulator()
            farm = build_farm(sim, n_workers=n)
            for t in finite_stream(40, ConstantWork(1.0)):
                farm.submit(t)
            sim.run()
            return sim.now

        t2, t4 = makespan(2), makespan(4)
        assert t4 < t2
        assert t2 / t4 == pytest.approx(2.0, rel=0.25)

    def test_on_result_callback(self):
        sim = Simulator()
        nodes = make_cluster(2)
        seen = []
        farm = SimFarm(
            sim,
            emitter_node=nodes[0],
            worker_setup_time=0.0,
            on_result=lambda t: seen.append(t.task_id),
        )
        farm.add_worker(nodes[1])
        for t in finite_stream(5, ConstantWork(0.5)):
            farm.submit(t)
        sim.run()
        assert sorted(seen) == [0, 1, 2, 3, 4]

    def test_invalid_dispatch_policy(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            SimFarm(sim, emitter_node=Node("e"), dispatch="random-guess")


class TestDispatchPolicies:
    def test_round_robin_spreads_tasks(self):
        sim = Simulator()
        farm = build_farm(sim, n_workers=3, work=100.0)
        for t in finite_stream(9, ConstantWork(100.0)):
            farm.submit(t)
        sim.run(until=1.0)
        counts = [len(w.queue) + (1 if w.current_task else 0) for w in farm.workers]
        assert counts == [3, 3, 3]

    def test_shortest_queue_balances(self):
        sim = Simulator()
        farm = build_farm(sim, n_workers=2, dispatch=DispatchPolicy.SHORTEST_QUEUE)
        for t in finite_stream(10, ConstantWork(50.0)):
            farm.submit(t)
        sim.run(until=1.0)
        lens = [len(w.queue) + (1 if w.current_task else 0) for w in farm.workers]
        assert abs(lens[0] - lens[1]) <= 1


class TestWorkerLifecycle:
    def test_setup_delay_defers_processing(self):
        sim = Simulator()
        nodes = make_cluster(2)
        farm = SimFarm(sim, emitter_node=nodes[0], worker_setup_time=5.0)
        farm.add_worker(nodes[1])
        for t in finite_stream(1, ConstantWork(1.0)):
            farm.submit(t)
        sim.run(until=4.0)
        assert farm.completed == 0
        sim.run()
        assert farm.completed == 1
        assert sim.now >= 5.0

    def test_add_worker_increases_parallelism(self):
        sim = Simulator()
        farm = build_farm(sim, n_workers=1)
        assert farm.num_workers == 1
        farm.add_worker(Node("extra"))
        sim.run(until=0.1)
        assert farm.num_workers == 2

    def test_remove_worker_migrates_queue(self):
        sim = Simulator()
        farm = build_farm(sim, n_workers=3, work=100.0)
        for t in finite_stream(12, ConstantWork(100.0)):
            farm.submit(t)
        sim.run(until=1.0)
        total_before = farm.pending
        removed = farm.remove_worker()
        assert removed is not None
        assert not removed.active
        assert farm.pending == total_before  # nothing lost
        assert len(removed.queue) == 0

    def test_remove_worker_never_below_one(self):
        sim = Simulator()
        farm = build_farm(sim, n_workers=1)
        assert farm.remove_worker() is None
        assert farm.num_workers == 1

    def test_removed_worker_finishes_current_task(self):
        sim = Simulator()
        farm = build_farm(sim, n_workers=2)
        for t in finite_stream(2, ConstantWork(10.0)):
            farm.submit(t)
        sim.run(until=1.0)  # both workers busy
        farm.remove_worker()
        sim.run()
        assert farm.completed == 2


class TestBlackout:
    def test_add_worker_causes_blackout(self):
        sim = Simulator()
        nodes = make_cluster(3)
        farm = SimFarm(sim, emitter_node=nodes[0], worker_setup_time=5.0)
        farm.add_worker(nodes[1])
        assert farm.in_blackout
        assert farm.snapshot() is None
        sim.run(until=5.1)
        assert not farm.in_blackout
        assert farm.snapshot() is not None

    def test_force_snapshot_ignores_blackout(self):
        sim = Simulator()
        nodes = make_cluster(2)
        farm = SimFarm(sim, emitter_node=nodes[0], worker_setup_time=5.0)
        farm.add_worker(nodes[1])
        assert farm.in_blackout
        assert farm.force_snapshot() is not None

    def test_reconfiguration_counter(self):
        sim = Simulator()
        farm = build_farm(sim, n_workers=2)
        n0 = farm.reconfigurations
        farm.add_worker(Node("x"))
        farm.remove_worker()
        assert farm.reconfigurations == n0 + 2


class TestMonitoring:
    def test_snapshot_rates_reflect_traffic(self):
        sim = Simulator()
        farm = build_farm(sim, n_workers=4)
        TaskSource(sim, farm.input, rate=2.0, work_model=ConstantWork(1.0), total=60)
        sim.run(until=25.0)
        snap = farm.snapshot()
        assert snap is not None
        assert snap.arrival_rate == pytest.approx(2.0, rel=0.2)
        assert snap.departure_rate == pytest.approx(2.0, rel=0.2)
        assert snap.num_workers == 4

    def test_snapshot_queue_variance_zero_when_balanced(self):
        sim = Simulator()
        farm = build_farm(sim, n_workers=2, work=100.0)
        for t in finite_stream(8, ConstantWork(100.0)):
            farm.submit(t)
        sim.run(until=1.0)
        snap = farm.snapshot()
        assert snap.queue_variance == pytest.approx(0.0)

    def test_balance_load_reduces_variance(self):
        sim = Simulator()
        farm = build_farm(sim, n_workers=2, work=100.0)
        sim.run(until=0.1)
        # stuff one queue directly to create imbalance
        for t in finite_stream(10, ConstantWork(100.0)):
            farm.workers[0].queue.put_nowait(t)
        var_before = farm.force_snapshot().queue_variance
        moved = farm.balance_load()
        var_after = farm.force_snapshot().queue_variance
        assert moved > 0
        assert var_after < var_before

    def test_pending_accounting(self):
        sim = Simulator()
        farm = build_farm(sim, n_workers=2, work=10.0)
        for t in finite_stream(6, ConstantWork(10.0)):
            farm.submit(t)
        sim.run(until=1.0)
        # 2 in service, 4 queued
        assert farm.pending == 6
        sim.run()
        assert farm.pending == 0

    def test_drained_requires_end_of_stream(self):
        sim = Simulator()
        farm = build_farm(sim, n_workers=1)
        farm.submit(finite_stream(1, ConstantWork(1.0))[0])
        sim.run()
        assert not farm.drained
        farm.notify_end_of_stream()
        assert farm.drained


class TestNetworkIntegration:
    def test_transfers_logged(self):
        sim = Simulator()
        net = Network()
        lan = Domain("lan")
        nodes = [Node(f"n{i}", domain=lan) for i in range(3)]
        farm = SimFarm(sim, emitter_node=nodes[0], network=net, worker_setup_time=0.0)
        farm.add_worker(nodes[1])
        farm.add_worker(nodes[2])
        for t in finite_stream(4, ConstantWork(0.5)):
            farm.submit(t)
        sim.run()
        kinds = {r.kind for r in net.log}
        assert kinds == {"task", "result"}
        assert len(net.log) == 8  # 4 tasks + 4 results

    def test_unsecured_untrusted_worker_leaks(self):
        sim = Simulator()
        net = Network()
        lan = Domain("lan")
        wan = Domain("wan", trusted=False)
        farm = SimFarm(sim, emitter_node=Node("e", domain=lan), network=net, worker_setup_time=0.0)
        farm.add_worker(Node("u", domain=wan), secured=False)
        for t in finite_stream(3, ConstantWork(0.5)):
            farm.submit(t)
        sim.run()
        assert net.leak_count == 6  # each task and each result leaks

    def test_secured_worker_does_not_leak(self):
        sim = Simulator()
        net = Network()
        lan = Domain("lan")
        wan = Domain("wan", trusted=False)
        farm = SimFarm(sim, emitter_node=Node("e", domain=lan), network=net, worker_setup_time=0.0)
        farm.add_worker(Node("u", domain=wan), secured=True)
        for t in finite_stream(3, ConstantWork(0.5)):
            farm.submit(t)
        sim.run()
        assert net.leak_count == 0
        assert net.secured_count == 6

    def test_secure_worker_actuator(self):
        sim = Simulator()
        farm = build_farm(sim, n_workers=2)
        w = farm.workers[0]
        assert not w.secured
        farm.secure_worker(w.worker_id)
        assert w.secured
        farm.secure_all()
        assert all(w.secured for w in farm.workers)


class TestConservationProperty:
    @given(st.integers(1, 5), st.integers(1, 40))
    @settings(max_examples=30, deadline=None)
    def test_no_task_lost_or_duplicated(self, n_workers, n_tasks):
        sim = Simulator()
        farm = build_farm(sim, n_workers=n_workers)
        for t in finite_stream(n_tasks, ConstantWork(0.7)):
            farm.submit(t)
        sim.run()
        assert farm.completed == n_tasks
        out_ids = sorted(t.task_id for t in farm.output.peek_items())
        assert out_ids == list(range(n_tasks))
