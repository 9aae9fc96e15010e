"""Tests for the latency SLA extension (MaxLatencyContract end to end)."""

import pytest

from repro.core.contracts import (
    CompositeContract,
    ContractError,
    MaxLatencyContract,
    ThroughputRangeContract,
)
from repro.core.skeleton_manager import FarmManager
from repro.gcm.abc_controller import FarmABC
from repro.obs import SimClock, Telemetry
from repro.sim.engine import Simulator
from repro.sim.farm import SimFarm
from repro.sim.resources import Node, ResourceManager, make_cluster
from repro.sim.workload import ConstantWork, TaskSource, finite_stream


class TestMaxLatencyContract:
    def test_validation(self):
        with pytest.raises(ContractError):
            MaxLatencyContract(0.0)

    def test_check(self):
        c = MaxLatencyContract(5.0)
        assert c.check({"mean_latency": 4.0}) is True
        assert c.check({"mean_latency": 6.0}) is False
        assert c.check({"mean_latency": 0.0}) is None  # no completions yet
        assert c.check({}) is None

    def test_satisfaction(self):
        c = MaxLatencyContract(5.0)
        assert c.satisfaction({"mean_latency": 5.0}) == pytest.approx(1.0)
        assert c.satisfaction({"mean_latency": 10.0}) == pytest.approx(0.5)
        assert c.satisfaction({"mean_latency": 1.0}) == pytest.approx(1.0)


class TestFarmLatencyMonitoring:
    def test_snapshot_reports_windowed_mean(self):
        sim = Simulator()
        farm = SimFarm(sim, emitter_node=Node("e"), worker_setup_time=0.0, rate_window=50.0)
        farm.add_worker(Node("w"))
        for t in finite_stream(4, ConstantWork(2.0)):
            farm.submit(t)
        sim.run()
        snap = farm.force_snapshot()
        # sequential service: latencies 2, 4, 6, 8 -> mean 5
        assert snap.mean_latency == pytest.approx(5.0, rel=0.05)

    def test_latencies_expire_outside_window(self):
        sim = Simulator()
        farm = SimFarm(sim, emitter_node=Node("e"), worker_setup_time=0.0, rate_window=10.0)
        farm.add_worker(Node("w"))
        farm.submit(finite_stream(1, ConstantWork(1.0))[0])
        sim.run(until=50.0)
        assert farm.force_snapshot().mean_latency == 0.0

    def test_abc_exposes_mean_latency(self):
        sim = Simulator()
        rm = ResourceManager(make_cluster(2))
        farm = SimFarm(sim, emitter_node=Node("e"), worker_setup_time=0.0)
        abc = FarmABC(farm, rm)
        abc.bootstrap(1)
        assert "mean_latency" in abc.monitor()


class TestLatencyDrivenGrowth:
    def _manager(self, contract, pool=12):
        sim = Simulator()
        rm = ResourceManager(make_cluster(pool))
        farm = SimFarm(
            sim, emitter_node=Node("e"), worker_setup_time=2.0, rate_window=20.0
        )
        abc = FarmABC(farm, rm)
        abc.bootstrap(1)
        mgr = FarmManager(
            "AM",
            sim,
            abc,
            control_period=10.0,
            manage_workers=False,
            telemetry=Telemetry(SimClock(sim)),
        )
        mgr.assign_contract(contract)
        return sim, farm, mgr

    def test_contract_sets_latency_threshold(self):
        _, _, mgr = self._manager(MaxLatencyContract(8.0))
        assert mgr.constants.FARM_MAX_LATENCY == 8.0

    def test_composite_contract_sets_both_thresholds(self):
        _, _, mgr = self._manager(
            CompositeContract([ThroughputRangeContract(0.3, 0.7), MaxLatencyContract(8.0)])
        )
        assert mgr.constants.FARM_LOW_PERF_LEVEL == 0.3
        assert mgr.constants.FARM_MAX_LATENCY == 8.0

    def test_latency_breach_grows_farm(self):
        """Queueing delay beyond the bound triggers CheckLatencyHigh even
        when no throughput contract is in force."""
        sim, farm, mgr = self._manager(MaxLatencyContract(6.0))
        # one worker at 0.5 t/s vs arrivals at 1/s: queues (and thus
        # latency) grow without bound until workers are added
        TaskSource(sim, farm.input, rate=1.0, work_model=ConstantWork(2.0))
        sim.run(until=300.0)
        assert farm.num_workers > 1
        assert mgr.trace.count("addWorker") >= 1
        snap = farm.force_snapshot()
        assert snap.mean_latency <= 6.0 * 1.5  # recovered to near the bound

    def test_no_breach_no_growth(self):
        sim, farm, mgr = self._manager(MaxLatencyContract(60.0))
        TaskSource(sim, farm.input, rate=0.3, work_model=ConstantWork(2.0))
        sim.run(until=200.0)
        assert farm.num_workers == 1
        assert mgr.trace.count("addWorker") == 0

    def test_rule_set_contains_latency_extension(self):
        _, _, mgr = self._manager(MaxLatencyContract(5.0))
        names = [r.name for r in mgr.engine.rules]
        assert "CheckLatencyHigh" in names
        # Figure 5's five rules still present and first
        assert names[:5] == [
            "CheckInterArrivalRateLow",
            "CheckInterArrivalRateHigh",
            "CheckRateLow",
            "CheckRateHigh",
            "CheckLoadBalance",
        ]
