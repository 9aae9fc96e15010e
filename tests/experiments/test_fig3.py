"""Integration tests: the FIG3 scenario reproduces Figure 3's shape."""

import pytest

from repro.experiments.fig3 import Fig3Config, run_fig3
from repro.experiments.report import render_fig3


@pytest.fixture(scope="module")
def result():
    return run_fig3()


class TestFig3Shape:
    def test_contract_eventually_met(self, result):
        assert result.contract_met
        assert result.time_to_contract is not None

    def test_ramp_is_monotone_staircase(self, result):
        assert result.staircase_is_monotone()

    def test_starts_from_one_worker(self, result):
        assert result.workers_series[0][1] == 1

    def test_workers_added_stepwise(self, result):
        """At least the analytically required number of additions."""
        # 0.6 target at 0.2/worker needs >= 3 workers => >= 2 additions
        assert len(result.add_worker_times) >= 2

    def test_no_oscillation(self, result):
        assert result.remove_worker_count == 0

    def test_throughput_crosses_contract_once_and_stays(self, result):
        target = result.config.target_throughput
        crossed = False
        for t, v in result.throughput_series:
            if v >= target:
                crossed = True
            # after settling (give 60s of slack post-crossing), no dip far
            # below the contract
            if crossed and t > (result.time_to_contract or 0) + 60.0:
                assert v >= target * 0.85
        assert crossed

    def test_final_parallelism_close_to_optimal(self, result):
        """The staircase stops within a couple of workers of the analytic
        optimum (input-bound at input_rate / worker_rate)."""
        cfg = result.config
        optimal = cfg.input_rate / cfg.worker_rate
        assert result.final_workers <= optimal + 2

    def test_render_mentions_contract_and_checks(self, result):
        text = render_fig3(result)
        assert "FIG3" in text
        assert "contract met" in text
        assert "True" in text


class TestFig3Determinism:
    def test_same_config_same_trace(self):
        a = run_fig3(Fig3Config(duration=200.0))
        b = run_fig3(Fig3Config(duration=200.0))
        assert a.trace.event_names() == b.trace.event_names()
        assert a.workers_series == b.workers_series


class TestFig3Parametrisation:
    def test_higher_target_needs_more_workers(self):
        lo = run_fig3(Fig3Config(target_throughput=0.4, input_rate=0.5, duration=400.0))
        hi = run_fig3(Fig3Config(target_throughput=0.8, input_rate=1.0, duration=400.0))
        assert hi.final_workers > lo.final_workers
        assert hi.time_to_contract >= lo.time_to_contract

    def test_unreachable_target_escalates(self):
        """Target beyond the pool's capacity: manager runs out of plans."""
        r = run_fig3(
            Fig3Config(
                target_throughput=2.0, input_rate=2.5, pool_size=4, duration=300.0
            )
        )
        assert not r.contract_met
        kinds = [v.kind for v in r.bs.manager.violations_raised]
        assert "noLocalPlan" in kinds


class TestHotSpotAdaptation:
    """[10]'s claim recalled in §4.1: contract satisfaction is maintained
    'in the case of temporary hot spots in image processing'."""

    def test_manager_rides_out_hot_spot(self):
        from repro.core import MinThroughputContract, build_farm_bs
        from repro.sim import ResourceManager, Simulator, make_cluster
        from repro.sim.workload import ConstantWork, HotSpotWork, TaskSource

        sim = Simulator()
        rm = ResourceManager(make_cluster(20))
        bs = build_farm_bs(
            sim, rm, worker_work=5.0, initial_degree=4,
            control_period=10.0, worker_setup_time=5.0,
            rate_window=20.0,
            constants_kwargs={"add_burst": 1, "max_workers": 20},
            spawn_worker_managers=False,
        )
        # tasks 80-120 are 3x harder: capacity halves mid-run
        work = HotSpotWork(ConstantWork(5.0), 80, 120, factor=3.0)
        TaskSource(sim, bs.farm.input, rate=0.8, work_model=work)
        bs.assign_contract(MinThroughputContract(0.6))

        thr = []

        def sample():
            thr.append(bs.farm.force_snapshot().departure_rate)

        sim.periodic(5.0, sample)
        sim.run(until=600.0)

        # workers were added while the hot spot was being digested
        assert bs.trace.count("addWorker") >= 1
        # and the contract is restored by the end of the run
        assert thr[-1] >= 0.6 * 0.9
