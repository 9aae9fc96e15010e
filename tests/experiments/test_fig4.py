"""Integration tests: the FIG4 scenario reproduces Figure 4's phases."""

import pytest

from repro.core.events import Events
from repro.experiments.fig4 import Fig4Config, run_fig4
from repro.experiments.report import render_fig4


@pytest.fixture(scope="module")
def result():
    return run_fig4()


class TestPhase1Starvation:
    def test_farm_sees_contr_low_and_not_enough(self, result):
        f_events = result.am_f_events()
        assert Events.CONTR_LOW in f_events
        assert Events.NOT_ENOUGH in f_events

    def test_farm_raises_violations_and_goes_passive(self, result):
        assert result.first_violation_time is not None
        assert Events.GO_PASSIVE in result.am_f_events()

    def test_multiple_inc_rates(self, result):
        """'because of the multiple incRate actions in AM_A, the first
        stage produces tasks more and more frequently'"""
        assert len(result.inc_rate_times) >= 2

    def test_inc_rates_are_increasing(self, result):
        rates = [
            e.detail["rate"]
            for e in result.trace.events_of("AM_A", Events.INC_RATE)
        ]
        assert rates == sorted(rates)

    def test_violation_reaches_am_a_with_delay(self, result):
        """'a little bit after time … because of the network and run time
        support overheads'"""
        first_viol = result.first_violation_time
        first_inc = min(result.inc_rate_times)
        assert first_inc > first_viol
        # ... and by no more than the transport delay plus one AM_A tick
        assert first_inc - first_viol <= result.config.control_period + 1.0 + 1e-6


class TestPhase2Growth:
    def test_workers_added_in_batches_of_two(self, result):
        adds = result.trace.events_of("AM_F", Events.ADD_WORKER)
        assert len(adds) >= 2
        assert all(e.detail["count"] == 2 for e in adds)

    def test_adds_happen_after_rate_recovery_started(self, result):
        assert min(result.add_worker_times) > min(result.inc_rate_times)

    def test_cores_step_5_7_9(self, result):
        steps = result.cores_step_values()
        assert steps[0] == 5
        assert 7 in steps
        assert 9 in steps

    def test_blackout_during_reconfiguration(self, result):
        """No AM_F sensor-driven marks inside the reconfiguration window."""
        add_t = result.add_worker_times[0]
        setup = result.config.worker_setup_time
        # contrLow marks require a monitor sample; none can land strictly
        # inside (add_t, add_t + setup)
        marks = [
            e.time
            for e in result.trace.events_of("AM_F", Events.CONTR_LOW)
            if add_t < e.time < add_t + setup
        ]
        assert marks == []


class TestPhase3Overshoot:
    def test_too_much_warning_then_dec_rate(self, result):
        assert Events.TOO_MUCH in result.am_f_events()
        assert len(result.dec_rate_times) >= 1

    def test_dec_rate_after_inc_rates(self, result):
        assert min(result.dec_rate_times) > min(result.inc_rate_times)

    def test_too_much_does_not_passivate_farm(self, result):
        """tooMuchTasks is a warning: it never flips AM_F to passive."""
        too_much_viols = [
            e.time
            for e in result.trace.events_of("AM_F", Events.RAISE_VIOL)
            if e.detail.get("kind") == "tooMuchTasks"
        ]
        assert too_much_viols
        passive_times = {
            e.time for e in result.trace.events_of("AM_F", Events.GO_PASSIVE)
        }
        assert not passive_times.intersection(too_much_viols)


class TestPhase4Drain:
    def test_end_stream_marked(self, result):
        assert result.end_stream_time is not None

    def test_no_inc_rate_after_end_stream(self, result):
        end = result.end_stream_time
        assert all(t <= end for t in result.inc_rate_times)

    def test_not_enough_persists_after_end_stream(self, result):
        """'the event notEnough will persist in time in the event line'"""
        end = result.end_stream_time
        late = [
            e
            for e in result.trace.events_of("AM_F", Events.NOT_ENOUGH)
            if e.time > end
        ]
        assert late

    def test_all_tasks_delivered(self, result):
        assert result.app.delivered == result.config.total_tasks


class TestFigureLevel:
    def test_phase_order(self, result):
        assert result.phase_order_holds()

    def test_throughput_reaches_stripe(self, result):
        assert result.in_stripe_at_end()

    def test_input_rate_enters_stripe(self, result):
        cfg = result.config
        in_stripe = [
            v
            for t, v in result.input_rate_series
            if cfg.contract_low <= v <= cfg.contract_high
        ]
        assert in_stripe

    def test_render_contains_four_graphs(self, result):
        text = render_fig4(result)
        for marker in ("graph 1", "graph 2", "graph 3", "graph 4"):
            assert marker in text
        assert "incRate" in text
        assert "addWorker" in text

    def test_deterministic(self):
        a = run_fig4(Fig4Config(duration=300.0, total_tasks=100))
        b = run_fig4(Fig4Config(duration=300.0, total_tasks=100))
        assert a.trace.event_names() == b.trace.event_names()
        assert a.cores_series == b.cores_series


class TestFig4Robustness:
    """The phase structure is a property of the design, not of one tuning."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(control_period=5.0, duration=600.0, total_tasks=200),
            dict(contract_low=0.2, contract_high=0.5, initial_rate=0.12,
                 duration=900.0, total_tasks=200),
            dict(worker_setup_time=20.0, duration=1000.0, total_tasks=250),
            dict(seed=7, duration=900.0),
        ],
    )
    def test_phase_structure_holds(self, kwargs):
        r = run_fig4(Fig4Config(**kwargs))
        # starvation phase then rate corrections then growth
        assert r.first_violation_time is not None
        assert len(r.inc_rate_times) >= 1
        assert len(r.add_worker_times) >= 1
        assert r.trace.assert_order(
            [Events.RAISE_VIOL, Events.INC_RATE, Events.ADD_WORKER]
        )
        # the stream always drains completely
        assert r.app.delivered == r.config.total_tasks


class TestElasticity:
    def test_farm_shrinks_when_pressure_drops(self):
        """The full elastic cycle: grow under load, shrink when the input
        rate falls (CheckRateHigh + REMOVE_EXECUTOR)."""
        from repro.core import ThroughputRangeContract, build_farm_bs
        from repro.obs.events import TraceRecorder
        from repro.sim import ResourceManager, Simulator, make_cluster
        from repro.sim.workload import ConstantWork, TaskSource

        sim = Simulator()
        trace = TraceRecorder()
        rm = ResourceManager(make_cluster(24))
        bs = build_farm_bs(
            sim, rm, worker_work=2.0, initial_degree=6,
            trace=trace, control_period=10.0, worker_setup_time=2.0,
            rate_window=20.0,
            constants_kwargs={"add_burst": 1, "max_workers": 24},
            spawn_worker_managers=False,
        )
        src = TaskSource(sim, bs.farm.input, rate=1.2, work_model=ConstantWork(2.0))
        bs.assign_contract(ThroughputRangeContract(0.3, 0.8))
        sim.run(until=300.0)
        workers_loaded = bs.farm.num_workers
        # demand collapses: departure tracks the new 0.4/s input, inside
        # the stripe, but the farm is now over-provisioned relative to it
        src.set_rate(0.4)
        sim.run(until=900.0)
        # the farm kept the contract but never grew after the drop
        post_drop_adds = [
            e for e in trace.events_of(name="addWorker") if e.time > 320.0
        ]
        assert post_drop_adds == []
        snap = bs.farm.force_snapshot()
        assert 0.3 * 0.8 <= snap.departure_rate <= 0.8 * 1.2
