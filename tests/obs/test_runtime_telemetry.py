"""The live (wall-clock) controller feeds the same telemetry sink."""

from repro.core.contracts import MinThroughputContract
from repro.obs.export import prometheus_text
from repro.obs.telemetry import Telemetry
from repro.runtime.controller import FarmController
from repro.runtime.farm_runtime import ThreadFarm

MAPE_PHASES = ("mape.monitor", "mape.analyse", "mape.plan", "mape.execute")


def square(x):
    return x * x


class TestControllerTelemetry:
    def _run_steps(self, telemetry, steps=3):
        farm = ThreadFarm(square, initial_workers=2)
        try:
            ctl = FarmController(
                farm,
                MinThroughputContract(0.1),
                control_period=0.05,
                telemetry=telemetry,
            )
            for i in range(steps):
                farm.submit(i)
            for _ in range(steps):
                ctl.control_step()
            farm.drain_results(steps, timeout=10.0)
            return ctl
        finally:
            farm.shutdown()

    def test_mape_spans_on_wall_clock(self):
        tel = Telemetry()
        self._run_steps(tel, steps=3)
        cycles = tel.spans.named("mape.cycle", "AM_live")
        assert len(cycles) == 3
        for phase in MAPE_PHASES:
            assert len(tel.spans.named(phase, "AM_live")) == 3
        # wall-clock spans: real elapsed time recorded
        assert all(c.duration is not None and c.duration >= 0 for c in cycles)
        assert all(c.perf_elapsed is not None and c.perf_elapsed > 0 for c in cycles)

    def test_latency_histogram_shared_with_sim_namespace(self):
        tel = Telemetry()
        self._run_steps(tel, steps=2)
        text = prometheus_text(tel.metrics)
        assert 'repro_control_loop_latency_seconds_count{manager="AM_live"} 2' in text
        assert 'repro_mape_ticks_total{manager="AM_live"} 2' in text
        assert 'repro_farm_workers{manager="AM_live"}' in text

    def test_default_is_noop_and_harmless(self):
        ctl = self._run_steps(None, steps=2)
        assert ctl.telemetry.enabled is False
