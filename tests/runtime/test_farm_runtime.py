"""Tests for the live thread farm and its wall-clock controller."""

import time

import pytest

from repro.core.contracts import MinThroughputContract, ThroughputRangeContract
from repro.runtime.controller import FarmController
from repro.runtime.farm_runtime import ThreadFarm

from .waiting import wait_until


def square(x):
    return x * x


def slow_square(x):
    time.sleep(0.01)
    return x * x


class TestThreadFarmBasics:
    def test_needs_workers(self):
        """A farm may start empty, as a rebuilt incarnation does, and
        serves once a worker is added; until then it refuses a submit."""
        with pytest.raises(ValueError, match="non-negative"):
            ThreadFarm(square, initial_workers=-1)
        farm = ThreadFarm(square, initial_workers=0)
        try:
            assert farm.num_workers == 0
            with pytest.raises(RuntimeError):
                farm.submit(3)
            farm.add_worker()
            farm.submit(3)
            assert farm.drain_results(1, timeout=10.0) == [9]
        finally:
            farm.shutdown()

    def test_all_results_arrive(self):
        farm = ThreadFarm(square, initial_workers=3)
        try:
            for i in range(30):
                farm.submit(i)
            results = farm.drain_results(30, timeout=10.0)
            assert sorted(results) == sorted(i * i for i in range(30))
        finally:
            farm.shutdown()

    def test_exceptions_become_results(self):
        def maybe_fail(x):
            if x == 2:
                raise RuntimeError("task failed")
            return x

        farm = ThreadFarm(maybe_fail, initial_workers=2)
        try:
            for i in range(4):
                farm.submit(i)
            results = farm.drain_results(4, timeout=10.0)
            errors = [r for r in results if isinstance(r, RuntimeError)]
            assert len(errors) == 1
        finally:
            farm.shutdown()

    def test_snapshot_counts(self):
        farm = ThreadFarm(square, initial_workers=2)
        try:
            for i in range(10):
                farm.submit(i)
            farm.drain_results(10, timeout=10.0)
            snap = farm.snapshot()
            assert snap.completed == 10
            assert snap.num_workers == 2
            assert snap.pending == 0
        finally:
            farm.shutdown()

    def test_secured_worker_roundtrip(self):
        """Encrypted channels still deliver correct results."""
        farm = ThreadFarm(square, initial_workers=1)
        try:
            farm.secure_all()
            for i in range(5):
                farm.submit(i)
            results = farm.drain_results(5, timeout=10.0)
            assert sorted(results) == [0, 1, 4, 9, 16]
        finally:
            farm.shutdown()


class TestThreadFarmActuators:
    def test_add_worker(self):
        farm = ThreadFarm(square, initial_workers=1)
        try:
            farm.add_worker()
            assert farm.num_workers == 2
        finally:
            farm.shutdown()

    def test_worker_limit(self):
        farm = ThreadFarm(square, initial_workers=1, max_workers=1)
        try:
            with pytest.raises(RuntimeError):
                farm.add_worker()
        finally:
            farm.shutdown()

    def test_remove_worker_preserves_tasks(self):
        farm = ThreadFarm(slow_square, initial_workers=3)
        try:
            for i in range(30):
                farm.submit(i)
            removed = farm.remove_worker()
            assert removed is not None
            results = farm.drain_results(30, timeout=30.0)
            assert len(results) == 30
        finally:
            farm.shutdown()

    def test_remove_never_below_one(self):
        farm = ThreadFarm(square, initial_workers=1)
        try:
            assert farm.remove_worker() is None
        finally:
            farm.shutdown()

    def test_balance_load(self):
        farm = ThreadFarm(slow_square, initial_workers=2)
        try:
            # stuff one queue directly (payload, encrypted?, submit time, trace)
            for i in range(10):
                farm.workers[0].queue.put((i, False, 0.0, None))
            moved = farm.balance_load()
            assert moved > 0
        finally:
            farm.shutdown()


class TestThreadFarmController:
    def test_invalid_period(self):
        farm = ThreadFarm(square, initial_workers=1)
        try:
            with pytest.raises(ValueError):
                FarmController(farm, MinThroughputContract(1.0), control_period=0)
        finally:
            farm.shutdown()

    def test_contract_sets_thresholds(self):
        farm = ThreadFarm(square, initial_workers=1)
        try:
            ctl = FarmController(farm, ThroughputRangeContract(2.0, 5.0))
            assert ctl.constants.FARM_LOW_PERF_LEVEL == 2.0
            assert ctl.constants.FARM_HIGH_PERF_LEVEL == 5.0
        finally:
            farm.shutdown()

    def test_controller_grows_underperforming_farm(self):
        """Same Figure 5 rules, real threads: sustained pressure with one
        slow worker forces ADD_EXECUTOR."""
        farm = ThreadFarm(slow_square, initial_workers=1)
        ctl = FarmController(
            farm, MinThroughputContract(500.0), control_period=0.05, max_workers=8
        )
        try:
            # keep arrival pressure high while ticking the controller
            def pressure():
                for i in range(60):
                    farm.submit(i)
                ctl.control_step()

            wait_until(
                lambda: farm.num_workers > 1,
                on_tick=pressure,
                interval=0.02,
                message="controller to grow the farm",
            )
            assert any("addWorker" in a for _, a in ctl.actions)
        finally:
            farm.shutdown()

    def test_controller_reports_starvation(self):
        farm = ThreadFarm(square, initial_workers=1)
        ctl = FarmController(farm, MinThroughputContract(10.0))
        try:
            # no arrivals at all -> notEnoughTasks, as soon as any wall
            # time has elapsed for the rate estimator to measure over
            wait_until(
                lambda: ctl.violations,
                on_tick=ctl.control_step,
                message="starvation violation",
            )
            assert ctl.violations[0][1] == "notEnoughTasks"
        finally:
            farm.shutdown()

    def test_background_loop_runs(self):
        farm = ThreadFarm(square, initial_workers=1)
        ctl = FarmController(
            farm, MinThroughputContract(10.0), control_period=0.02
        ).start()
        try:
            # starvation must be detected by the loop itself, no manual steps
            wait_until(lambda: ctl.violations, message="loop-detected starvation")
            ctl.stop()
            assert ctl.violations
        finally:
            farm.shutdown()


class TestLatencyMonitoring:
    def test_snapshot_reports_latency(self):
        farm = ThreadFarm(slow_square, initial_workers=2, rate_window=30.0)
        try:
            for i in range(10):
                farm.submit(i)
            farm.drain_results(10, timeout=10.0)
            snap = farm.snapshot()
            assert snap.mean_latency > 0.0
            # each task takes >= 10ms of service
            assert snap.mean_latency >= 0.009
        finally:
            farm.shutdown()

    def test_latency_window_expires(self):
        farm = ThreadFarm(square, initial_workers=1, rate_window=0.05)
        try:
            farm.submit(1)
            farm.drain_results(1, timeout=5.0)
            # the sample ages out of the 50 ms window on its own clock
            wait_until(
                lambda: farm.snapshot().mean_latency == 0.0,
                message="latency sample to expire",
            )
        finally:
            farm.shutdown()


class TestControllerLatencyContract:
    def test_composite_contract_sets_all_thresholds(self):
        from repro.core.contracts import (
            CompositeContract,
            MaxLatencyContract,
            ThroughputRangeContract,
        )

        farm = ThreadFarm(square, initial_workers=1)
        try:
            ctl = FarmController(
                farm,
                CompositeContract(
                    [ThroughputRangeContract(2.0, 5.0), MaxLatencyContract(0.25)]
                ),
            )
            assert ctl.constants.FARM_LOW_PERF_LEVEL == 2.0
            assert ctl.constants.FARM_MAX_LATENCY == 0.25
            assert any(r.name == "CheckLatencyHigh" for r in ctl.engine.rules)
        finally:
            farm.shutdown()

    def test_latency_breach_grows_live_farm(self):
        from repro.core.contracts import MaxLatencyContract

        farm = ThreadFarm(slow_square, initial_workers=1, rate_window=30.0)
        ctl = FarmController(
            farm, MaxLatencyContract(0.02), control_period=0.05, max_workers=8
        )
        try:
            # one worker at ~10ms/task with a deep backlog: latency >> 20ms
            for i in range(80):
                farm.submit(i)
            wait_until(
                lambda: farm.num_workers > 1,
                on_tick=ctl.control_step,
                interval=0.02,
                message="latency breach to grow the farm",
            )
            assert any("addWorker" in a for _, a in ctl.actions)
        finally:
            farm.shutdown()
