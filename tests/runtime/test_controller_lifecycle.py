"""Shutdown and contract-swap paths of the live farm controller.

These are the paths a long-running deployment exercises constantly —
stopping a controller whose rules are mid-cycle, re-assigning a
contract while the loop is live, and violations arriving while the
stream drains — but that the happy-path tests never touch.
"""

import threading
import time

import pytest

from repro.core.contracts import (
    BestEffortContract,
    CompositeContract,
    MaxLatencyContract,
    MinThroughputContract,
    RateContract,
    ThroughputRangeContract,
)
from repro.obs.telemetry import NOOP
from repro.runtime.backend import RuntimeFarmSnapshot
from repro.runtime.controller import FarmController
from repro.runtime.farm_runtime import ThreadFarm
from repro.sim.resources import TRUSTED_DEFAULT, Node

from .waiting import wait_until


def square(x):
    return x * x


def slow_square(x):
    time.sleep(0.01)
    return x * x


class TestShutdownPaths:
    def test_stop_while_rules_mid_cycle(self):
        """stop() called from another thread while control_step is busy
        firing rules must join cleanly, not deadlock on the farm lock."""
        farm = ThreadFarm(slow_square, initial_workers=1)
        ctl = FarmController(
            farm, MinThroughputContract(500.0), control_period=0.01, max_workers=4
        ).start()
        try:
            # guarantee at least one full cycle has rules to chew on
            for i in range(100):
                farm.submit(i)
            wait_until(
                lambda: ctl.actions or ctl.violations,
                message="a mid-cycle rule firing",
            )
            ctl.stop(timeout=10.0)
            assert ctl._thread is not None and not ctl._thread.is_alive()
        finally:
            farm.shutdown()

    def test_stop_is_idempotent_and_restartable(self):
        farm = ThreadFarm(square, initial_workers=1)
        ctl = FarmController(farm, MinThroughputContract(10.0), control_period=0.02)
        try:
            ctl.start()
            ctl.stop()
            ctl.stop()  # second stop is a no-op
            ctl.start()  # the loop may be restarted after a stop
            wait_until(lambda: ctl.violations, message="post-restart starvation")
            ctl.stop()
        finally:
            farm.shutdown()

    def test_start_twice_keeps_single_loop(self):
        farm = ThreadFarm(square, initial_workers=1)
        ctl = FarmController(farm, MinThroughputContract(10.0), control_period=0.02)
        try:
            assert ctl.start() is ctl
            first = ctl._thread
            assert ctl.start() is ctl
            assert ctl._thread is first  # no second loop thread spawned
        finally:
            ctl.stop()
            farm.shutdown()

    def test_stop_after_farm_shutdown_is_clean(self):
        """Stopping the controller after its farm is gone must not raise:
        the loop only snapshots, and snapshots survive a dead farm."""
        farm = ThreadFarm(square, initial_workers=1)
        ctl = FarmController(
            farm, MinThroughputContract(10.0), control_period=0.02
        ).start()
        farm.shutdown()
        ctl.stop(timeout=10.0)
        assert not ctl._thread.is_alive()


class TestContractSwap:
    def test_swap_updates_thresholds_in_place(self):
        farm = ThreadFarm(square, initial_workers=1)
        try:
            ctl = FarmController(farm, ThroughputRangeContract(2.0, 5.0))
            assert ctl.constants.FARM_LOW_PERF_LEVEL == 2.0
            ctl.assign_contract(ThroughputRangeContract(10.0, 20.0))
            assert ctl.constants.FARM_LOW_PERF_LEVEL == 10.0
            assert ctl.constants.FARM_HIGH_PERF_LEVEL == 20.0
            # the live rule closures read the same constants object
            assert ctl.engine.rules  # unchanged rule objects
        finally:
            farm.shutdown()

    def test_swap_to_best_effort_silences_growth(self):
        """After swapping to best-effort mid-run, the rules stop firing:
        the same engine, re-tuned without redeployment."""
        farm = ThreadFarm(slow_square, initial_workers=1)
        ctl = FarmController(
            farm, MinThroughputContract(500.0), control_period=0.05, max_workers=8
        )
        try:
            def pressure():
                for i in range(40):
                    farm.submit(i)
                ctl.control_step()

            wait_until(
                lambda: farm.num_workers > 1,
                on_tick=pressure,
                interval=0.02,
                message="growth under the strict contract",
            )
            ctl.assign_contract(BestEffortContract())
            before = len(ctl.actions)
            for _ in range(5):
                for i in range(40):
                    farm.submit(i)
                fired = ctl.control_step()
                assert "CheckRateLow" not in fired
            assert all("addWorker" not in a for _, a in ctl.actions[before:])
        finally:
            farm.shutdown()

    def test_swap_while_loop_running_is_safe(self):
        farm = ThreadFarm(square, initial_workers=1)
        ctl = FarmController(
            farm, MinThroughputContract(10.0), control_period=0.005
        ).start()
        try:
            stop = threading.Event()
            errors = []

            def swapper():
                contracts = [
                    ThroughputRangeContract(1.0, 2.0),
                    CompositeContract(
                        [ThroughputRangeContract(3.0, 6.0), MaxLatencyContract(0.5)]
                    ),
                    BestEffortContract(),
                    MinThroughputContract(10.0),
                ]
                i = 0
                while not stop.is_set():
                    try:
                        ctl.assign_contract(contracts[i % len(contracts)])
                    except Exception as exc:  # noqa: BLE001
                        errors.append(exc)
                        return
                    i += 1
                    time.sleep(0.002)

            t = threading.Thread(target=swapper)
            t.start()
            wait_until(lambda: ctl.violations, message="violations under swapping")
            stop.set()
            t.join(10.0)
            assert not errors
            ctl.stop()
        finally:
            farm.shutdown()

    def test_unsupported_contract_rejected(self):
        farm = ThreadFarm(square, initial_workers=1)
        try:
            ctl = FarmController(farm, BestEffortContract())
            with pytest.raises(ValueError):
                ctl.assign_contract(object())  # type: ignore[arg-type]
        finally:
            farm.shutdown()

    def test_failed_swap_leaves_old_contract_fully_in_force(self):
        """A composite with one unsupported part must be rejected *before*
        any threshold mutates — not half-applied up to the bad part."""
        farm = ThreadFarm(square, initial_workers=1)
        try:
            ctl = FarmController(farm, ThroughputRangeContract(2.0, 5.0))
            bad = CompositeContract(
                [ThroughputRangeContract(7.0, 9.0), RateContract(rate=5.0)]
            )
            with pytest.raises(ValueError):
                ctl.assign_contract(bad)
            assert ctl.constants.FARM_LOW_PERF_LEVEL == 2.0
            assert ctl.constants.FARM_HIGH_PERF_LEVEL == 5.0
            assert isinstance(ctl.contract, ThroughputRangeContract)
        finally:
            farm.shutdown()


class _GatedFarm:
    """FarmBackend stub whose snapshot() blocks until released.

    Holding the monitor phase open gives the test a deterministic window
    that is *guaranteed* to be mid-cycle — no sleeps, no racing.
    The numbers it reports (arrival 1000/s, departure 1/s, one worker)
    make CheckRateLow eligible under a min-throughput contract of up to
    1000 tasks/s: plenty of input, output far below the floor.
    """

    name = "gated"
    telemetry = NOOP
    emitter_node = Node("emitter", domain=TRUSTED_DEFAULT)

    def __init__(self):
        self.in_monitor = threading.Event()
        self.release = threading.Event()
        self.added = 0
        self._t0 = time.monotonic()

    def now(self):
        return time.monotonic() - self._t0

    def submit(self, payload):  # pragma: no cover - unused by the controller
        pass

    def drain_results(self, count, timeout=30.0):  # pragma: no cover - unused
        return []

    def snapshot(self):
        self.in_monitor.set()
        self.release.wait(10.0)
        return RuntimeFarmSnapshot(
            time=self.now(),
            arrival_rate=1000.0,
            departure_rate=1.0,
            num_workers=self.num_workers,
            queue_lengths=(0,),
            queue_variance=0.0,
            completed=0,
            pending=0,
            mean_latency=0.0,
        )

    @property
    def num_workers(self):
        return 1 + self.added

    def add_worker(self, secured=False):
        self.added += 1

    def remove_worker(self):
        return None

    def balance_load(self):
        return 0

    def secure_all(self):  # pragma: no cover - unused by the controller
        pass

    def shutdown(self, timeout=10.0):  # pragma: no cover - unused
        pass


class TestContractSwapMidCycle:
    def test_swap_mid_cycle_lands_on_next_cycle(self):
        """Regression: a contract swap arriving while a MAPE cycle is in
        flight must not retune the thresholds that cycle is already
        acting on.  The in-flight cycle completes under the *old*
        contract (so CheckRateLow still fires); the swap lands before
        the next cycle (which then stays silent under best-effort).

        Before the fix, assign_contract mutated the shared constants
        immediately, so the in-flight cycle planned against the new
        thresholds and the growth action was silently lost.
        """
        farm = _GatedFarm()
        ctl = FarmController(farm, MinThroughputContract(500.0), max_workers=8)
        fired_in_flight = []
        cycle = threading.Thread(
            target=lambda: fired_in_flight.extend(ctl.control_step())
        )
        cycle.start()
        assert farm.in_monitor.wait(10.0), "cycle never reached monitor"
        # swap arrives mid-cycle from another thread...
        swapper = threading.Thread(
            target=ctl.assign_contract, args=(BestEffortContract(),)
        )
        swapper.start()
        # ...and the held-open cycle finishes against the old contract
        farm.release.set()
        cycle.join(10.0)
        swapper.join(10.0)
        assert not cycle.is_alive() and not swapper.is_alive()
        assert "CheckRateLow" in fired_in_flight
        assert farm.added == ctl.constants.FARM_ADD_WORKERS
        # the swap has landed now: the next cycle sees best-effort
        assert ctl.constants.FARM_LOW_PERF_LEVEL == 0.0
        assert "CheckRateLow" not in ctl.control_step()
        assert farm.added == ctl.constants.FARM_ADD_WORKERS  # no further growth


class TestViolationDuringDrain:
    def test_starvation_reported_while_stream_drains(self):
        """End of stream: arrivals cease, the controller keeps ticking and
        reports notEnoughTasks while the backlog drains — then stops
        cleanly with the violations on record (the paper's drain phase)."""
        farm = ThreadFarm(slow_square, initial_workers=2, rate_window=0.2)
        ctl = FarmController(
            farm, MinThroughputContract(20.0), control_period=0.02
        ).start()
        try:
            for i in range(50):
                farm.submit(i)
            results = farm.drain_results(50, timeout=30.0)
            assert len(results) == 50
            # stream over: the loop itself must flag starvation
            wait_until(
                lambda: any(v == "notEnoughTasks" for _, v in ctl.violations),
                message="starvation during drain",
            )
            ctl.stop(timeout=10.0)
            assert not ctl._thread.is_alive()
        finally:
            farm.shutdown()

    def test_violation_mid_drain_does_not_block_stop(self):
        """stop() racing the very tick that appends a violation: the join
        must win, and the violation list stays consistent.  stop() joins
        the loop thread, so once it is dead no tick can land."""
        farm = ThreadFarm(square, initial_workers=1, rate_window=0.1)
        for _ in range(20):
            ctl = FarmController(
                farm, MinThroughputContract(50.0), control_period=0.001
            ).start()
            wait_until(lambda: ctl.violations, timeout=10.0, message="first violation")
            ctl.stop(timeout=10.0)
            count = len(ctl.violations)
            # a dead loop thread cannot tick: nothing landed after stop()
            assert not ctl._thread.is_alive()
            assert len(ctl.violations) == count
        farm.shutdown()
