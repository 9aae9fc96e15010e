"""Tests for the process farm: real parallelism, real crash recovery.

The headline assertions mirror the paper's §2 fault-tolerance framing:
a SIGKILLed worker loses zero tasks (at-least-once replay, deduped to
exactly-once outward) and the *unmodified* Figure 5 ``CheckRateLow``
rule restores capacity through the shared controller.
"""

import time

import pytest

from repro.core.contracts import MinThroughputContract
from repro.obs.telemetry import Telemetry
from repro.runtime.backend import FarmBackend
from repro.runtime.controller import FarmController
from repro.runtime.farm_runtime import ThreadFarm
from repro.runtime.process_farm import ProcessFarm

from .waiting import wait_until


def square(x):
    return x * x


def slow_square(x):
    time.sleep(0.01)
    return x * x


def very_slow_square(x):
    time.sleep(5.0)
    return x * x


def maybe_fail(x):
    if x == 2:
        raise RuntimeError("task failed")
    return x


@pytest.fixture
def farm():
    """A quiescent-supervisor farm: tests drive supervise_once() by hand
    where determinism matters; background supervision stays fast enough
    for the end-to-end cases."""
    f = ProcessFarm(
        square,
        initial_workers=2,
        heartbeat_period=0.05,
        heartbeat_timeout=1.0,
        backoff_base=0.01,
        backoff_cap=0.1,
        supervise_period=0.02,
    )
    yield f
    f.shutdown()


class TestProcessFarmBasics:
    def test_needs_workers(self):
        """A farm may start empty, as a rebuilt incarnation does, and
        serves once a worker is added."""
        with pytest.raises(ValueError, match="non-negative"):
            ProcessFarm(square, initial_workers=-1)
        farm = ProcessFarm(square, initial_workers=0)
        try:
            assert farm.num_workers == 0
            farm.add_worker()
            farm.submit(3)
            assert farm.drain_results(1, timeout=30.0) == [9]
        finally:
            farm.shutdown()

    def test_satisfies_farm_backend_protocol(self, farm):
        assert isinstance(farm, FarmBackend)
        threads = ThreadFarm(square, initial_workers=1)
        try:
            assert isinstance(threads, FarmBackend)
        finally:
            threads.shutdown()

    def test_all_results_arrive(self, farm):
        for i in range(30):
            farm.submit(i)
        results = farm.drain_results(30, timeout=30.0)
        assert sorted(results) == sorted(i * i for i in range(30))

    def test_exceptions_become_results(self):
        f = ProcessFarm(maybe_fail, initial_workers=2)
        try:
            for i in range(4):
                f.submit(i)
            results = f.drain_results(4, timeout=30.0)
            errors = [r for r in results if isinstance(r, RuntimeError)]
            assert len(errors) == 1
        finally:
            f.shutdown()

    def test_snapshot_counts(self, farm):
        for i in range(10):
            farm.submit(i)
        farm.drain_results(10, timeout=30.0)
        snap = farm.snapshot()
        assert snap.completed == 10
        assert snap.num_workers == 2
        assert snap.pending == 0
        assert snap.mean_latency >= 0.0

    def test_secured_worker_roundtrip(self, farm):
        """Encrypted channels decrypt inside a different process."""
        farm.secure_all()
        for i in range(5):
            farm.submit(i)
        assert sorted(farm.drain_results(5, timeout=30.0)) == [0, 1, 4, 9, 16]


class TestProcessFarmActuators:
    def test_add_worker(self, farm):
        farm.add_worker()
        assert farm.num_workers == 3

    def test_worker_limit(self):
        f = ProcessFarm(square, initial_workers=1, max_workers=1)
        try:
            with pytest.raises(RuntimeError):
                f.add_worker()
        finally:
            f.shutdown()

    def test_remove_worker_drains_its_backlog(self):
        f = ProcessFarm(slow_square, initial_workers=3)
        try:
            for i in range(30):
                f.submit(i)
            assert f.remove_worker() is not None
            results = f.drain_results(30, timeout=60.0)
            assert sorted(results) == sorted(i * i for i in range(30))
            # the retiree eventually leaves the live set
            wait_until(lambda: f.num_workers == 2, message="worker retirement")
        finally:
            f.shutdown()

    def test_remove_never_below_one(self):
        f = ProcessFarm(square, initial_workers=1)
        try:
            assert f.remove_worker() is None
        finally:
            f.shutdown()

    def test_balance_load_moves_queued_tasks(self):
        f = ProcessFarm(very_slow_square, initial_workers=2, supervise_period=60.0)
        try:
            # pile everything onto worker 0 by dispatching before worker 1
            # gets any: submit() round-robins, so stuff the queue directly
            w0 = f.workers[0]
            for i in range(10):
                f.submit(i)
            # rebalance moves from the longest to the shortest queue
            lengths = sorted(len(w.outstanding) for w in f.workers)
            moved = f.balance_load()
            after = sorted(len(w.outstanding) for w in f.workers)
            assert moved >= 0  # approximate under concurrency
            assert sum(after) == sum(lengths)
            assert w0 is f.workers[0]
        finally:
            f.shutdown()


class TestCrashFaultTolerance:
    def test_sigkill_loses_zero_tasks(self):
        """The acceptance bar: a killed worker's tasks are all replayed."""
        f = ProcessFarm(
            slow_square,
            initial_workers=3,
            heartbeat_period=0.05,
            heartbeat_timeout=0.5,
            backoff_base=0.01,
            backoff_cap=0.05,
            supervise_period=0.02,
        )
        try:
            n = 60
            for i in range(n):
                f.submit(i)
            # kill a worker that is seen to hold tasks: on a starved box
            # the farm's own pick may not have been sent anything yet
            victim = wait_until(
                lambda: next((w for w in f.workers if w.outstanding), None),
                message="a worker to hold the window",
            )
            assert f.inject_crash(victim.worker_id) == victim.worker_id
            results = f.drain_results(n, timeout=60.0)
            assert sorted(results) == sorted(i * i for i in range(n))
            assert f.crashes, "the supervisor must have recorded the death"
            assert f.replays > 0, "the victim's un-acked tasks were replayed"
            assert not f.dead_letters
        finally:
            f.shutdown()

    def test_detection_via_supervise_once(self):
        """A forked worker's death is EOF on its socket: the farm sees it
        at once, with no supervision tick — ``supervise_once`` reports
        only what *it* finds (heartbeat silence, a wedged process)."""
        f = ProcessFarm(very_slow_square, initial_workers=2, supervise_period=60.0)
        try:
            for i in range(3):
                f.submit(i)
            victim = wait_until(
                lambda: next((w for w in f.workers if w.outstanding), None),
                message="a worker to hold the window",
            )
            with f._lock:
                window = sorted(victim.outstanding)
            assert f.inject_crash(victim.worker_id) == victim.worker_id
            wait_until(lambda: f.crashes, timeout=0.5, interval=0.001, message="EOF")
            assert [wid for _, wid in f.crashes] == [victim.worker_id]
            assert f.num_workers == 1
            with f._lock:  # the victim's window is parked for replay
                assert window and not victim.outstanding
                parked = [f._tasks[task_id] for task_id in window]
                assert all(r.worker_id is None and r.next_retry_at > 0.0 for r in parked)
            assert f.supervise_once() == []  # nothing was left for it to find
        finally:
            f.shutdown()

    def test_replay_backoff_is_capped_exponential(self):
        f = ProcessFarm(
            very_slow_square,
            initial_workers=1,
            supervise_period=60.0,
            backoff_base=0.1,
            backoff_cap=0.3,
            max_attempts=10,
        )
        try:
            for i in range(3):
                f.submit(i)
            killed = f.inject_crash()
            wait_until(
                lambda: not f._find_worker(killed).process.is_alive(),
                message="SIGKILL to land",
            )
            f.supervise_once()
            now = f.now()
            with f._lock:
                delays = sorted(r.next_retry_at - now for r in f._tasks.values())
            # first replay of a once-dispatched task: base * 2**0
            assert delays, "un-acked tasks must be scheduled for replay"
            assert all(0.0 < d <= 0.3 + 1e-6 for d in delays)
            # attempts=1 -> delay == backoff_base (within scheduling slop)
            assert min(delays) <= 0.1 + 0.05
        finally:
            f.shutdown()

    def test_exhausted_replay_budget_dead_letters(self):
        f = ProcessFarm(
            very_slow_square,
            initial_workers=1,
            supervise_period=60.0,
            max_attempts=1,
        )
        try:
            f.submit(7)
            killed = f.inject_crash()
            wait_until(
                lambda: not f._find_worker(killed).process.is_alive(),
                message="SIGKILL to land",
            )
            f.supervise_once()
            assert len(f.dead_letters) == 1
            dl = f.dead_letters[0]
            assert dl.payload == 7 and dl.attempts == 1
            assert f.replays == 0
            assert f.snapshot().pending == 0  # dead letters are accounted out
        finally:
            f.shutdown()

    def test_crash_of_every_worker_recovers_after_add(self):
        """Tasks outlive a total wipe-out: they wait for fresh capacity."""
        f = ProcessFarm(
            slow_square,
            initial_workers=1,
            heartbeat_period=0.05,
            heartbeat_timeout=0.5,
            backoff_base=0.01,
            supervise_period=0.02,
            max_attempts=5,
        )
        try:
            for i in range(10):
                f.submit(i)
            f.inject_crash()
            wait_until(lambda: f.num_workers == 0, message="lone worker death")
            f.add_worker()
            results = f.drain_results(10, timeout=60.0)
            assert sorted(results) == sorted(i * i for i in range(10))
        finally:
            f.shutdown()

    def test_checkratelow_restores_capacity_after_crash(self):
        """Fault recovery as contract enforcement: the unmodified Figure 5
        rules grow the farm back after a SIGKILL."""
        f = ProcessFarm(
            slow_square,
            initial_workers=2,
            heartbeat_period=0.05,
            heartbeat_timeout=0.5,
            backoff_base=0.01,
            supervise_period=0.02,
        )
        ctl = FarmController(
            f, MinThroughputContract(500.0), control_period=0.05, max_workers=6
        )
        try:
            f.inject_crash()
            wait_until(lambda: f.num_workers == 1, message="crash detection")

            def pressure():
                for i in range(40):
                    f.submit(i)
                ctl.control_step()

            wait_until(
                lambda: f.num_workers >= 2,
                on_tick=pressure,
                interval=0.02,
                message="CheckRateLow to restore capacity",
            )
            assert any("addWorker" in a for _, a in ctl.actions)
        finally:
            f.shutdown()


class TestProcessTelemetry:
    def test_counters_aggregate_into_registry(self):
        tel = Telemetry()
        f = ProcessFarm(
            slow_square,
            initial_workers=2,
            heartbeat_period=0.05,
            heartbeat_timeout=0.5,
            backoff_base=0.01,
            supervise_period=0.02,
            telemetry=tel,
        )
        try:
            for i in range(20):
                f.submit(i)
            f.inject_crash()
            f.drain_results(20, timeout=60.0)
            wait_until(
                lambda: "repro_process_worker_crashes_total" in tel.metrics,
                message="crash counter to be registered",
            )
            crashes = tel.metrics.get("repro_process_worker_crashes_total")
            assert crashes.labels(farm=f.name).value >= 1
            replayed = tel.metrics.get("repro_process_tasks_replayed_total")
            assert replayed is None or replayed.labels(farm=f.name).value >= 0
            completed = tel.metrics.get("repro_process_worker_completed_tasks")
            assert completed is not None and completed.samples()
        finally:
            f.shutdown()
