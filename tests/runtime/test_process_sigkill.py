"""A ProcessFarm outlives its workers, whenever and however they die.

The farm this replaced shared one ``multiprocessing.Queue`` between all
workers; a worker SIGKILLed inside that queue's write lock kept it for
good, and every other worker — and every worker added later — then
blocked on its first result (154 wedges in 200 flat-out trials).  Each
forked worker now has its own socketpair, one writer per direction, so
there is no lock to die holding; these tests kill workers at random
instants of a flat-out result stream and require every task back,
exactly once.

Also here, the losses EOF does not announce: a SIGSTOPped worker is
found by heartbeat silence and killed; and a simulated coordinator crash
under load leaves a clean slate for its successor.
"""

import os
import random
import signal
import threading
import time

import pytest

from repro.runtime.process_farm import ProcessFarm

from .waiting import wait_until

#: unacknowledged tasks the feeder keeps ahead of the workers: enough that
#: both are always mid-write, little enough to drain in well under 10 s
BACKLOG = 4000


def echo(x):
    return x


def slow_echo(x):
    time.sleep(0.005)
    return x


class Feeder:
    """Submit 0, 1, 2, … flat out from a thread until stopped."""

    def __init__(self, farm):
        self.farm = farm
        self.count = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        farm = self.farm
        while not self._stop.is_set():
            if farm.submitted - farm.completed > BACKLOG:
                time.sleep(0.0005)
                continue
            farm.submit(self.count)
            self.count += 1

    def stop(self) -> int:
        self._stop.set()
        self._thread.join(10.0)
        assert not self._thread.is_alive()
        return self.count


def fast_farm(fn=echo, **overrides):
    options = dict(
        initial_workers=2,
        supervise_period=0.01,
        backoff_base=0.005,
        backoff_cap=0.02,
        max_attempts=50,  # a trial's kills must never exhaust a replay budget
    )
    options.update(overrides)
    return ProcessFarm(fn, **options)


def sigkill_trial(seed: int) -> None:
    """Two workers writing flat out, one SIGKILLed at a random instant,
    one added: every submitted task comes back exactly once within 10 s."""
    rng = random.Random(seed)
    farm = fast_farm()
    try:
        feeder = Feeder(farm)
        wait_until(lambda: farm.completed > 0, interval=0.0005, message="results flowing")
        time.sleep(rng.uniform(0.0, 0.02))
        victim = rng.choice([w for w in farm.workers if w.active])
        os.kill(victim.pid, signal.SIGKILL)
        farm.add_worker()
        time.sleep(rng.uniform(0.0, 0.02))
        total = feeder.stop()
        results = farm.drain_results(total, timeout=10.0)  # a wedge times out here
        assert sorted(results) == list(range(total)), f"seed {seed}"
        assert farm.completed == total and farm.results.empty()
        assert not farm.dead_letters
        assert [wid for _, wid in farm.crashes] == [victim.worker_id]
    finally:
        farm.shutdown()


class TestFlatOutSigkill:
    def test_twenty_trials(self):
        for seed in range(20):
            sigkill_trial(seed)

    @pytest.mark.chaos
    def test_two_hundred_trials(self):
        for seed in range(1000, 1200):
            sigkill_trial(seed)

    def test_inject_crash_under_load_leaves_no_wedged_successor(self):
        farm = fast_farm()
        try:
            feeder = Feeder(farm)
            for _ in range(5):
                wait_until(lambda: farm.num_workers >= 2, message="two serving workers")
                before = farm.completed
                assert farm.inject_crash() is not None
                successor = farm.add_worker()
                wait_until(
                    lambda: successor.reported_completed > 0 and farm.completed > before,
                    message="the successor to serve",
                )
            total = feeder.stop()
            assert sorted(farm.drain_results(total, timeout=10.0)) == list(range(total))
            assert len(farm.crashes) == 5 and not farm.dead_letters
        finally:
            farm.shutdown()

    def test_coordinator_crash_under_load_takes_the_children_with_it(self):
        farm = fast_farm()
        feeder = Feeder(farm)
        try:
            wait_until(lambda: farm.completed > 0, message="results flowing")
            workers = list(farm.workers)
            farm.crash()
            feeder.stop()
            assert all(not w.process.is_alive() for w in workers)
            assert farm.num_workers == 0
        finally:
            feeder.stop()
            farm.shutdown()
        successor = fast_farm()  # nothing of the dead one is in its way
        try:
            for i in range(100):
                successor.submit(i)
            assert sorted(successor.drain_results(100, timeout=10.0)) == list(range(100))
        finally:
            successor.shutdown()


class TestSilentLoss:
    def test_sigstopped_worker_is_found_by_silence_killed_and_replayed(self):
        """No EOF comes from a stopped process: ``supervise_once`` finds
        it by heartbeat silence, ``_sever`` kills it, its window replays."""
        farm = fast_farm(
            slow_echo, supervise_period=60.0, heartbeat_period=0.02, heartbeat_timeout=0.3
        )
        try:
            total = 100
            for i in range(total):
                farm.submit(i)
            victim = wait_until(
                lambda: next((w for w in farm.workers if w.outstanding), None),
                message="a worker to hold a window",
            )
            os.kill(victim.pid, signal.SIGSTOP)
            held = len(victim.outstanding)
            found = wait_until(farm.supervise_once, timeout=10.0, message="silence to be noticed")
            assert found == [victim.worker_id]
            assert not victim.active and not victim.outstanding
            assert farm.replays >= min(held, 1)
            wait_until(lambda: not victim.process.is_alive(), message="the kill to land")
            # with no background tick, the parked window goes out by hand
            wait_until(
                lambda: farm.completed == total,
                on_tick=farm.supervise_once,
                message="the replayed window",
            )
            assert sorted(farm.drain_results(total, timeout=10.0)) == list(range(total))
        finally:
            farm.shutdown()
