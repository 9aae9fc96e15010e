"""Integration tests: FAULT (worker-crash injection and recovery)."""

import pytest

from repro.core.events import Events
from repro.experiments.failures import run_faults
from repro.experiments.report import render_faults
from repro.sim.engine import Simulator
from repro.sim.farm import SimFarm
from repro.sim.resources import make_cluster
from repro.sim.workload import ConstantWork, finite_stream


@pytest.fixture(scope="module")
def result():
    return run_faults()


class TestFaultExperiment:
    def test_crashes_injected(self, result):
        assert result.crashes == len(result.config.crash_times) * result.config.crashes_per_event

    def test_no_task_lost(self, result):
        assert result.no_task_lost
        assert result.completed == result.config.total_tasks

    def test_inflight_tasks_recovered(self, result):
        assert result.recovered_tasks >= result.crashes  # >=1 in flight each

    def test_replacements_recruited(self, result):
        assert result.replacements > 0

    def test_capacity_recovered(self, result):
        assert result.capacity_recovered

    def test_crash_marks_are_made_outside_any_span(self, result):
        """The chaos callback runs from the simulator's queue with no span
        open: its marks are orphans, yet read back in order among the
        managers' marks (the AM_F additions that answer each crash)."""
        crashes = result.trace.events_of("chaos", "workerCrash")
        assert [e.time for e in crashes] == [
            t for t in result.config.crash_times for _ in range(result.config.crashes_per_event)
        ]
        orphans = result.bs.manager.telemetry.orphan_events
        assert [(e.actor, e.name) for e in orphans] == [("chaos", "workerCrash")] * len(crashes)
        names = result.trace.event_names()
        assert Events.ADD_WORKER in names[names.index("workerCrash") :]

    def test_render(self, result):
        text = render_faults(result)
        assert "FAULT" in text
        assert "no task lost" in text


class TestFailWorkerMechanism:
    def _farm(self, n=3):
        sim = Simulator()
        nodes = make_cluster(n + 1)
        farm = SimFarm(sim, emitter_node=nodes[0], worker_setup_time=0.0)
        for node in nodes[1:]:
            farm.add_worker(node)
        return sim, farm

    def test_crash_mid_task_replays_task(self):
        sim, farm = self._farm(n=1)
        for t in finite_stream(2, ConstantWork(10.0)):
            farm.submit(t)
        sim.run(until=5.0)  # worker mid-task 0
        victim = farm.workers[0]
        recovered = farm.fail_worker(victim)
        assert recovered >= 1
        assert victim._stopped
        # a fresh worker finishes everything, including the replayed task
        farm.add_worker(make_cluster(1, prefix="spare")[0])
        sim.run(until=60.0)
        assert farm.completed == 2

    def test_crash_migrates_queue_to_survivors(self):
        sim, farm = self._farm(n=2)
        for t in finite_stream(10, ConstantWork(100.0)):
            farm.submit(t)
        sim.run(until=1.0)
        victim = farm.workers[0]
        queued_before = len(victim.queue)
        assert queued_before > 0
        farm.fail_worker(victim)
        assert len(victim.queue) == 0
        assert farm.num_workers == 1

    def test_crash_sole_worker_requeues_to_input(self):
        sim, farm = self._farm(n=1)
        for t in finite_stream(5, ConstantWork(100.0)):
            farm.submit(t)
        sim.run(until=1.0)
        farm.fail_worker(farm.workers[0])
        # let the emitter return the task it had in hand to the input
        sim.run(until=2.0)
        # everything is back in the input store or replayed there
        assert farm.pending == 5
        assert farm.num_workers == 0

    def test_double_crash_is_noop(self):
        sim, farm = self._farm(n=2)
        victim = farm.workers[0]
        assert farm.fail_worker(victim) == 0 or True  # first crash
        assert farm.fail_worker(victim) == 0          # second is a no-op
        assert farm.failures == 1

    def test_failures_counter(self):
        sim, farm = self._farm(n=3)
        farm.fail_worker(farm.workers[0])
        farm.fail_worker(farm.workers[1])
        assert farm.failures == 2
