"""FarmCore on its own: a fake worker handle, an injected clock, and a
transport that only keeps books — no threads, processes or sockets.

What every farm inherits is pinned here once: the backoff schedule and
its cap, dead-lettering at ``max_attempts``, parking without serving
capacity, exactly-once completion, the replay's place in the trace and
the monitoring window.  The last class keeps it inherited.
"""

import pytest

from repro.obs.telemetry import Telemetry
from repro.runtime.dist_farm import DistFarm
from repro.runtime.farm_core import FarmCore
from repro.runtime.farm_runtime import ThreadFarm
from repro.runtime.process_farm import ProcessFarm


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class FakeWorker:
    def __init__(self, worker_id, quarantined=False):
        self.worker_id = worker_id
        self.active = True
        self.retiring = False
        self.quarantined = quarantined
        self.secured = False
        self.dispatched = 0
        self.outstanding = {}  # task id -> the dispatch span it went out under


class BookkeepingFarm(FarmCore):
    """The least transport that can lose a worker: sending is a list append."""

    def __init__(self, telemetry=None, **tuning):
        self.clock = FakeClock()
        super().__init__(
            "core", rate_window=1.0, max_workers=4, clock=self.clock,
            telemetry=telemetry, **tuning,
        )
        self.sent = []  # (task_id, worker_id), in dispatch order

    def add(self, quarantined=False):
        with self._lock:
            self._require_slot()
            return self._enroll(FakeWorker(self._next_id, quarantined))

    def submit(self, payload):
        with self._lock:
            record = self._track(payload, None, None)
            self._dispatch(record)
            return record

    def _dispatch(self, record):
        serving = self._serving()
        if not serving:
            self._park(record, self.now())
            return
        worker = serving[-1]
        self._begin_attempt(record, worker)
        worker.outstanding[record.task_id] = record.dispatch
        self.sent.append((record.task_id, worker.worker_id))
        self._count_dispatch(worker)

    def lose(self, worker):
        with self._lock:
            self._worker_lost(worker, self.now())

    def ack(self, worker, task_id, failed=False):
        """A result from ``worker``: its exec span lands under the attempt
        that worker was sent, then the core decides whether it counts."""
        with self._lock:
            dispatch = worker.outstanding.pop(task_id, None)
            if dispatch is not None:
                self.telemetry.end_span(
                    self.telemetry.start_span(
                        "task.exec",
                        context=dispatch.context.exec_child(worker.worker_id),
                    )
                )
            fresh = []
            self._complete(self.now(), [(task_id, None, failed)], fresh)
            return len(fresh) == 1

    def tick(self, dt):
        self.clock.t += dt
        return self._supervise_pass()


def metric(tel, name):
    family = tel.metrics.get(name)
    return 0 if family is None else family.labels(farm="core").value


class TestReplay:
    def test_backoff_doubles_up_to_the_cap(self):
        farm = BookkeepingFarm(backoff_base=0.1, backoff_cap=0.3, max_attempts=10)
        record = farm.submit("p")
        delays = []
        for _ in range(4):
            worker = farm.add()
            farm.tick(1.0)  # past any backoff: the parked task goes out
            assert record.worker_id == worker.worker_id
            farm.lose(worker)
            delays.append(record.next_retry_at - farm.now())
        assert delays == pytest.approx([0.1, 0.2, 0.3, 0.3])
        assert farm.replays == 4 and len(farm.crashes) == 4

    def test_a_replay_waits_out_its_backoff(self):
        farm = BookkeepingFarm(backoff_base=0.1)
        first, second = farm.add(), farm.add()
        record = farm.submit("p")
        assert farm.sent == [(0, second.worker_id)]
        farm.lose(second)
        farm.tick(0.05)
        assert record.worker_id is None, "released before its backoff elapsed"
        farm.tick(0.06)
        assert farm.sent[-1] == (0, first.worker_id) and record.attempts == 2

    def test_dead_letter_at_max_attempts_and_the_counters_agree(self):
        tel = Telemetry()
        farm = BookkeepingFarm(telemetry=tel, max_attempts=2)
        farm.submit("doomed")
        for _ in range(2):
            worker = farm.add()
            farm.tick(2.0)
            farm.lose(worker)
        (letter,) = farm.dead_letters
        assert (letter.payload, letter.attempts, letter.last_worker_id) == ("doomed", 2, 1)
        assert farm.replays == 1, "the second loss buried the task, it did not replay it"
        assert farm.snapshot().pending == 0, "dead letters are accounted out"
        farm.add()
        assert farm.tick(2.0) == [] and len(farm.sent) == 2, "a buried task went out again"
        assert metric(tel, "repro_farm_dead_letter_total") == 1
        assert metric(tel, "repro_farm_tasks_replayed_total") == farm.replays
        assert metric(tel, "repro_farm_worker_crashes_total") == len(farm.crashes)

    def test_parked_task_is_released_when_a_worker_is_admitted(self):
        farm = BookkeepingFarm()
        gated = farm.add(quarantined=True)
        record = farm.submit("p")
        assert farm.sent == [] and record.worker_id is None
        farm.tick(5.0)
        assert farm.sent == [], "a quarantined worker is never a candidate"
        assert farm.num_workers == 0 and farm.quarantined_workers == 1
        assert farm.admit_worker(gated.worker_id)
        assert farm.sent == [(0, gated.worker_id)]
        assert farm.num_workers == 1 and farm.quarantined_workers == 0


class TestExactlyOnce:
    def test_late_duplicate_is_dropped_but_its_exec_span_kept(self):
        tel = Telemetry()
        farm = BookkeepingFarm(telemetry=tel, backoff_base=0.1)
        survivor, victim = farm.add(), farm.add()
        farm.submit("p")
        first_attempt = victim.outstanding[0]
        farm.lose(victim)  # declared dead: silent, not gone
        farm.tick(0.2)
        assert farm.ack(survivor, 0) is True
        victim.outstanding[0] = first_attempt  # its ack was already in flight
        assert farm.ack(victim, 0) is False
        assert (farm.completed, farm.duplicates) == (1, 1)
        assert metric(tel, "repro_farm_duplicate_results_total") == 1
        execs = tel.spans.named("task.exec")
        assert len(execs) == 2, "both executions belong in the task's one tree"
        assert len({s.trace_id for s in execs}) == 1

    def test_replay_span_parents_under_the_failed_attempt(self):
        tel = Telemetry()
        farm = BookkeepingFarm(telemetry=tel, backoff_base=0.1)
        survivor, victim = farm.add(), farm.add()
        farm.submit("p")
        farm.lose(victim)
        farm.tick(0.2)
        farm.ack(survivor, 0)
        (root,) = tel.spans.named("task")
        failed, replay = tel.spans.named("task.dispatch")
        assert failed.parent_id == root.span_id
        assert replay.parent_id == failed.span_id
        assert failed.attributes["outcome"] == "crashed"
        assert (failed.attributes["attempt"], replay.attributes["attempt"]) == (1, 2)
        assert replay.attributes["outcome"] == root.attributes["outcome"] == "ok"


class TestMonitor:
    def test_snapshot_window_trims_latencies_and_rates(self):
        farm = BookkeepingFarm()
        worker = farm.add()
        farm.submit("p")
        farm.tick(0.5)
        farm.ack(worker, 0)
        snap = farm.snapshot()
        assert snap.mean_latency == pytest.approx(0.5)
        assert snap.departure_rate > 0 and snap.completed == 1 and snap.pending == 0
        farm.tick(1.0)  # the sample is now a full window old
        snap = farm.snapshot()
        assert snap.mean_latency == 0.0 and snap.departure_rate == 0.0
        assert not farm._latencies

    def test_windows_stay_bounded_on_a_farm_nobody_samples(self):
        farm = BookkeepingFarm()  # a 1 s window
        worker = farm.add()
        for task_id in range(50):  # five windows, never a snapshot
            farm.submit(task_id)
            farm.tick(0.1)
            farm.ack(worker, task_id)
        arrivals = farm.arrival_est._events
        departures = farm.departure_est._events
        latencies = [t for t, _ in farm._latencies]
        for events in (arrivals, departures, latencies):
            assert 0 < len(events) <= 11
            assert events[0] > events[-1] - farm.rate_window
        assert farm.arrival_est.total == farm.departure_est.total == 50
        snap = farm.snapshot()
        assert snap.completed == 50 and snap.mean_latency == pytest.approx(0.1)

    def test_queue_lengths_cover_serving_workers_only(self):
        farm = BookkeepingFarm()
        farm.add()
        farm.add(quarantined=True)
        farm.submit("a")
        farm.submit("b")
        snap = farm.snapshot()
        assert (snap.num_workers, snap.quarantined, snap.queue_lengths) == (1, 1, (2,))


class TestOneCopy:
    """A private copy of anything the core owns must not creep back."""

    FARMS = (ThreadFarm, ProcessFarm, DistFarm)

    @pytest.mark.parametrize(
        "name",
        ["snapshot", "drain_results", "now", "secure_all", "_track", "_begin_attempt",
         "_chain_dispatch", "_attempt_failed", "_worker_lost", "_release_due",
         "_complete", "_abandon_all", "_serving", "_find_worker", "_gauge_quarantined",
         "_pick_victim", "_count_dispatch"],
    )
    def test_methods_are_the_cores(self, name):
        for farm in self.FARMS:
            assert getattr(farm, name) is getattr(FarmCore, name), (farm, name)

    @pytest.mark.parametrize("name", ["num_workers", "quarantined_workers"])
    def test_properties_are_the_cores(self, name):
        for farm in self.FARMS:
            assert getattr(farm, name).fget is getattr(FarmCore, name).fget, (farm, name)

    #: the stream coordinator: written once, for every farm whose workers
    #: are processes — the two differ in how a worker comes by its stream
    STREAM = ["_fill", "_serve_connection", "_handle_message", "_absorb_result",
              "_record_exec", "_is_lost", "_sever", "secure_worker", "remove_worker",
              "shutdown", "balance_load", "supervise_once", "inject_crash", "submit",
              "_admit", "_on_disconnect", "_encode_dispatch", "_supervise_coro"]

    @pytest.mark.parametrize("name", STREAM)
    def test_process_workers_have_one_coordinator(self, name):
        assert getattr(ProcessFarm, name) is getattr(DistFarm, name), name
        assert name not in vars(ProcessFarm) and name not in vars(DistFarm), name

    def test_process_farm_keeps_no_transport_of_its_own(self):
        import ast
        import inspect

        from repro.runtime import process_farm

        tree = ast.parse(inspect.getsource(process_farm))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add("." * node.level + (node.module or ""))
        assert not imported & {
            "queue", "pickle", "signal", "..security.crypto", "..obs.propagation",
            "repro.security.crypto", "repro.obs.propagation",
        }, imported

    def test_process_farm_binds_nothing(self):
        farm = ProcessFarm(abs, initial_workers=1)
        try:
            assert farm.port == 0 and farm._server is None
            farm.submit(-3)
            assert farm.drain_results(1, timeout=30.0) == [3]
        finally:
            farm.shutdown()

    def test_importing_the_runtime_does_not_import_the_worker_entry_point(self):
        """``python -m repro.runtime.dist_worker`` is how a DistFarm starts
        a worker; runpy warns in each one if the package import already
        pulled the module in (the package resolves its exports on first
        access, ``ProcessFarm`` — which imports the worker — among them)."""
        import os
        import subprocess
        import sys

        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "repro.runtime.dist_worker", "--help"],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)},
            capture_output=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr.decode()
