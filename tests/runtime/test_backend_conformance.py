"""Cross-backend conformance: every FarmBackend keeps the same promises.

The whole point of PR 2's :class:`~repro.runtime.backend.FarmBackend`
protocol is that the unmodified Figure 5 rules can drive *any*
substrate.  That only holds if the substrates are behaviourally
interchangeable, not just structurally typed — so this suite runs one
set of invariant checks across all of them:

* **no result loss across grow/shrink** — actuator calls mid-stream
  never drop a task;
* **exactly-once results after an injected fault** — a crash (SIGKILL
  on the process farm, a severed TCP connection on the dist farm) is
  replayed at-least-once underneath and deduplicated to exactly-once
  outward;
* **monotone completed count** — ``snapshot().completed`` never goes
  backwards, whatever thread observes it;
* **admission gate holds under pressure** — a worker added quarantined
  receives not a single task, through fresh submits, rebalances and
  fault replays alike, until ``admit_worker`` lifts the gate;
* **clean shutdown** — no worker thread, child process or listening
  socket survives ``shutdown()``;
* **one worker id** — ``add_worker(worker_id=k)`` enrolls the worker
  under ``k``, and an id already enrolled is refused.

``sim`` appears in the parameter list for completeness but every test
skips it: the simulator shares the *rule* surface, not the wall-clock
``FarmBackend`` one, and its invariants live in ``tests/sim``.  The
``thread`` backend skips the crash test only — its workers share the
interpreter, so there is no injectable crash that would not take the
test process down with it.

Run a single backend with, e.g.::

    PYTHONPATH=src python -m pytest tests/runtime/test_backend_conformance.py -k dist
"""

import os
import socket
import threading
import time

import pytest

from repro.obs import Telemetry, build_trace_tree
from repro.runtime.dist_farm import DistFarm
from repro.runtime.farm_runtime import ThreadFarm
from repro.runtime.process_farm import ProcessFarm
from repro.runtime.supervision import SupervisedFarm, Supervisor

from .waiting import wait_until

pytestmark = pytest.mark.conformance

BACKENDS = ("sim", "thread", "process", "dist")


def conf_task(payload):
    """Module-level so it crosses the process/TCP boundary by name."""
    work, value = payload
    if work:
        time.sleep(work)
    return value * value


def make_farm(
    backend: str,
    *,
    initial_workers: int = 2,
    max_workers: int = 8,
    telemetry: Telemetry = None,
):
    """One farm per backend, tuned for fast fault detection in tests."""
    fault_tuning = dict(
        heartbeat_period=0.05,
        # loose on purpose: the injected faults are detected by process
        # exit / connection EOF, not heartbeat staleness, and a tight
        # staleness bound falsely kills live workers on loaded runners
        heartbeat_timeout=2.0,
        supervise_period=0.02,
        backoff_base=0.02,
        backoff_cap=0.2,
    )
    if backend == "thread":
        return ThreadFarm(
            conf_task,
            initial_workers=initial_workers,
            max_workers=max_workers,
            rate_window=0.5,
            telemetry=telemetry,
        )
    if backend == "process":
        return ProcessFarm(
            conf_task,
            initial_workers=initial_workers,
            max_workers=max_workers,
            rate_window=0.5,
            telemetry=telemetry,
            **fault_tuning,
        )
    if backend == "dist":
        return DistFarm(
            conf_task,
            initial_workers=initial_workers,
            max_workers=max_workers,
            rate_window=0.5,
            telemetry=telemetry,
            **fault_tuning,
        )
    raise ValueError(f"unknown backend {backend!r}")


def inject_fault(farm):
    """The substrate-appropriate worker fault; None where not injectable."""
    if isinstance(farm, DistFarm):
        return farm.drop_connection()
    if isinstance(farm, ProcessFarm):
        return farm.inject_crash()
    return None


@pytest.fixture(params=BACKENDS)
def backend(request):
    if request.param == "sim":
        pytest.skip(
            "simulated substrate: wall-clock FarmBackend invariants do not "
            "apply; the simulator's own invariants live in tests/sim"
        )
    return request.param


class TestNoLossAcrossGrowShrink:
    def test_actuators_mid_stream_lose_nothing(self, backend):
        farm = make_farm(backend)
        try:
            total = 120
            for i in range(total):
                farm.submit((0.003, i))
                if i in (30, 50):
                    farm.add_worker()
                if i == 80:
                    farm.remove_worker()
            results = farm.drain_results(total, timeout=60.0)
            assert sorted(r for r in results if not isinstance(r, Exception)) == [
                i * i for i in range(total)
            ]
            assert farm.snapshot().completed == total
        finally:
            farm.shutdown()

    def test_shrink_to_floor_keeps_serving(self, backend):
        """remove_worker refuses to kill the last worker; the stream
        keeps flowing at degree one."""
        farm = make_farm(backend, initial_workers=2)
        try:
            assert farm.remove_worker() is not None
            assert farm.remove_worker() is None  # never below one
            for i in range(20):
                farm.submit((0.0, i))
            results = farm.drain_results(20, timeout=30.0)
            assert sorted(results) == [i * i for i in range(20)]
        finally:
            farm.shutdown()


class TestWorkerId:
    def test_add_worker_enrolls_under_the_given_id(self, backend):
        """A supervisor's id is the farm's id for the worker; one already
        enrolled is refused before anything is started for it, and the
        farm's own numbering goes on past the ids it was given."""
        farm = make_farm(backend, initial_workers=1)
        try:
            assert farm.add_worker(worker_id=5).worker_id == 5
            for taken in (0, 5):
                with pytest.raises(ValueError):
                    farm.add_worker(worker_id=taken)
            assert farm.add_worker().worker_id == 6
            assert [w.worker_id for w in farm.workers] == [0, 5, 6]
            for i in range(20):
                farm.submit((0.0, i))
            assert sorted(farm.drain_results(20, timeout=30.0)) == [i * i for i in range(20)]
        finally:
            farm.shutdown()


class TestExactlyOnceAfterCrash:
    def test_injected_fault_dedupes_to_exactly_once(self, backend):
        if backend == "thread":
            pytest.skip(
                "thread workers share the interpreter: no injectable crash "
                "that would not take the test process down too"
            )
        farm = make_farm(backend, initial_workers=3)
        try:
            total = 90
            for i in range(total):
                farm.submit((0.01, i))
            # fault once the stream is genuinely in flight
            wait_until(
                lambda: farm.snapshot().completed >= 5,
                message="stream in flight before the fault",
            )
            assert inject_fault(farm) is not None
            results = farm.drain_results(total, timeout=120.0)
            assert len(results) == total  # exactly-once: no dup padding
            assert sorted(r for r in results if not isinstance(r, Exception)) == [
                i * i for i in range(total)
            ]
            assert farm.crashes, "the fault must be detected and recorded"
            assert not farm.dead_letters
        finally:
            farm.shutdown()


class TestMonotoneCompleted:
    def test_completed_count_never_decreases(self, backend):
        farm = make_farm(backend)
        samples = []
        try:
            total = 60
            for i in range(total):
                farm.submit((0.002, i))

            def observe():
                samples.append(farm.snapshot().completed)
                return samples[-1] >= total

            wait_until(
                observe, interval=0.005, message="stream completion while sampling"
            )
            farm.drain_results(total, timeout=30.0)
            assert all(b >= a for a, b in zip(samples, samples[1:]))
            assert samples[-1] == total
        finally:
            farm.shutdown()


class TestAdmissionGate:
    def test_quarantined_worker_never_dispatched(self, backend):
        """The multi-concern invariant at substrate level: a quarantined
        worker is live but invisible to every dispatch path — fresh
        submits, rebalancing, and the replay traffic of an injected
        fault — until admit_worker lifts the gate."""
        farm = make_farm(backend, initial_workers=2, max_workers=8)
        try:
            gated = farm.add_worker(quarantined=True)
            assert farm.quarantined_workers == 1
            assert farm.num_workers == 2  # serving capacity excludes the gate
            total = 60
            for i in range(total):
                farm.submit((0.005, i))
                if i == 20 and backend != "thread":
                    wait_until(
                        lambda: farm.snapshot().completed >= 5,
                        message="stream in flight before the fault",
                    )
                    assert inject_fault(farm) is not None
                if i == 40:
                    farm.balance_load()
            results = farm.drain_results(total, timeout=120.0)
            assert sorted(r for r in results if not isinstance(r, Exception)) == [
                i * i for i in range(total)
            ]
            assert gated.dispatched == 0, (
                "a task crossed the admission gate"
            )
            # lifting the gate makes the worker a normal dispatch target
            assert farm.admit_worker(gated.worker_id)
            assert farm.quarantined_workers == 0
            # the dist worker process may still be booting: tasks can
            # only reach it once its TCP link is up, so wait for that
            # before submitting the batch whose distribution we assert on
            if hasattr(gated, "connected"):
                wait_until(
                    lambda: gated.connected,
                    message="admitted worker should connect",
                )
            more = 40
            for i in range(total, total + more):
                farm.submit((0.005, i))
            results = farm.drain_results(more, timeout=60.0)
            assert sorted(r for r in results if not isinstance(r, Exception)) == [
                i * i for i in range(total, total + more)
            ]
            assert gated.dispatched > 0, "admitted worker never served"
            assert not getattr(farm, "dead_letters", [])
        finally:
            farm.shutdown()

    def test_admitted_unknown_worker_is_refused(self, backend):
        farm = make_farm(backend, initial_workers=1)
        try:
            assert farm.admit_worker(999) is False
            assert farm.secure_worker(999) is False
        finally:
            farm.shutdown()


class TestCleanShutdown:
    def test_no_leaked_threads_processes_or_sockets(self, backend):
        before = set(threading.enumerate())
        farm = make_farm(backend)
        for i in range(20):
            farm.submit((0.002, i))
        farm.drain_results(20, timeout=30.0)
        port = getattr(farm, "port", None)
        children = [
            w.process
            for w in getattr(farm, "workers", [])
            if getattr(w, "process", None) is not None
        ]
        farm.shutdown()
        # no child process survives (subprocess.Popen or multiprocessing)
        for proc in children:
            alive = proc.is_alive() if hasattr(proc, "is_alive") else proc.poll() is None
            assert not alive, f"worker pid {proc.pid} still alive"
        # every thread the farm started has retired
        wait_until(
            lambda: all(
                not t.is_alive() for t in set(threading.enumerate()) - before
            ),
            message="farm threads retiring after shutdown",
        )
        # the coordinator socket no longer accepts connections
        if port:
            with pytest.raises(OSError):
                socket.create_connection(("127.0.0.1", port), timeout=0.5)

    def test_shutdown_is_idempotent(self, backend):
        farm = make_farm(backend)
        farm.shutdown()
        farm.shutdown()  # second call must be a clean no-op

    def test_no_open_spans_after_clean_shutdown(self, backend):
        """shutdown() flushes telemetry: every span the farm opened is
        closed afterwards, on every substrate."""
        tel = Telemetry()
        farm = make_farm(backend, telemetry=tel)
        try:
            for i in range(20):
                farm.submit((0.002, i))
            results = farm.drain_results(20, timeout=30.0)
            assert len(results) == 20
        finally:
            farm.shutdown()
        assert tel.spans.open_spans() == []
        assert len(tel.spans.spans) > 0, "telemetry recorded nothing"


class TestTraceTreeAcrossFaults:
    """The tentpole acceptance invariant: a crashed-then-replayed task is
    ONE trace tree — submit, first dispatch, crash, replay dispatch
    (parented under the dispatch it supersedes) and the final execution,
    all under a single root span sharing a single trace id."""

    def _replayed_traces(self, tel):
        """All traces holding more than one dispatch attempt."""
        out = []
        for trace_id in tel.spans.trace_ids():
            spans = tel.spans.trace(trace_id)
            dispatches = [s for s in spans if s.name == "task.dispatch"]
            if len(dispatches) >= 2:
                out.append((trace_id, spans, dispatches))
        return out

    def _assert_single_tree(self, tel, trace_id, spans, dispatches):
        by_id = {s.span_id: s for s in spans}
        roots = [s for s in spans if s.parent_id is None]
        assert len(roots) == 1, f"trace {trace_id} has {len(roots)} roots"
        assert roots[0].name == "task"
        # every span's parent resolves inside the same trace
        for span in spans:
            if span.parent_id is not None:
                assert span.parent_id in by_id, (
                    f"{span.name} span {span.span_id} has dangling parent "
                    f"{span.parent_id}"
                )
        # the dispatch attempts form a chain: exactly one hangs off the
        # task root, every other one is parented under the dispatch it
        # superseded (the crashed/refused/stolen attempt)
        dispatch_ids = {s.span_id for s in dispatches}
        off_root = [s for s in dispatches if s.parent_id == roots[0].span_id]
        assert len(off_root) == 1, "replay chain must start at the task root"
        for span in dispatches:
            if span is not off_root[0]:
                assert span.parent_id in dispatch_ids, (
                    "replay dispatch must be parented under the attempt "
                    "it supersedes"
                )
        # a superseded attempt is closed with the reason it ended
        outcomes = {s.attributes.get("outcome") for s in dispatches}
        assert outcomes & {"crashed", "refused", "redispatched", "rebalanced"}
        # the winning attempt completed the task
        assert "ok" in outcomes
        assert roots[0].attributes.get("outcome") == "ok"
        # and the whole thing renders as one tree
        tree = build_trace_tree(tel.spans.spans, trace_id)
        assert len(tree) == 1
        assert tree[0]["name"] == "task"

    def test_crashed_task_replay_is_one_tree(self, backend):
        if backend == "thread":
            pytest.skip(
                "thread workers share the interpreter: no injectable "
                "crash; replay chaining is covered by the shrink test"
            )
        tel = Telemetry()
        farm = make_farm(backend, initial_workers=3, telemetry=tel)
        try:
            total = 90
            for i in range(total):
                farm.submit((0.01, i))
            wait_until(
                lambda: farm.snapshot().completed >= 5,
                message="stream in flight before the fault",
            )
            assert inject_fault(farm) is not None
            results = farm.drain_results(total, timeout=120.0)
            assert len(results) == total
        finally:
            farm.shutdown()

        replayed = self._replayed_traces(tel)
        assert replayed, "fault produced no re-dispatched task"
        for trace_id, spans, dispatches in replayed:
            self._assert_single_tree(tel, trace_id, spans, dispatches)
            # the worker-side execution span of the winning attempt was
            # shipped back over the boundary and re-parented in
            execs = [s for s in spans if s.name == "task.exec"]
            assert execs, "no worker-side exec span crossed the boundary"
            dispatch_ids = {s.span_id for s in dispatches}
            assert all(s.parent_id in dispatch_ids for s in execs)

    def test_shrink_redispatch_is_one_tree(self, backend):
        """The fault-free replay path: the thread farm's remove_worker()
        re-queues the retired worker's backlog, and each moved task
        stays one tree.  Process/dist retire gracefully (the poison
        queues *behind* the backlog, which drains in place), so this
        redispatch path exists only on the thread substrate — its crash
        coverage lives in test_crashed_task_replay_is_one_tree."""
        if backend != "thread":
            pytest.skip(
                "graceful retirement drains the backlog in place on this "
                "substrate: nothing is redispatched by remove_worker"
            )
        tel = Telemetry()
        farm = make_farm(backend, initial_workers=2, telemetry=tel)
        try:
            total = 60
            for i in range(total):
                farm.submit((0.01, i))
            wait_until(
                lambda: farm.snapshot().completed >= 3,
                message="stream in flight before the shrink",
            )
            assert farm.remove_worker() is not None
            results = farm.drain_results(total, timeout=120.0)
            assert len(results) == total
        finally:
            farm.shutdown()

        replayed = self._replayed_traces(tel)
        assert replayed, "shrink moved no queued task"
        for trace_id, spans, dispatches in replayed:
            self._assert_single_tree(tel, trace_id, spans, dispatches)


# ----------------------------------------------------------------------
# chaos tier: the coordinator itself is the fault (opt-in: -m chaos)
# ----------------------------------------------------------------------


#: the supervised farms the running test has made, for its teardown
_SUPERVISED = []


def make_supervised(backend, journal_path, telemetry=None, *, initial_workers=2):
    """A journaled SupervisedFarm + Supervisor pair tuned for fast chaos.

    The supervisor's heartbeat window is deliberately tight so a crashed
    coordinator is detected and failed over within tens of milliseconds;
    the worker-fault tuning mirrors :func:`make_farm`.
    """
    farm_options = dict(rate_window=0.5)
    if backend in ("process", "dist"):
        farm_options.update(
            heartbeat_period=0.05,
            heartbeat_timeout=2.0,
            supervise_period=0.02,
            backoff_base=0.02,
            backoff_cap=0.2,
        )
    farm = SupervisedFarm(
        conf_task,
        backend=backend,
        journal_path=str(journal_path),
        name=f"chaos-{backend}",
        initial_workers=initial_workers,
        max_workers=8,
        telemetry=telemetry,
        farm_options=farm_options,
    )
    _SUPERVISED.append(farm)
    supervisor = Supervisor(
        farm, check_period=0.02, heartbeat_timeout=0.5, telemetry=telemetry
    ).start()
    return farm, supervisor


def tcp_rows(port):
    """The ``/proc/net/tcp{,6}`` rows whose local or remote port is ``port``."""
    tag = f":{port:04X}"
    rows = []
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table) as f:
                lines = f.read().splitlines()[1:]
        except OSError:
            continue
        rows += [
            f"{table}: {line.strip()}"
            for line in lines
            if any(field.endswith(tag) for field in line.split()[1:3])
        ]
    return rows


def live_dist_workers(port):
    """The pids of this process's children that run a dist worker dialling
    ``port`` and have not exited (zombies excluded)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                state, ppid = f.read().rsplit(")", 1)[1].split()[:2]
            with open(f"/proc/{entry}/cmdline", "rb") as f:
                argv = f.read().split(b"\0")
        except OSError:
            continue  # exited while being read
        if (
            int(ppid) == os.getpid()
            and state != "Z"
            and b"repro.runtime.dist_worker" in argv
            and str(port).encode() in argv
        ):
            pids.append(int(entry))
    return pids


@pytest.fixture(autouse=True)
def dist_rebind_diagnostics(request):
    """When a test over a dist supervised farm fails, its teardown prints
    what held the farm's port once the test had shut it down: the TCP
    table rows for the port and the dist workers still alive.  Reads
    only — the standby rebinding the port is where ``EADDRINUSE`` was
    seen."""
    yield
    farms, _SUPERVISED[:] = list(_SUPERVISED), []
    report = getattr(request.node, "rep_call", None)
    if report is None or not report.failed:
        return
    for farm in farms:
        if farm.backend == "dist":
            port = farm._listen_port
            print(f"{farm.name}: listen port {port}")
            print("\n".join(tcp_rows(port)) or "no TCP table row names the port")
            print(f"dist workers alive after shutdown(): {live_dist_workers(port)}")


def assert_supervised_trees(tel, sup_name, total):
    """Every sid is ONE coherent tree across coordinator incarnations.

    Shape: root ``task`` (supervisor-owned, stable sid) → one
    ``task.attempt`` per incarnation that dispatched it → the dispatch
    chain.  Returns how many trees actually crossed a coordinator crash
    (an attempt closed ``coordinator-crashed`` superseded by a later
    winning attempt).
    """
    spans = tel.spans.spans
    roots = [s for s in spans if s.name == "task" and s.actor == sup_name]
    assert len(roots) == total, "one task root per submitted sid"
    crossed = 0
    for root in roots:
        assert root.attributes.get("outcome") == "ok", (
            f"task {root.attributes.get('task_id')} never recovered"
        )
        members = tel.spans.trace(root.trace_id)
        in_trace_roots = [s for s in members if s.parent_id is None]
        assert in_trace_roots == [root], "exactly one root per trace"
        by_id = {s.span_id for s in members}
        for span in members:
            if span.parent_id is not None:
                assert span.parent_id in by_id, (
                    f"{span.name} span has a dangling parent across the crash"
                )
        attempts = [s for s in members if s.name == "task.attempt"]
        assert attempts, "supervised submission must open an attempt layer"
        outcomes = [a.attributes.get("outcome") for a in attempts]
        assert "ok" in outcomes, "no incarnation completed the task"
        if "coordinator-crashed" in outcomes:
            crossed += 1
        tree = build_trace_tree(spans, root.trace_id)
        assert len(tree) == 1 and tree[0]["name"] == "task"
    return crossed


def assert_exactly_once(results, total):
    assert len(results) == total, "lost or duplicated deliveries"
    assert sorted(r for r in results if not isinstance(r, Exception)) == [
        i * i for i in range(total)
    ]


@pytest.mark.chaos
class TestChaosCoordinatorCrash:
    """Kill the whole coordinator stack mid-run, on every backend."""

    def test_kill_coordinator_mid_run(self, backend, tmp_path):
        tel = Telemetry()
        farm, supervisor = make_supervised(backend, tmp_path / "journal.jsonl", tel)
        try:
            gated = farm.add_worker(quarantined=True)
            assert farm.quarantined_workers == 1
            total = 80
            for i in range(total):
                farm.submit((0.01, i))
            wait_until(
                lambda: farm.completed >= 10,
                message="stream in flight before the crash",
            )
            supervisor.crash_coordinator()
            wait_until(
                lambda: supervisor.failovers >= 1,
                message="supervisor restarting the coordinator",
            )
            results = farm.drain_results(total, timeout=120.0)
            assert_exactly_once(results, total)
            assert farm.completed == total
            assert farm.redispatched > 0, "nothing was in flight at the crash"
            # the quarantined-but-unadmitted worker stayed gated through
            # the journal replay: still quarantined, still task-free
            assert farm.quarantined_workers == 1
            (rebuilt,) = [w for w in farm.farm.workers if w.worker_id == gated.worker_id]
            assert rebuilt.quarantined
            assert rebuilt.dispatched == 0, "a task crossed the gate via failover"
            # metrics tell the same story as the counters
            failovers_metric = tel.metrics.counter(
                "repro_sup_failovers_total", ""
            ).labels(farm=farm.name).value
            assert failovers_metric >= 1
        finally:
            supervisor.stop()
            farm.shutdown()
        crossed = assert_supervised_trees(tel, farm.name, total)
        assert crossed > 0, "no trace crossed the coordinator crash"
        assert tel.spans.open_spans() == []


@pytest.mark.chaos
class TestChaosPartition:
    """Partition the dist coordinator from half its workers, then kill
    the coordinator too: replay + standby takeover must still deliver
    every task exactly once."""

    def test_partition_then_coordinator_crash(self, tmp_path):
        tel = Telemetry()
        farm, supervisor = make_supervised(
            "dist", tmp_path / "journal.jsonl", tel, initial_workers=4
        )
        try:
            total = 80
            for i in range(total):
                farm.submit((0.01, i))
            wait_until(
                lambda: farm.completed >= 5,
                message="stream in flight before the partition",
            )
            # sever half the farm's connections: the coordinator declares
            # them dead and replays their in-flight tasks on the survivors
            victims = [w.worker_id for w in farm.farm.workers if w.connected][:2]
            assert len(victims) == 2
            dropped = [farm.farm.drop_connection(wid) for wid in victims]
            assert dropped == victims
            wait_until(
                lambda: len(farm.farm.crashes) >= 2,
                message="partitioned workers declared dead",
            )
            # now the coordinator itself dies; the standby adopts the
            # surviving connected workers and replays the journal
            supervisor.crash_coordinator()
            wait_until(
                lambda: supervisor.failovers >= 1,
                message="standby promotion after the partition",
            )
            results = farm.drain_results(total, timeout=120.0)
            assert_exactly_once(results, total)
            assert farm.completed == total
        finally:
            supervisor.stop()
            farm.shutdown()
        crossed = assert_supervised_trees(tel, farm.name, total)
        assert crossed > 0, "no trace crossed the coordinator crash"


@pytest.mark.chaos
class TestChaosWorkerCrashDuringFailover:
    """A worker dies in the failover window, while its peers are still
    reattaching — the replay of the replay must still be exactly-once."""

    def test_worker_crash_in_failover_window(self, backend, tmp_path):
        if backend == "thread":
            pytest.skip(
                "thread workers share the interpreter: no injectable crash "
                "that would not take the test process down too"
            )
        tel = Telemetry()
        farm, supervisor = make_supervised(
            backend, tmp_path / "journal.jsonl", tel, initial_workers=3
        )
        try:
            total = 80
            for i in range(total):
                farm.submit((0.01, i))
            wait_until(
                lambda: farm.completed >= 10,
                message="stream in flight before the crash",
            )
            supervisor.crash_coordinator()
            wait_until(
                lambda: supervisor.failovers >= 1,
                message="supervisor restarting the coordinator",
            )
            # fault the first worker of the fresh incarnation the moment
            # one is live enough to be faulted
            wait_until(
                lambda: inject_fault(farm.farm) is not None,
                message="worker fault in the failover window",
            )
            results = farm.drain_results(total, timeout=120.0)
            assert_exactly_once(results, total)
            assert farm.completed == total
            assert farm.redispatched > 0
        finally:
            supervisor.stop()
            farm.shutdown()
        assert_supervised_trees(tel, farm.name, total)
        assert tel.spans.open_spans() == []
