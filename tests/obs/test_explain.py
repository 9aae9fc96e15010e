"""The ``python -m repro.obs.explain`` causal-chain CLI.

Drives ``main()`` against JSONL exports produced by a *real* crash
scenario on the process farm and a *real* two-phase intent round, so
the narrated chain (which rule fired, what the security manager
amended, quarantine → secure → admit) comes from spans the system
actually recorded — not fixtures shaped to please the parser.
"""

import io
import subprocess
import sys

import pytest

from repro.core.multiconcern import CoordinationMode, GeneralManager
from repro.obs import Telemetry
from repro.obs.explain import find_actuations, load, main
from repro.obs.export import write_trace_jsonl
from repro.rules.beans import ManagerOperation
from repro.runtime.controller import LiveFarmABC, WallTimeBase
from repro.runtime.farm_runtime import ThreadFarm
from repro.security.domains import SecurityPolicy
from repro.security.manager import SecurityABC, SecurityManager
from repro.sim.resources import Domain, ResourceManager, make_cluster

from ..runtime.test_backend_conformance import inject_fault, make_farm
from ..runtime.waiting import wait_until


def _run(path, *argv):
    out = io.StringIO()
    code = main([str(path), *argv], out=out)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def crash_trace(tmp_path_factory):
    """A process-farm run with one injected crash, exported to JSONL."""
    tel = Telemetry()
    farm = make_farm("process", initial_workers=3, telemetry=tel)
    try:
        total = 60
        for i in range(total):
            farm.submit((0.01, i))
        wait_until(
            lambda: farm.snapshot().completed >= 5,
            message="stream in flight before the fault",
        )
        assert inject_fault(farm) is not None
        assert len(farm.drain_results(total, timeout=120.0)) == total
    finally:
        farm.shutdown()
    path = tmp_path_factory.mktemp("explain") / "crash.jsonl"
    write_trace_jsonl(str(path), tel)
    # a task that was dispatched more than once must exist
    spans = tel.spans.spans
    replayed = None
    for span in spans:
        if span.name != "task":
            continue
        dispatches = [
            s
            for s in spans
            if s.trace_id == span.trace_id and s.name == "task.dispatch"
        ]
        if len(dispatches) >= 2:
            replayed = span
            break
    assert replayed is not None
    return path, replayed


@pytest.fixture(scope="module")
def intent_trace(tmp_path_factory):
    """A two-phase grow over untrusted nodes, exported to JSONL."""
    tel = Telemetry()
    farm = ThreadFarm(
        lambda x: x, initial_workers=1, max_workers=8, telemetry=tel
    )
    try:
        farm.secure_all()
        pool = make_cluster(4, prefix="u", domain=Domain("edge", trusted=False))
        abc = LiveFarmABC(farm, ResourceManager(pool))

        class Originator:
            name = "AM_perf"
            sim = WallTimeBase(farm.now)

        Originator.abc = abc
        security = SecurityManager(
            "AM_sec_live", WallTimeBase(farm.now),
            SecurityABC([abc], None, SecurityPolicy()), telemetry=tel, autostart=False,
        )
        gm = GeneralManager(
            mode=CoordinationMode.TWO_PHASE, telemetry=tel, name="GM_live"
        )
        gm.register(security)
        assert gm.execute_intent(
            Originator(), ManagerOperation.ADD_EXECUTOR, {"count": 2}
        )
    finally:
        farm.shutdown()
    path = tmp_path_factory.mktemp("explain") / "intent.jsonl"
    write_trace_jsonl(str(path), tel)
    return path


class TestOverviewAndIndexes:
    def test_overview_counts(self, crash_trace):
        path, _ = crash_trace
        code, text = _run(path)
        assert code == 0
        assert "trace(s)" in text and "task(s)" in text

    def test_list_traces(self, crash_trace):
        path, replayed = crash_trace
        code, text = _run(path, "--list-traces")
        assert code == 0
        assert replayed.trace_id in text

    def test_actuation_index(self, intent_trace):
        code, text = _run(intent_trace, "--actuations")
        assert code == 0
        assert "#1" in text and "mc.intent" in text
        assert "add_executor" in text


class TestTaskChain:
    def test_replayed_task_narrates_both_attempts(self, crash_trace):
        path, replayed = crash_trace
        task_id = replayed.attributes["task_id"]
        code, text = _run(path, "--task", str(task_id))
        assert code == 0
        assert "attempt 1" in text and "attempt 2" in text
        assert "crashed" in text and "replayed" in text
        assert "result: ok" in text
        # the worker-side execution span made it into the narrative
        assert "executed on" in text

    def test_trace_tree_by_prefix(self, crash_trace):
        path, replayed = crash_trace
        code, text = _run(path, "--trace", replayed.trace_id[:12])
        assert code == 0
        assert "task.dispatch" in text and "task.exec" in text

    def test_unknown_task_exits_2(self, crash_trace):
        path, _ = crash_trace
        code, text = _run(path, "--task", "99999")
        assert code == 2
        assert "no 'task' span" in text


class TestActuationChain:
    def test_intent_narrative_names_the_amendment(self, intent_trace):
        code, text = _run(intent_trace, "--actuation", "1")
        assert code == 0
        assert "AM_perf asked for add_executor" in text
        assert "committed" in text
        # what the security manager amended...
        assert "security manager amended nodes" in text
        assert "amended by reviewer" in text
        # ...and the §3.2 admission path per worker
        assert "quarantined on arrival" in text
        assert "channel secured" in text
        assert "admitted to the dispatch pool" in text

    def test_actuations_found_without_mape_cycle(self, intent_trace):
        spans = load(str(intent_trace))
        acts = find_actuations(spans)
        assert len(acts) == 1 and acts[0].name == "mc.intent"

    def test_unknown_actuation_exits_2(self, intent_trace):
        code, text = _run(intent_trace, "--actuation", "7")
        assert code == 2
        assert "no actuation #7" in text


class TestSloNarrative:
    @pytest.fixture(scope="class")
    def slo_trace(self, tmp_path_factory):
        """A scripted SLO alert episode with one adaptation cycle."""
        from repro.core.contracts import MinThroughputContract
        from repro.obs.clock import ManualClock
        from repro.obs.slo import SLO, BurnWindows, SLOEngine
        from repro.obs.timeseries import TimeSeriesStore

        clock = ManualClock()
        tel = Telemetry(clock)
        g = tel.metrics.gauge("repro_farm_departure_rate", "r").labels(manager="AM_t")
        store = TimeSeriesStore(tel.metrics, clock, interval=0.5)

        def sample(s, now):
            v = s.latest("repro_farm_departure_rate", {"manager": "AM_t"})
            return {} if v is None else {"departure_rate": v}

        engine = SLOEngine(
            tel,
            store,
            [SLO("t", MinThroughputContract(40.0), sample)],
            windows=BurnWindows().scaled(1.0 / 150.0),
        )
        g.set(50.0)
        for _ in range(8):
            clock.advance(0.5)
            store.scrape_once()
        g.set(5.0)
        for i in range(10):
            clock.advance(0.5)
            store.scrape_once()
            if i == 3:
                tel.adaptation.plan_committed("addWorker", manager="AM_t")
        g.set(50.0)
        for _ in range(120):
            clock.advance(0.5)
            store.scrape_once()
        engine.close()
        path = tmp_path_factory.mktemp("slo") / "trace.jsonl"
        write_trace_jsonl(str(path), tel)
        return path

    def test_alert_episode_narrated_end_to_end(self, slo_trace):
        code, text = _run(slo_trace, "--slo")
        assert code == 0
        assert "SLO 't'" in text
        assert "burn" in text and "budget" in text
        assert "plan committed: addWorker" in text
        assert "effect visible" in text
        assert "resolved after" in text
        assert "budget burned" in text

    def test_overview_advertises_the_flag(self, slo_trace):
        code, text = _run(slo_trace)
        assert code == 0
        assert "SLO alert episode(s) — see --slo" in text

    def test_no_alerts_exits_2(self, intent_trace):
        code, text = _run(intent_trace, "--slo")
        assert code == 2
        assert "no 'slo.alert' span" in text


class TestModuleEntryPoint:
    def test_python_dash_m_runs(self, crash_trace):
        """The documented invocation works end to end as a subprocess."""
        path, replayed = crash_trace
        task_id = replayed.attributes["task_id"]
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.obs.explain",
                str(path),
                "--task",
                str(task_id),
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "attempt 2" in proc.stdout

    def test_missing_file_exits_1(self):
        code = main(["/nonexistent/trace.jsonl"], out=io.StringIO())
        assert code == 1
