"""Every live governor loop ticks on one kind of thread: a ``WallTimeBase`` ticker.

A manager that grew its own loop thread would need its own stop, its
own error handling and its own supervision; one ticker per loop is
what a supervised-loop helper can wrap.  This pins that shape on the
busiest live stacks — ``fig4 --backend thread --with-security``, where a
performance and a security manager run side by side, a shard tree whose
parent steers two shard managers, and a supervisor over its farm's
controller — and pins which modules may start a thread at all.
"""

import ast
import contextlib
import threading
from pathlib import Path

import repro
from repro.core.contracts import ThroughputRangeContract
from repro.experiments.fig4_live import Fig4LiveConfig, _build_stack, live_task
from repro.runtime.controller import _Ticker
from repro.runtime.hierarchy import ShardedFarm
from repro.runtime.supervision import SupervisedFarm, Supervisor

#: every module under ``src/repro/runtime/`` that starts threads, and how
#: many places in it do: the data plane, plus the ticker itself
RUNTIME_THREADS = {
    "active_object.py": 1,  # the active object's server
    "controller.py": 2,  # _Ticker, and WallTimeBase.schedule's one-shot timer
    "dist_farm.py": 1,  # the coordinator's loop
    "dist_worker.py": 1,  # the worker heartbeat
    "farm_runtime.py": 1,  # a thread-farm worker
    "hierarchy/wire.py": 2,  # a shard agent's accept loop and its connections
    "pipeline_runtime.py": 1,  # a pipeline stage
    "supervision/journal.py": 1,  # the journal committer
    "supervision/supervisor.py": 1,  # the supervised result pump
}


def _live_tickers():
    return [t for t in threading.enumerate() if isinstance(t, _Ticker)]


def _thread_starts(path):
    """Calls of, and classes derived from, ``threading.Thread``/``Timer`` in ``path``."""
    count = 0
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ClassDef):
            targets = node.bases
        elif isinstance(node, ast.Call):
            targets = [node.func]
        else:
            continue
        count += sum(ast.unparse(t).split(".")[-1] in ("Thread", "Timer") for t in targets)
    return count


def test_fig4_security_managers_tick_on_wall_time_tickers():
    cfg = Fig4LiveConfig(backend="thread", with_security=True, total_tasks=20, with_slo=False)
    with contextlib.ExitStack() as stack:
        _, _, _, harvest = _build_stack(cfg, None, stack)
        tickers = _live_tickers()
        names = {t.name for t in threading.enumerate()}
        harvest(True)
        # stopping a manager waits for its ticker: no tick can still be
        # inside the farm when the farm itself is shut down
        assert [t.name for t in tickers if t.is_alive()] == []
    assert sorted(t.name for t in tickers) == ["AM_sec_thread.loop", "AM_thread.loop"]
    assert "security-manager" not in names


def test_sharded_farm_parent_ticks_and_results_need_no_pump():
    farm = ShardedFarm(
        live_task, contract=ThroughputRangeContract(1.0, 1e6), shards=2,
        max_workers_total=2, control_period=0.05, name="tree",
    )
    try:
        for i in range(10):
            farm.submit((0.0, i))
        assert sorted(farm.drain_results(10, timeout=30.0)) == [i * i for i in range(10)]
        tickers = _live_tickers()
        mine = [t for t in threading.enumerate() if t.name.startswith(("tree", "AM_tree"))]
    finally:
        farm.shutdown()
    assert [t.name for t in tickers if t.is_alive()] == []
    assert sorted(t.name for t in tickers) == ["AM_tree-s0.loop", "AM_tree-s1.loop", "tree.loop"]
    # besides the tickers, only the shards' worker threads
    assert sorted(t.name for t in mine if t not in tickers) == ["tree-s0-w0", "tree-s1-w0"]


def test_supervisor_checks_the_heartbeat_on_a_ticker(tmp_path):
    farm = SupervisedFarm(live_task, journal_path=str(tmp_path / "j.jsonl"), name="sup")
    supervisor = Supervisor(
        farm, contract=ThroughputRangeContract(1.0, 1e6), control_period=0.05,
        check_period=0.01,
    ).start()
    try:
        tickers = _live_tickers()
        names = {t.name for t in threading.enumerate()}
        supervisor.stop()
        assert [t.name for t in tickers if t.is_alive()] == []
    finally:
        supervisor.stop()
        farm.shutdown()
    assert sorted(t.name for t in tickers) == ["sup-sup-am.loop", "sup-sup.loop"]
    assert "sup-sup-monitor" not in names


def test_policy_packages_start_no_threads():
    """Policy starts none; in the runtime only the data plane and the
    ticker do, so a hand-rolled governor loop fails here, not in review."""
    src = Path(repro.__file__).parent
    for package in ("core", "security"):
        for path in sorted((src / package).rglob("*.py")):
            assert _thread_starts(path) == 0, path
    runtime = src / "runtime"
    starts = {
        path.relative_to(runtime).as_posix(): _thread_starts(path)
        for path in sorted(runtime.rglob("*.py"))
    }
    assert {name: n for name, n in starts.items() if n} == RUNTIME_THREADS
