"""Golden-audit scenarios: deterministic runs and their canonical export.

``tests/obs/fixtures/golden_*.jsonl`` hold what these scenarios exported
at a reference commit: ``thread`` and ``dist`` before spans went slotted
and lazy-id and the v4 wire stopped carrying a traceparent per task,
``mixed`` before a task's spans were kept as rows.  The golden-audit
tests hold every later commit to the same ids, parents, names and
attributes.

Re-record (only when a change to the audit is intended) from the repo
root, with the reference tree's ``src`` on the path, naming the
scenarios to record (all of them by default)::

    PYTHONPATH=<reference>/src python -m tests.obs.golden_audit [thread|dist|mixed ...]

Not a test module itself: the worker processes import
:func:`golden_task` from here by name.
"""

import json
import os
import time

from repro.core.contracts import ThroughputRangeContract
from repro.obs import Telemetry
from repro.obs.export import span_to_dict
from repro.obs.propagation import task_context
from repro.runtime.dist_farm import DistFarm
from repro.runtime.farm_runtime import ThreadFarm
from repro.runtime.hierarchy import ShardedFarm, TenantRegistry
from repro.runtime.process_farm import ProcessFarm
from repro.runtime.supervision import SupervisedFarm

from ..runtime.waiting import wait_until

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

#: the task function by name: workers import it, and it also runs as __main__
GOLDEN_TASK = "tests.obs.golden_audit:golden_task"

#: wall-clock readings (the ``pid`` attribute is masked in place)
_MASKED_FIELDS = ("start", "end", "duration", "perf_elapsed")


def golden_task(payload):
    """Square ``value``; with a marker path, hang the *first* execution.

    The hung execution is the one the scenario SIGKILLs, so exactly one
    dispatch attempt of that task dies and exactly one replay runs.
    """
    marker, value = payload
    if marker is not None and not os.path.exists(marker):
        with open(marker, "w"):
            pass
        time.sleep(600.0)
    return value * value


def thread_scenario() -> Telemetry:
    """Six tasks over two thread workers: plain, tenant-stamped, and one
    resubmitted under a caller-owned root (``task.attempt``)."""
    tel = Telemetry()
    farm = ThreadFarm(golden_task, initial_workers=2, name="gold-t", telemetry=tel)
    try:
        for i in range(3):
            farm.submit((None, i))
        farm.submit((None, 3), tenant="acme")
        farm.submit((None, 4), tenant="acme")
        farm.submit((None, 5), traceparent=task_context("gold-sup", 5).traceparent())
        assert sorted(farm.drain_results(6, timeout=30.0)) == [0, 1, 4, 9, 16, 25]
    finally:
        farm.shutdown()
    return tel


def dist_scenario(tmpdir: str) -> Telemetry:
    """Three tasks on worker 0, then one whose first execution is killed
    with the worker and replayed on a freshly added worker 1."""
    tel = Telemetry()
    marker = os.path.join(tmpdir, "golden-first-attempt")
    farm = DistFarm(
        GOLDEN_TASK,
        initial_workers=1,
        name="gold-d",
        telemetry=tel,
        heartbeat_period=0.05,
        supervise_period=0.02,
        backoff_base=0.02,
        backoff_cap=0.2,
    )
    try:
        for i in range(3):
            farm.submit((None, i), tenant="acme" if i == 2 else None)
            assert farm.drain_results(1, timeout=30.0) == [i * i]
        farm.submit((marker, 7))
        wait_until(lambda: os.path.exists(marker), message="first attempt to start")
        assert farm.inject_crash(0) == 0
        wait_until(lambda: farm.crashes, message="worker 0 to be declared dead")
        farm.add_worker()
        assert farm.drain_results(1, timeout=60.0) == [49]
    finally:
        farm.shutdown()
    return tel


def mixed_scenario(tmpdir: str) -> Telemetry:
    """Three stacks on one telemetry, each shut down before the next starts.

    * a ``ProcessFarm`` whose only worker is SIGKILLed mid-task, the task
      replayed on a worker added after the death was seen — and then a
      second task left hanging on that worker through ``shutdown()``, so
      its root and dispatch close as flushed;
    * a thread ``SupervisedFarm``: the supervisor's ``task`` root with the
      incarnation's ``task.attempt`` under it, tenant on both;
    * a two-shard dist ``ShardedFarm`` with its management plane over TCP,
      one tenant task landing on each shard.
    """
    tel = Telemetry()
    killed = os.path.join(tmpdir, "golden-killed")
    hung = os.path.join(tmpdir, "golden-hung")
    farm = ProcessFarm(
        golden_task,
        initial_workers=1,
        name="gold-p",
        telemetry=tel,
        heartbeat_period=0.05,
        supervise_period=0.02,
        backoff_base=0.02,
        backoff_cap=0.2,
    )
    try:
        farm.submit((None, 2))
        assert farm.drain_results(1, timeout=30.0) == [4]
        farm.submit((killed, 3))
        wait_until(lambda: os.path.exists(killed), message="first attempt to start")
        assert farm.inject_crash(0) == 0
        wait_until(lambda: farm.crashes, message="worker 0 to be declared dead")
        farm.add_worker()
        assert farm.drain_results(1, timeout=60.0) == [9]
        farm.submit((hung, 4))
        wait_until(lambda: os.path.exists(hung), message="the hung task to start")
    finally:
        farm.shutdown(timeout=0.5)

    sup = SupervisedFarm(
        GOLDEN_TASK,
        backend="thread",
        journal_path=os.path.join(tmpdir, "golden-journal.jsonl"),
        name="gold-s",
        initial_workers=2,
        telemetry=tel,
    )
    try:
        sup.submit((None, 5), tenant="acme")
        assert sup.drain_results(1, timeout=30.0) == [25]
    finally:
        sup.shutdown()

    registry = TenantRegistry(telemetry=tel)
    registry.register("acme", 1e6)
    tree = ShardedFarm(
        GOLDEN_TASK,
        contract=ThroughputRangeContract(1.0, 1e6),
        shards=2,
        backend="dist",
        max_workers_total=2,
        registry=registry,
        telemetry=tel,
        name="gold-h",
        autostart=False,  # no MAPE ticks: their spans are timing-dependent
    )
    try:
        for value in (6, 7):
            assert tree.submit((None, value), tenant="acme") == "accept"
        assert sorted(tree.drain_results(2, timeout=30.0)) == [36, 49]
    finally:
        tree.shutdown()
    return tel


def canonical(telemetry: Telemetry) -> list:
    """The audit as sorted JSON lines, clocks and pids masked."""
    lines = []
    for span in telemetry.spans.spans:
        record = span_to_dict(span)
        for field in _MASKED_FIELDS:
            del record[field]
        if "pid" in record["attributes"]:
            record["attributes"]["pid"] = "<pid>"
        lines.append(json.dumps(record))  # key order is part of the audit
    return sorted(lines)


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, f"golden_{name}.jsonl")


SCENARIOS = {
    "thread": lambda tmp: thread_scenario(),
    "dist": dist_scenario,
    "mixed": mixed_scenario,
}


if __name__ == "__main__":
    import sys
    import tempfile

    os.makedirs(FIXTURES, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        runs = {name: SCENARIOS[name](tmp) for name in sys.argv[1:] or SCENARIOS}
    for name, tel in runs.items():
        with open(fixture_path(name), "w") as fh:
            fh.write("\n".join(canonical(tel)) + "\n")
        print(f"{fixture_path(name)}: {len(tel.spans.spans)} spans")
