"""Golden-audit scenarios: two deterministic runs and their canonical export.

``tests/obs/fixtures/golden_*.jsonl`` hold what these scenarios exported
at the commit *before* spans went slotted and lazy-id and the v4 wire
stopped carrying a traceparent per task; ``test_golden_audit.py`` holds
every later commit to the same ids, parents, names and attributes.

Re-record (only when a change to the audit is intended) from the repo
root, with the reference tree's ``src`` on the path::

    PYTHONPATH=<reference>/src python -m tests.obs.golden_audit

Not a test module itself: the worker processes import
:func:`golden_task` from here by name.
"""

import json
import os
import time

from repro.obs import Telemetry
from repro.obs.export import span_to_dict
from repro.obs.propagation import task_context
from repro.runtime.dist_farm import DistFarm
from repro.runtime.farm_runtime import ThreadFarm

from ..runtime.waiting import wait_until

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

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
        "tests.obs.golden_audit:golden_task",  # by name: also runs as __main__
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


if __name__ == "__main__":
    import tempfile

    os.makedirs(FIXTURES, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        runs = {"thread": thread_scenario(), "dist": dist_scenario(tmp)}
    for name, tel in runs.items():
        with open(fixture_path(name), "w") as fh:
            fh.write("\n".join(canonical(tel)) + "\n")
        print(f"{fixture_path(name)}: {len(tel.spans.spans)} spans")
