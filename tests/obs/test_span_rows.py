"""Task spans kept as rows: what a read of the store must see.

The farms stamp a task's spans on rows and the recorder builds the spans
when it is read (:mod:`repro.obs.rows`).  Pinned here: a read follows
the task (open, then closed, whether or not it was read in between), the
rows sit where their spans were opened among ordinary spans, two reads
are equal, a shutdown sweep marks them like any span — and a traced
farm keeps a few hundred bytes per finished task, not a kilobyte.
"""

import gc
import threading
import tracemalloc

import pytest

from repro.obs.clock import ManualClock
from repro.obs.propagation import stable_span_id
from repro.obs.telemetry import Telemetry
from repro.runtime.dist_farm import DistFarm
from repro.runtime.farm_runtime import ThreadFarm

from ..runtime.test_dist_farm import dist_task
from ..runtime.test_farm_core import BookkeepingFarm
from ..runtime.waiting import wait_until


def bookkeeping(start=100.0):
    tel = Telemetry(ManualClock(start))
    farm = BookkeepingFarm(telemetry=tel)
    return tel, farm, farm.add()


class TestReadsFollowTheTask:
    @pytest.mark.parametrize("read_while_open", [True, False])
    def test_open_then_closed(self, read_while_open):
        tel, farm, worker = bookkeeping()
        farm.submit("p")
        if read_while_open:
            (root,) = tel.spans.named("task")
            (dispatch,) = tel.spans.named("task.dispatch")
            assert root.end is None and dispatch.end is None
            assert root.attributes == {"task_id": 0}
            assert dispatch.attributes == {"worker": 0, "attempt": 1, "secured": False}
            assert tel.spans.open_spans() == [root, dispatch]
        tel.clock.advance(1.5)
        assert farm.ack(worker, 0) is True
        (root,) = tel.spans.named("task")
        (dispatch,) = tel.spans.named("task.dispatch")
        assert (root.start, root.end) == (100.0, 101.5)
        assert (dispatch.start, dispatch.end) == (100.0, 101.5)
        assert root.attributes == {"task_id": 0, "outcome": "ok"}
        assert dispatch.attributes["outcome"] == "ok"
        assert root.span_id == stable_span_id("core/task/0")
        assert dispatch.parent_id == root.span_id
        assert tel.spans.open_spans() == []

    def test_a_running_thread_task_reads_its_open_exec(self):
        tel = Telemetry()
        gate = threading.Event()
        farm = ThreadFarm(lambda x: gate.wait(10) and x, initial_workers=1,
                          name="rows-t", telemetry=tel)
        try:
            farm.submit(7, tenant="acme")
            wait_until(lambda: tel.spans.named("task.exec"), message="the exec to start")
            (run,) = tel.spans.named("task.exec")
            assert run.end is None and run.actor == "rows-t-w0"
            assert {s.name for s in tel.spans.open_spans()} == {
                "task", "task.dispatch", "task.exec"
            }
            gate.set()
            assert farm.drain_results(1, timeout=10.0) == [7]
            (root,) = tel.spans.named("task")
            (run,) = tel.spans.named("task.exec")
            assert root.attributes == {"task_id": 0, "tenant": "acme", "outcome": "ok"}
            assert run.attributes == {"worker": 0, "outcome": "ok"}
            assert run.end is not None and tel.spans.open_spans() == []
        finally:
            gate.set()
            farm.shutdown()


class TestOneStore:
    def test_rows_read_in_the_order_their_spans_opened(self):
        tel, farm, _ = bookkeeping()
        with tel.span("before"):
            pass
        farm.submit("a")
        with tel.span("between"):
            pass
        farm.submit("b")
        assert [s.name for s in tel.spans.spans] == [
            "before", "task", "task.dispatch", "between", "task", "task.dispatch"
        ]
        assert len(tel.spans) == 6

    def test_two_reads_are_equal(self):
        tel, farm, worker = bookkeeping()
        for payload in "abc":
            farm.submit(payload)
        farm.ack(worker, 1)
        first, second = tel.spans.spans, tel.spans.spans
        assert first == second
        assert [s.span_id for s in first] == [s.span_id for s in second]
        assert tel.spans.trace_ids() == tel.spans.trace_ids()

    def test_flush_marks_an_open_task_and_a_late_close_keeps_its_end(self):
        tel, farm, worker = bookkeeping()
        farm.submit("p")
        tel.clock.advance(1.0)
        assert tel.flush() == 2
        tel.clock.advance(1.0)
        farm.ack(worker, 0)  # a result that raced the sweep
        (root,) = tel.spans.named("task")
        assert root.end == 101.0
        assert list(root.attributes) == ["task_id", "flushed", "outcome"]
        assert tel.flush() == 0


def retained_bytes_per_task(telemetry, tasks):
    """Bytes still allocated once ``tasks`` tasks ran through a DistFarm."""
    farm = DistFarm(dist_task, initial_workers=1, max_inflight=64, batch_size=32,
                    telemetry=telemetry)
    try:
        farm.submit((0.0, -1))
        farm.drain_results(1, timeout=60.0)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for i in range(tasks):
                farm.submit((0.0, i))
            assert len(farm.drain_results(tasks, timeout=60.0)) == tasks
            gc.collect()
            return (tracemalloc.get_traced_memory()[0] - base) / tasks
        finally:
            tracemalloc.stop()
    finally:
        farm.shutdown()


def test_a_traced_task_keeps_a_few_hundred_bytes():
    tasks = 3000
    bare = retained_bytes_per_task(None, tasks)
    traced = retained_bytes_per_task(Telemetry(), tasks)
    assert traced - bare <= 600, (bare, traced)
