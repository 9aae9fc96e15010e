"""``drain_results`` is all or nothing: a timeout loses no result.

Every backend used to return what it had collected to nobody when the
deadline passed — the results were gone from the queue and the caller
only got a ``TimeoutError``.  They now go back to the head of the
queue, order kept, so the next drain (or a retry with the right count)
sees them.
"""

import queue

import pytest

from repro.core.contracts import ThroughputRangeContract
from repro.runtime.backend import drain_queue
from repro.runtime.hierarchy import ShardedFarm

from .test_backend_conformance import conf_task, make_farm
from .waiting import wait_until


def test_drain_queue_puts_collected_items_back_in_order():
    q = queue.Queue()
    for item in (1, 2, 3):
        q.put(item)
    with pytest.raises(TimeoutError, match="collected 3/5"):
        drain_queue(q, 5, 0.05)
    q.put(4)  # a later arrival queues behind the returned ones
    assert drain_queue(q, 4, 1.0) == [1, 2, 3, 4]
    assert q.empty()


def test_drain_queue_past_its_deadline_still_takes_what_is_there():
    q = queue.Queue()
    q.put("ready")
    assert drain_queue(q, 1, 0.0) == ["ready"]
    with pytest.raises(TimeoutError, match="collected 0/1"):
        drain_queue(q, 1, 0.0)


def _sharded():
    return ShardedFarm(
        conf_task,
        contract=ThroughputRangeContract(1.0, 1e6),
        shards=2,
        backend="thread",
        max_workers_total=2,
        name="drain",
    )


@pytest.mark.parametrize("backend", ["thread", "process", "dist", "sharded"])
def test_timed_out_drain_loses_nothing(backend):
    farm = _sharded() if backend == "sharded" else make_farm(backend, initial_workers=1)
    try:
        for i in range(3):
            farm.submit((0.0, i))
        wait_until(lambda: farm.completed == 3, message="three completions")
        with pytest.raises(TimeoutError, match="/5 results"):
            farm.drain_results(5, timeout=0.3)
        out = farm.drain_results(3, timeout=30.0)
        if backend == "sharded":  # two shards: completion order is not fixed
            assert sorted(out) == [0, 1, 4]
        else:  # one worker: submit order is completion order, and it is kept
            assert out == [0, 1, 4]
    finally:
        farm.shutdown()
