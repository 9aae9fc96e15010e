"""The coordinator charges its handoffs per frame, not per task.

* a ``result_batch`` of 32 entries marks the departure window once;
* ``submit`` while a fill pass is already pending takes the farm lock
  once;
* ``drain_queue`` takes everything that is ready in one acquisition of
  the queue's mutex — and, since it reads the queue's deque directly,
  a hammer checks that nothing is lost, duplicated or reordered when a
  producer and a timing-out consumer interleave at a fine switch
  interval.
"""

import asyncio
import queue
import random
import sys
import threading
import time

from repro.runtime.backend import drain_queue
from repro.runtime.dist_farm import _ResultBus
from repro.runtime.dist_proto import PROTOCOL_VERSION, encode_frame_v4, read_frame

from .test_dist_proto_v4 import attach_v4, patient_farm


class CountingLock:
    """A lock that counts how often one thread acquires it."""

    def __init__(self, lock, thread=None):
        self._lock = lock
        self._thread = thread
        self.acquired = 0

    def acquire(self, blocking=True, timeout=-1):
        if self._thread is None or threading.get_ident() == self._thread:
            self.acquired += 1
        return self._lock.acquire(blocking, timeout)

    def release(self):
        self._lock.release()

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc):
        self.release()

    def _is_owned(self):
        return self._lock.locked()


def test_one_result_frame_marks_the_departure_window_once():
    farm = patient_farm(max_inflight=32, batch_size=32)
    marks = []
    real_mark = farm.departure_est.mark

    def mark(t, count=1):
        marks.append(count)
        real_mark(t, count)

    farm.departure_est.mark = mark
    try:

        async def go():
            reader, writer, _ = await attach_v4(
                farm.port,
                {"type": "hello", "worker_id": -1, "proto": PROTOCOL_VERSION,
                 "codecs": ["json"]},
            )
            for value in range(32):
                farm.submit((0.0, value))
            tasks = []
            while len(tasks) < 32:
                frame = await read_frame(reader)
                tasks.extend(frame.get("tasks") or [frame])
            writer.write(
                encode_frame_v4(
                    {"type": "result_batch",
                     "results": [
                         {"task_id": t["task_id"], "value": t["payload"][1]}
                         for t in tasks
                     ],
                     "completed": 32}
                )
            )
            out = await asyncio.get_running_loop().run_in_executor(
                None, farm.drain_results, 32, 30.0
            )
            writer.close()
            return out

        assert sorted(asyncio.run(go())) == list(range(32))
        assert farm.completed == 32
        assert marks == [32]
    finally:
        farm.shutdown()


def test_submit_with_a_fill_pending_takes_the_lock_once():
    farm = patient_farm(supervise_period=60.0)
    gate = threading.Event()
    try:
        # park the loop thread, so the fill the first submit asks for
        # stays pending
        farm._loop.call_soon_threadsafe(gate.wait, 30.0)
        farm.submit((0.0, 1))
        assert farm._fill_scheduled
        lock = farm._lock
        counting = farm._lock = CountingLock(lock, threading.get_ident())
        try:
            farm.submit((0.0, 2))
        finally:
            farm._lock = lock
        assert counting.acquired == 1
        assert farm.submitted == 2
    finally:
        gate.set()
        farm.shutdown()


def counting_queue():
    q = queue.Queue()
    q.mutex = CountingLock(q.mutex)
    q.not_empty = threading.Condition(q.mutex)
    q.not_full = threading.Condition(q.mutex)
    q.all_tasks_done = threading.Condition(q.mutex)
    return q


def test_drain_takes_every_ready_item_in_one_acquisition():
    q = counting_queue()
    for item in range(40):
        q.put(item)
    q.mutex.acquired = 0
    assert drain_queue(q, 32, 1.0) == list(range(32))
    assert q.mutex.acquired == 1
    assert list(q.queue) == list(range(32, 40))


def test_drain_under_a_batching_producer_loses_and_repeats_nothing():
    total = 20_000
    bus = _ResultBus()
    rng = random.Random(7)
    sizes = []
    while sum(sizes) < total:
        sizes.append(min(rng.randint(1, 40), total - sum(sizes)))
    received = []
    timeouts = [0]

    def produce():
        start = 0
        for size in sizes:
            bus.put_many(list(range(start, start + size)))
            start += size
            if rng.random() < 0.25:
                time.sleep(0.0005)  # let the consumer time out on a gap

    def consume():
        pick = random.Random(11)
        deadline = time.monotonic() + 30.0
        while len(received) < total and time.monotonic() < deadline:
            want = pick.randint(1, min(64, total - len(received)))
            try:
                received.extend(drain_queue(bus, want, pick.choice((0.0, 0.0002, 0.002))))
            except TimeoutError:
                timeouts[0] += 1

    threads = [threading.Thread(target=produce), threading.Thread(target=consume)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the GIL over mid-drain often
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert received == list(range(total))
    assert bus.empty()
    assert timeouts[0] > 0  # the put-back path ran
