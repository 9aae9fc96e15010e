"""Tests for the thread pipeline."""

import time

import pytest

from repro.runtime.pipeline_runtime import ThreadPipeline, ThreadStage


class TestThreadStage:
    def test_processes_and_counts(self):
        stage = ThreadStage(lambda x: x + 1, name="inc")
        import queue

        out = queue.Queue()
        stage.output = out
        for i in range(5):
            stage.input.put(i)
        got = [out.get(timeout=5.0) for _ in range(5)]
        assert got == [1, 2, 3, 4, 5]
        assert stage.completed == 5
        stage.close()
        stage.join(timeout=5.0)
        assert not stage.alive


class TestThreadPipeline:
    def test_needs_two_stages(self):
        with pytest.raises(ValueError):
            ThreadPipeline([lambda x: x])

    def test_order_preserved_end_to_end(self):
        pipe = ThreadPipeline([lambda x: x + 1, lambda x: x * 2, lambda x: x - 3])
        results = pipe.run_to_completion(list(range(20)))
        assert results == [(i + 1) * 2 - 3 for i in range(20)]

    def test_stages_overlap_in_time(self):
        """Pipelining: total time ~ max-stage * n, not sum-stages * n."""
        delay = 0.05
        n = 10

        def work(x):
            time.sleep(delay)
            return x

        pipe = ThreadPipeline([work, work, work])
        t0 = time.monotonic()
        pipe.run_to_completion(list(range(n)))
        elapsed = time.monotonic() - t0
        # ideal pipelined time ~= delay * (n + 2) = 0.6s vs 1.5s
        # sequential; the 0.8 factor leaves slack for slow CI runners
        sequential = 3 * delay * n
        assert elapsed < sequential * 0.8  # clearly overlapped

    def test_close_propagates_shutdown(self):
        pipe = ThreadPipeline([lambda x: x, lambda x: x])
        pipe.submit(1)
        pipe.close()
        pipe.collect(1, timeout=5.0)
        pipe.join(timeout=5.0)
        assert all(not s.alive for s in pipe.stages)

    def test_collect_timeout(self):
        pipe = ThreadPipeline([lambda x: x, lambda x: x])
        with pytest.raises(TimeoutError):
            pipe.collect(1, timeout=0.05)
        pipe.close()

    def test_throughput_measured(self):
        pipe = ThreadPipeline([lambda x: x, lambda x: x])
        pipe.run_to_completion(list(range(50)))
        assert pipe.throughput() > 0.0
