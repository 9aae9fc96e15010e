"""Thread-based pipeline: live counterpart of the simulated pipeline.

Stages are callables connected by queues; each stage runs on its own
thread (or a :class:`~repro.runtime.farm_runtime.ThreadFarm` for a
farmed stage).  Mirrors the composition rule of the skeleton library:
``pipe(s1, s2, s3)`` with per-stage monitoring.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Callable, List, Optional, Sequence

from ..sim.metrics import WindowRateEstimator

__all__ = ["ThreadStage", "ThreadPipeline"]

_END = object()


class ThreadStage:
    """One pipeline stage: a thread applying ``fn`` to each item."""

    def __init__(
        self,
        fn: Callable[[Any], Any],
        *,
        name: str = "stage",
        rate_window: float = 5.0,
    ) -> None:
        self.fn = fn
        self.name = name
        self.input: "queue.Queue[Any]" = queue.Queue()
        self.output: Optional[queue.Queue] = None
        self.completed = 0
        self._t0 = time.monotonic()
        self.departure_est = WindowRateEstimator(rate_window, start_time=0.0)
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        self._thread.start()

    def now(self) -> float:
        return time.monotonic() - self._t0

    def _run(self) -> None:
        while True:
            item = self.input.get()
            if item is _END:
                if self.output is not None:
                    self.output.put(_END)
                return
            result = self.fn(item)
            self.completed += 1
            self.departure_est.mark(self.now())
            if self.output is not None:
                self.output.put(result)

    def close(self) -> None:
        """Signal end of stream: the stage passes it on and stops."""
        self.input.put(_END)

    def join(self, timeout: float = 30.0) -> None:
        self._thread.join(timeout)

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()


class ThreadPipeline:
    """A linear pipeline of :class:`ThreadStage`s with a result queue."""

    def __init__(self, fns: Sequence[Callable[[Any], Any]], *, name: str = "tpipe") -> None:
        if len(fns) < 2:
            raise ValueError("pipeline needs at least two stages")
        self.name = name
        self.stages: List[ThreadStage] = [
            ThreadStage(fn, name=f"{name}.s{i}") for i, fn in enumerate(fns)
        ]
        for a, b in zip(self.stages, self.stages[1:]):
            a.output = b.input
        self.results: "queue.Queue[Any]" = queue.Queue()
        self.stages[-1].output = self.results
        self.submitted = 0

    def submit(self, item: Any) -> None:
        self.stages[0].input.put(item)
        self.submitted += 1

    def close(self) -> None:
        """Signal end of stream; stages shut down as it propagates."""
        self.stages[0].close()

    def collect(self, count: int, timeout: float = 60.0) -> List[Any]:
        """Gather ``count`` results in arrival order."""
        out: List[Any] = []
        deadline = time.monotonic() + timeout
        while len(out) < count:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"collected {len(out)}/{count}")
            try:
                item = self.results.get(timeout=remaining)
            except queue.Empty:
                raise TimeoutError(f"collected {len(out)}/{count}") from None
            if item is _END:
                break
            out.append(item)
        return out

    def run_to_completion(self, items: Sequence[Any], timeout: float = 60.0) -> List[Any]:
        """Feed ``items``, close the stream, return all results in order."""
        for item in items:
            self.submit(item)
        self.close()
        results = self.collect(len(items), timeout)
        self.join(timeout)
        return results

    def join(self, timeout: float = 30.0) -> None:
        for s in self.stages:
            s.join(timeout)

    def throughput(self) -> float:
        """Delivery rate at the final stage (items/second, windowed)."""
        last = self.stages[-1]
        return last.departure_est.rate(last.now())
