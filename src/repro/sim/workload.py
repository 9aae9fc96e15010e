"""Workload generation: task streams for the reproduced experiments.

The paper's evaluation workload is a stream-parallel one: a medical
image processing application in Figure 3 (a stream of images, contract
"0.6 images per second") and a generic producer/filter/consumer pipeline
in Figure 4.  We have no access to the original images or filters, so we
substitute synthetic streams with configurable per-task *work* (seconds
of computation on a unit-speed node).  This preserves what the
experiments actually exercise — arrival pressure vs. service capacity —
while remaining fully deterministic.

Generators provided:

* :class:`ConstantWork` / :class:`UniformWork` / :class:`HotSpotWork` —
  per-task work distributions ("temporary hot spots in image
  processing", §4.1, are work spikes over a task-index range).
* :class:`TaskSource` — a simulated producer process emitting tasks at a
  controllable rate into a store.  The rate is an *actuator target*:
  Figure 4's ``incRate``/``decRate`` contracts take effect by changing
  it mid-run.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, Optional

from .engine import Interrupt, Process, Simulator
from .queues import Store

__all__ = [
    "Task",
    "WorkModel",
    "ConstantWork",
    "UniformWork",
    "HotSpotWork",
    "TaskSource",
    "finite_stream",
]


@dataclass
class Task:
    """One unit of stream work.

    ``work`` is in seconds-at-unit-speed; timing fields are filled in as
    the task flows through the system, enabling latency accounting.
    """

    task_id: int
    work: float
    created_at: float = 0.0
    started_at: Optional[float] = None
    completed_at: Optional[float] = None
    payload: Any = None
    secure_required: bool = False

    @property
    def latency(self) -> Optional[float]:
        """Completion latency (None until the task finishes)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.created_at

    def __repr__(self) -> str:
        return f"Task({self.task_id}, work={self.work:.3f})"


class WorkModel:
    """Base class: maps a task index to its work amount."""

    def work_for(self, index: int) -> float:
        raise NotImplementedError

    def __call__(self, index: int) -> float:
        return self.work_for(index)


class ConstantWork(WorkModel):
    """Every task needs the same amount of work."""

    def __init__(self, work: float) -> None:
        if work <= 0:
            raise ValueError(f"work must be positive, got {work}")
        self.work = float(work)

    def work_for(self, index: int) -> float:
        return self.work


class UniformWork(WorkModel):
    """Work uniform in [lo, hi], from a seeded (deterministic) RNG."""

    def __init__(self, lo: float, hi: float, seed: int = 0) -> None:
        if not 0 < lo <= hi:
            raise ValueError(f"need 0 < lo <= hi, got ({lo}, {hi})")
        self.lo, self.hi = float(lo), float(hi)
        self._rng = random.Random(seed)
        self._cache: List[float] = []

    def work_for(self, index: int) -> float:
        # Cache by index so repeated queries are consistent.
        while len(self._cache) <= index:
            self._cache.append(self._rng.uniform(self.lo, self.hi))
        return self._cache[index]


class HotSpotWork(WorkModel):
    """A base work model with a multiplicative spike over an index range.

    Models §4.1's "temporary hot spots in image processing": tasks in
    ``[start, end)`` take ``factor`` times the base work.
    """

    def __init__(self, base: WorkModel, start: int, end: int, factor: float) -> None:
        if factor <= 0:
            raise ValueError("hot-spot factor must be positive")
        if end < start:
            raise ValueError("hot-spot end must be >= start")
        self.base = base
        self.start, self.end = start, end
        self.factor = factor

    def work_for(self, index: int) -> float:
        w = self.base.work_for(index)
        if self.start <= index < self.end:
            w *= self.factor
        return w


def finite_stream(
    count: int,
    work_model: WorkModel,
    *,
    created_at: float = 0.0,
    secure_required: bool = False,
) -> List[Task]:
    """Materialise ``count`` tasks up front (for direct-feed scenarios)."""
    return [
        Task(i, work_model.work_for(i), created_at=created_at, secure_required=secure_required)
        for i in range(count)
    ]


class TaskSource:
    """A producer process emitting tasks into ``out`` at a target rate.

    * ``rate`` — current emission target (tasks/second).  Mutable at run
      time via :meth:`set_rate`; this is the actuator behind the
      pipeline manager's ``incRate``/``decRate`` contracts in Figure 4.
    * ``max_rate`` — the producer's physical capability; ``set_rate`` is
      clamped to it (a producer told to speed up can only go so fast).
    * ``total`` — number of tasks to emit, or None for an endless stream.

    After the last task, the source fires ``on_end_of_stream`` so the
    application manager can observe ``endStream`` (Figure 4, last phase).
    """

    def __init__(
        self,
        sim: Simulator,
        out: Store,
        *,
        rate: float,
        work_model: WorkModel,
        total: Optional[int] = None,
        max_rate: Optional[float] = None,
        name: str = "source",
        on_emit: Optional[Callable[[Task], None]] = None,
        on_end_of_stream: Optional[Callable[[], None]] = None,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if max_rate is not None and max_rate <= 0:
            raise ValueError("max_rate must be positive")
        self.sim = sim
        self.out = out
        self.work_model = work_model
        self.total = total
        self.max_rate = max_rate
        self.name = name
        self.on_emit = on_emit
        self.on_end_of_stream = on_end_of_stream
        self._rate = min(rate, max_rate) if max_rate else rate
        self.emitted = 0
        self.finished = False
        self._ids = itertools.count()
        self._proc: Process = sim.process(self._run(), name=name)

    # ------------------------------------------------------------------
    # actuator surface
    # ------------------------------------------------------------------
    @property
    def rate(self) -> float:
        """Current emission rate target (tasks/second)."""
        return self._rate

    def set_rate(self, rate: float) -> float:
        """Change the emission rate; returns the (clamped) applied value.

        Interrupting the emitting process makes the new inter-emission
        gap take effect immediately rather than after the current wait.
        """
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if self.max_rate is not None:
            rate = min(rate, self.max_rate)
        self._rate = rate
        if self._proc.alive:
            self._proc.interrupt("rate-change")
        return rate

    def scale_rate(self, factor: float) -> float:
        """Multiply the current rate by ``factor`` (>0)."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return self.set_rate(self._rate * factor)

    @property
    def process(self) -> Process:
        return self._proc

    # ------------------------------------------------------------------
    # the producer process
    # ------------------------------------------------------------------
    def _run(self) -> Iterator[Any]:
        while self.total is None or self.emitted < self.total:
            gap = 1.0 / self._rate
            try:
                yield self.sim.timeout(gap)
            except Interrupt:
                # Rate changed: restart the wait with the new gap.
                continue
            idx = next(self._ids)
            task = Task(
                idx,
                self.work_model.work_for(idx),
                created_at=self.sim.now,
            )
            if self.out.capacity is None:
                self.out.put_nowait(task)
            else:
                yield self.out.put(task)
            self.emitted += 1
            if self.on_emit is not None:
                self.on_emit(task)
        self.finished = True
        if self.on_end_of_stream is not None:
            self.on_end_of_stream()
