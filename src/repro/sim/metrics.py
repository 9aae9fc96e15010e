"""Monitoring probes: rate estimators, utilisation and queue statistics.

The paper's ABC (Autonomic Behaviour Controller) exposes *monitoring*
services that the autonomic manager samples each control-loop tick: the
task inter-arrival rate, the departure (service) rate, the number of
workers and the variance of per-worker queue lengths (Figure 5's
``ArrivalRateBean``/``DepartureRateBean``/``NumWorkerBean``/
``QuequeVarianceBean``).  This module provides the measurement machinery
behind those beans.

Two estimators are provided:

* :class:`WindowRateEstimator` — events per second over a sliding time
  window.  This matches what an implementation samples in practice and
  is the default used by farm/pipeline monitors.
* :class:`EwmaRateEstimator` — exponentially weighted inter-arrival
  estimator, useful when the window would hold too few events.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import repeat
from typing import Deque, Iterable, Optional, Sequence

__all__ = [
    "WindowRateEstimator",
    "EwmaRateEstimator",
    "UtilizationMeter",
    "queue_length_variance",
    "queue_length_stats",
    "TimeWeightedMean",
]


class WindowRateEstimator:
    """Events-per-time-unit over a sliding window.

    ``mark(t)`` records an event at time ``t``; ``rate(now)`` returns the
    number of events in ``(now - window, now]`` divided by the window
    length.  Until the first event has aged past the window the effective
    window is the elapsed observation time (avoids under-reporting during
    warm-up, which would otherwise make managers overreact at start-up).
    """

    def __init__(self, window: float = 10.0, start_time: float = 0.0) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = float(window)
        self.start_time = float(start_time)
        self._events: Deque[float] = deque()
        self.total = 0
        self._last_mark: Optional[float] = None

    def mark(self, t: float, count: int = 1) -> None:
        """Record ``count`` events at time ``t`` (must be non-decreasing).

        One append, or one ``extend`` for a batch.  Events that have left
        the window ending at ``t`` are dropped here, so an estimator
        nobody queries stays one window long; a query at ``now >= t``
        would have dropped them anyway.
        """
        if self._last_mark is not None and t < self._last_mark - 1e-12:
            raise ValueError(f"mark times must be non-decreasing ({t} < {self._last_mark})")
        self._last_mark = t
        events = self._events
        if count == 1:
            events.append(t)
        else:
            events.extend(repeat(t, count))
        self.total += count
        cutoff = t - self.window
        while events and events[0] <= cutoff:
            events.popleft()

    def clamp(self, t: float) -> float:
        """``t``, or the last mark if that is later: the earliest time a
        mark may be recorded at now.

        For wall-clock callers on several threads, which read the clock
        before taking the lock that orders their marks.
        """
        last = self._last_mark
        return t if last is None or t >= last else last

    def _expire(self, now: float) -> None:
        cutoff = now - self.window
        while self._events and self._events[0] <= cutoff:
            self._events.popleft()

    def count_in_window(self, now: float) -> int:
        """Number of events recorded within the window ending at ``now``."""
        self._expire(now)
        return len(self._events)

    def rate(self, now: float) -> float:
        """Estimated events/second at time ``now``."""
        self._expire(now)
        elapsed = now - self.start_time
        if elapsed <= 0:
            return 0.0
        effective = min(self.window, elapsed)
        if effective <= 0:
            return 0.0
        return len(self._events) / effective

    def reset(self, now: float) -> None:
        """Forget history; subsequent rates measure from ``now``."""
        self._events.clear()
        self.start_time = now
        self._last_mark = None


class EwmaRateEstimator:
    """Rate from an exponentially weighted moving average of gaps.

    ``alpha`` is the smoothing factor applied to each new inter-event
    gap; rate = 1 / smoothed-gap.  Robust when events are sparse.
    """

    def __init__(self, alpha: float = 0.25) -> None:
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._last_time: Optional[float] = None
        self._mean_gap: Optional[float] = None
        self.total = 0

    def mark(self, t: float) -> None:
        """Record one event at time ``t``."""
        if self._last_time is not None:
            gap = t - self._last_time
            if gap < 0:
                raise ValueError("mark times must be non-decreasing")
            if self._mean_gap is None:
                self._mean_gap = gap
            else:
                self._mean_gap = (1 - self.alpha) * self._mean_gap + self.alpha * gap
        self._last_time = t
        self.total += 1

    def rate(self, now: float) -> float:
        """Estimated events/second; decays if no event seen recently."""
        if self._mean_gap is None or self._mean_gap <= 0:
            return 0.0
        # If we've been silent longer than the mean gap, widen the estimate.
        silent = now - (self._last_time or now)
        gap = max(self._mean_gap, silent)
        return 1.0 / gap if gap > 0 else 0.0


class UtilizationMeter:
    """Fraction of time spent busy, over the full run and a window.

    Workers call ``set_busy``/``set_idle`` as they start/finish tasks.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.start_time = start_time
        self._busy_since: Optional[float] = None
        self._busy_total = 0.0
        self._last_change = start_time

    def set_busy(self, now: float) -> None:
        if self._busy_since is None:
            self._busy_since = now

    def set_idle(self, now: float) -> None:
        if self._busy_since is not None:
            self._busy_total += now - self._busy_since
            self._busy_since = None

    def utilization(self, now: float) -> float:
        """Busy fraction in [0, 1] since ``start_time``."""
        elapsed = now - self.start_time
        if elapsed <= 0:
            return 0.0
        busy = self._busy_total
        if self._busy_since is not None:
            busy += now - self._busy_since
        return min(1.0, busy / elapsed)


class TimeWeightedMean:
    """Time-weighted mean of a piecewise-constant signal.

    Used for average parallelism degree and average queue length series
    in the benchmark reports.
    """

    def __init__(self, start_time: float = 0.0, initial: float = 0.0) -> None:
        self._last_time = start_time
        self._value = initial
        self._area = 0.0
        self._t0 = start_time

    def update(self, now: float, value: float) -> None:
        """Record that the signal changed to ``value`` at time ``now``."""
        if now < self._last_time:
            raise ValueError("updates must be in time order")
        self._area += self._value * (now - self._last_time)
        self._last_time = now
        self._value = value

    def mean(self, now: float) -> float:
        """Time-weighted mean over [start, now]."""
        elapsed = now - self._t0
        if elapsed <= 0:
            return self._value
        area = self._area + self._value * (now - self._last_time)
        return area / elapsed

    @property
    def current(self) -> float:
        return self._value


def queue_length_stats(lengths: Sequence[int]) -> tuple[float, float, int, int]:
    """(mean, population variance, min, max) of queue lengths."""
    if not lengths:
        return 0.0, 0.0, 0, 0
    n = len(lengths)
    mean = sum(lengths) / n
    var = sum((x - mean) ** 2 for x in lengths) / n
    return mean, var, min(lengths), max(lengths)


def queue_length_variance(lengths: Iterable[int]) -> float:
    """Population variance of per-worker queue lengths.

    This is the quantity behind Figure 5's ``QuequeVarianceBean``: the
    ``CheckLoadBalance`` rule fires when it exceeds
    ``FARM_MAX_UNBALANCE``.
    """
    xs = list(lengths)
    return queue_length_stats(xs)[1]


def stddev(values: Sequence[float]) -> float:
    """Population standard deviation (0 for empty/singleton input)."""
    if len(values) < 2:
        return 0.0
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
