"""An embedded fixed-retention time-series store over the metrics registry.

``/metrics`` is a snapshot; the autonomic plane decides *from history* —
burn rates, adaptation latency, "was the contract met over the last
minute" — so the registry needs a memory.  :class:`TimeSeriesStore` is
that memory: a ring-buffer TSDB that **scrapes** a
:class:`~repro.obs.metrics.MetricsRegistry` on an injectable-clock
interval and keeps a bounded window of samples per series:

* **counters** — the cumulative value is stored; :meth:`query` turns
  deltas between samples into per-second *rates* (and ``field="total"``
  returns the raw monotone series);
* **gauges** — stored verbatim; downsampling aggregates with
  ``last``/``avg``/``min``/``max`` per step bucket;
* **histograms** — a mergeable :class:`HistogramSnapshot` (bucket
  counts + sum + count) is stored per scrape, so a range query can
  *subtract* two snapshots and answer p50/p95/p99, mean and event rate
  **over any window**, not just since process start.

Retention is a hard bound: each series is a ``deque(maxlen=…)`` sized
from ``retention / interval``, so a week-long run holds the same memory
as a minute-long one.  All reads and writes take one lock per call —
scrapes concurrent with ``/query`` and shutdown flushes see a consistent
ring, never a torn one.

The store itself is passive: call :meth:`scrape_once` from a test with a
:class:`~repro.obs.clock.ManualClock`, or :meth:`start` a daemon scraper
thread against the wall clock.  Listeners registered with
:meth:`add_listener` run after every scrape — the SLO engine evaluates
its objectives there, and the SSE ``/stream`` publisher diffs the new
sample against the last one it pushed.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from .clock import Clock
from .metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = ["HistogramSnapshot", "TimeSeriesStore", "StreamBroker"]

LabelSet = Tuple[Tuple[str, str], ...]


class HistogramSnapshot:
    """A point-in-time, *mergeable* copy of a histogram's state.

    Two snapshots of the same histogram subtract into the distribution
    of the interval between them — the mechanism behind windowed
    p50/p95/p99 and per-window event rates.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(
        self,
        bounds: Tuple[float, ...],
        counts: Tuple[int, ...],
        total: float,
        count: int,
    ) -> None:
        self.bounds = bounds
        self.counts = counts
        self.sum = total
        self.count = count

    @classmethod
    def of(cls, hist: Histogram) -> "HistogramSnapshot":
        return cls(hist.bounds, tuple(hist.counts), hist.sum, hist.count)

    def delta(self, earlier: Optional["HistogramSnapshot"]) -> "HistogramSnapshot":
        """The distribution observed *between* ``earlier`` and this."""
        if earlier is None or earlier.bounds != self.bounds:
            return self
        counts = tuple(
            max(0, a - b) for a, b in zip(self.counts, earlier.counts)
        )
        return HistogramSnapshot(
            self.bounds,
            counts,
            max(0.0, self.sum - earlier.sum),
            max(0, self.count - earlier.count),
        )

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        """Combine two disjoint interval distributions."""
        if other.bounds != self.bounds:
            return self
        return HistogramSnapshot(
            self.bounds,
            tuple(a + b for a, b in zip(self.counts, other.counts)),
            self.sum + other.sum,
            self.count + other.count,
        )

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile (upper bucket edge), 0.0 when empty."""
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        running = 0
        for bound, n in zip(self.bounds, self.counts):
            running += n
            if running >= rank:
                return bound
        return math.inf

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


#: fields a histogram query may ask for
_HIST_FIELDS = ("p50", "p95", "p99", "mean", "count", "rate", "sum")
_GAUGE_FIELDS = ("last", "avg", "min", "max")
_COUNTER_FIELDS = ("rate", "total")


class TimeSeriesStore:
    """Ring-buffer samples of every series in one metrics registry."""

    def __init__(
        self,
        registry: MetricsRegistry,
        clock: Clock,
        *,
        interval: float = 1.0,
        retention: float = 600.0,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"scrape interval must be positive, got {interval}")
        if retention < interval:
            raise ValueError(f"retention {retention} shorter than interval {interval}")
        self.registry = registry
        self.clock = clock
        self.interval = float(interval)
        self.retention = float(retention)
        self._capacity = max(8, int(math.ceil(retention / interval)) + 2)
        self._lock = threading.Lock()
        #: metric name -> label set -> deque[(t, value-or-snapshot)]
        self._series: Dict[str, Dict[LabelSet, deque]] = {}
        self._kinds: Dict[str, str] = {}
        self._listeners: List[Callable[[float, "TimeSeriesStore"], None]] = []
        self.scrapes = 0
        self.last_scrape: Optional[float] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- scraping --------------------------------------------------------
    def scrape_once(self, now: Optional[float] = None) -> float:
        """Sample every instrument in the registry; returns the timestamp."""
        t = self.clock.now() if now is None else float(now)
        with self._lock:
            for family in self.registry.families():
                kind = family.kind
                self._kinds[family.name] = kind
                by_labels = self._series.setdefault(family.name, {})
                for labels, instrument in family.samples():
                    ring = by_labels.get(labels)
                    if ring is None:
                        ring = deque(maxlen=self._capacity)
                        by_labels[labels] = ring
                    if isinstance(instrument, Histogram):
                        ring.append((t, HistogramSnapshot.of(instrument)))
                    elif isinstance(instrument, (Counter, Gauge)):
                        ring.append((t, float(instrument.value)))
            self.scrapes += 1
            self.last_scrape = t
        for listener in list(self._listeners):
            listener(t, self)
        return t

    def add_listener(self, fn: Callable[[float, "TimeSeriesStore"], None]) -> None:
        """Run ``fn(timestamp, store)`` after every scrape."""
        self._listeners.append(fn)

    def start(self) -> "TimeSeriesStore":
        """Scrape on ``interval`` from a daemon thread (wall-clock runs)."""
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="tsdb-scraper", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.scrape_once()
            except Exception:  # noqa: BLE001 - the scraper must survive races
                # a registry mutating mid-iteration or a listener raising
                # must not kill the scrape loop; the next tick retries
                continue

    # -- catalogue -------------------------------------------------------
    def metric_names(self) -> List[str]:
        with self._lock:
            return sorted(self._series)

    def kind_of(self, metric: str) -> Optional[str]:
        with self._lock:
            return self._kinds.get(metric)

    # -- queries ---------------------------------------------------------
    def latest(
        self, metric: str, labels: Optional[Dict[str, str]] = None
    ) -> Optional[Any]:
        """The most recent sample of one series (scalar or snapshot)."""
        with self._lock:
            ring = self._find(metric, labels)
            if not ring:
                return None
            return ring[-1][1]

    def window_rate(
        self,
        metric: str,
        window: float,
        labels: Optional[Dict[str, str]] = None,
        now: Optional[float] = None,
    ) -> Optional[float]:
        """Per-second rate of a counter over the trailing ``window``."""
        t1 = self.clock.now() if now is None else now
        t0 = t1 - window
        with self._lock:
            ring = self._find(metric, labels)
            if not ring:
                return None
            pts = [(t, v) for t, v in ring if t >= t0]
            if len(pts) < 2:
                return 0.0 if pts else None
            dv = pts[-1][1] - pts[0][1]
            dt = pts[-1][0] - pts[0][0]
            return dv / dt if dt > 0 else 0.0

    def _find(self, metric: str, labels: Optional[Dict[str, str]]) -> Optional[deque]:
        """One series ring (lock held).  ``labels=None`` matches the first
        series when the metric has exactly one, mirroring the zero-label
        convenience of :class:`~repro.obs.metrics.MetricFamily`."""
        by_labels = self._series.get(metric)
        if not by_labels:
            return None
        if labels is None:
            if len(by_labels) == 1:
                return next(iter(by_labels.values()))
            return by_labels.get(())
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        return by_labels.get(key)

    def query(
        self,
        metric: str,
        *,
        since: Optional[float] = None,
        until: Optional[float] = None,
        step: Optional[float] = None,
        labels: Optional[Dict[str, str]] = None,
        field: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Range query with downsampling over one metric's series.

        ``since``/``until`` are clock timestamps; ``since <= 0`` means
        *relative to now* (``since=-60`` = the last minute).  ``step``
        buckets the range and aggregates per bucket; without it the raw
        samples return.  ``field`` selects the aggregate:

        * gauges — ``last`` (default), ``avg``, ``min``, ``max``;
        * counters — ``rate`` (default, per-second over the bucket) or
          ``total`` (the raw cumulative sample);
        * histograms — ``p50``/``p95`` (default)/``p99``, ``mean``,
          ``count``, ``sum`` or ``rate`` (events/s), each computed from
          the *windowed* snapshot delta, not the lifetime distribution.

        ``labels`` filters to series whose labels are a superset of it.
        Raises ``KeyError`` for an unknown metric and ``ValueError`` for
        a bad field/step, which the HTTP layer maps to 404/400.
        """
        with self._lock:
            by_labels = self._series.get(metric)
            kind = self._kinds.get(metric)
            if by_labels is None or kind is None:
                raise KeyError(metric)
            now = self.last_scrape if self.last_scrape is not None else self.clock.now()
            t1 = now if until is None else float(until)
            if since is None:
                t0 = t1 - self.retention
            else:
                t0 = float(since)
                if t0 <= 0:
                    t0 = t1 + t0
            if step is not None and step <= 0:
                raise ValueError(f"step must be positive, got {step}")
            field = field or {"gauge": "last", "counter": "rate", "histogram": "p95"}[kind]
            allowed = {
                "gauge": _GAUGE_FIELDS,
                "counter": _COUNTER_FIELDS,
                "histogram": _HIST_FIELDS,
            }[kind]
            if field not in allowed:
                raise ValueError(
                    f"field {field!r} not valid for a {kind} "
                    f"(choose from {', '.join(allowed)})"
                )
            out_series = []
            for label_set, ring in by_labels.items():
                label_map = dict(label_set)
                if labels is not None and any(
                    label_map.get(k) != str(v) for k, v in labels.items()
                ):
                    continue
                pts = [(t, v) for t, v in ring if t0 <= t <= t1]
                out_series.append(
                    {
                        "labels": label_map,
                        "points": self._render(kind, field, pts, ring, t0, t1, step),
                    }
                )
        return {
            "metric": metric,
            "kind": kind,
            "field": field,
            "since": t0,
            "until": t1,
            "step": step,
            "series": out_series,
        }

    # -- point rendering (lock held) ------------------------------------
    def _render(
        self,
        kind: str,
        field: str,
        pts: List[Tuple[float, Any]],
        ring: deque,
        t0: float,
        t1: float,
        step: Optional[float],
    ) -> List[List[float]]:
        if kind == "gauge":
            if step is None:
                return [[t, v] for t, v in pts]
            return self._bucket_scalar(pts, t0, t1, step, field)
        if kind == "counter":
            if field == "total":
                if step is None:
                    return [[t, v] for t, v in pts]
                return self._bucket_scalar(pts, t0, t1, step, "last")
            # rate: delta over each step (or each sample gap)
            eff_step = step if step is not None else self.interval
            return self._bucket_rate(pts, t0, t1, eff_step)
        # histogram: delta snapshots per bucket
        eff_step = step if step is not None else self.interval
        return self._bucket_histogram(pts, t0, t1, eff_step, field)

    @staticmethod
    def _bucket_scalar(
        pts: List[Tuple[float, float]], t0: float, t1: float, step: float, field: str
    ) -> List[List[float]]:
        out: List[List[float]] = []
        edge = t0
        i = 0
        while edge < t1 + 1e-12:
            hi = edge + step
            bucket = []
            while i < len(pts) and pts[i][0] < hi:
                if pts[i][0] >= edge:
                    bucket.append(pts[i][1])
                i += 1
            if bucket:
                if field == "avg":
                    value = sum(bucket) / len(bucket)
                elif field == "min":
                    value = min(bucket)
                elif field == "max":
                    value = max(bucket)
                else:
                    value = bucket[-1]
                out.append([edge + step / 2.0, value])
            edge = hi
        return out

    @staticmethod
    def _bucket_rate(
        pts: List[Tuple[float, float]], t0: float, t1: float, step: float
    ) -> List[List[float]]:
        out: List[List[float]] = []
        if not pts:
            return out
        edge = t0
        prev_t, prev_v = pts[0]
        i = 0
        while edge < t1 + 1e-12:
            hi = edge + step
            last = None
            while i < len(pts) and pts[i][0] < hi:
                last = pts[i]
                i += 1
            if last is not None and last[0] > prev_t:
                dv = last[1] - prev_v
                dt = last[0] - prev_t
                out.append([edge + step / 2.0, max(0.0, dv) / dt if dt > 0 else 0.0])
                prev_t, prev_v = last
            edge = hi
        return out

    @staticmethod
    def _bucket_histogram(
        pts: List[Tuple[float, Any]], t0: float, t1: float, step: float, field: str
    ) -> List[List[float]]:
        out: List[List[float]] = []
        if not pts:
            return out
        edge = t0
        prev: Optional[HistogramSnapshot] = None
        prev_t = pts[0][0]
        i = 0
        while edge < t1 + 1e-12:
            hi = edge + step
            last = None
            while i < len(pts) and pts[i][0] < hi:
                last = pts[i]
                i += 1
            if last is not None:
                snap: HistogramSnapshot = last[1]
                window = snap.delta(prev)
                if window.count > 0 or prev is not None:
                    if field == "rate":
                        dt = last[0] - prev_t if prev is not None else step
                        value = window.count / dt if dt > 0 else 0.0
                    elif field == "count":
                        value = float(window.count)
                    elif field == "sum":
                        value = window.sum
                    elif field == "mean":
                        value = window.mean
                    else:
                        value = window.quantile(
                            {"p50": 0.50, "p95": 0.95, "p99": 0.99}[field]
                        )
                    out.append([edge + step / 2.0, value])
                prev = snap
                prev_t = last[0]
            edge = hi
        return out


# ----------------------------------------------------------------------
# the /stream fan-out
# ----------------------------------------------------------------------


class StreamBroker:
    """Fan-out of telemetry deltas to any number of live subscribers.

    Publishers (the scrape listener, the SLO engine) push JSON-ready
    dicts; each subscriber owns a bounded queue that **drops the oldest
    event when full**, so a stalled SSE client can never backpressure
    the autonomic plane.
    """

    def __init__(self, *, max_queue: int = 1024) -> None:
        import queue as _queue

        self._queue_mod = _queue
        self._max_queue = max_queue
        self._subs: List[Any] = []
        self._lock = threading.Lock()
        self.published = 0

    def subscribe(self) -> Any:
        q = self._queue_mod.Queue(maxsize=self._max_queue)
        with self._lock:
            self._subs.append(q)
        return q

    def unsubscribe(self, q: Any) -> None:
        with self._lock:
            try:
                self._subs.remove(q)
            except ValueError:
                pass

    @property
    def subscribers(self) -> int:
        with self._lock:
            return len(self._subs)

    def publish(self, event: Dict[str, Any]) -> None:
        with self._lock:
            subs = list(self._subs)
            self.published += 1
        for q in subs:
            while True:
                try:
                    q.put_nowait(event)
                    break
                except self._queue_mod.Full:
                    try:
                        q.get_nowait()  # drop the oldest, keep the stream live
                    except self._queue_mod.Empty:
                        break


class MetricsDeltaPublisher:
    """Scrape listener that streams *changed* scalar samples.

    Registered on the store with ``store.add_listener(publisher)``; each
    scrape publishes one ``{"type": "metrics", …}`` event carrying only
    the counters/gauges whose value moved since the last publish (and
    each histogram's count), so an idle farm streams heartbeats, not
    full registry dumps.
    """

    def __init__(self, broker: StreamBroker) -> None:
        self.broker = broker
        self._last: Dict[Tuple[str, LabelSet], float] = {}

    def __call__(self, now: float, store: TimeSeriesStore) -> None:
        changed: List[Dict[str, Any]] = []
        with store._lock:
            for name, by_labels in store._series.items():
                for label_set, ring in by_labels.items():
                    if not ring:
                        continue
                    value = ring[-1][1]
                    scalar = (
                        float(value.count)
                        if isinstance(value, HistogramSnapshot)
                        else float(value)
                    )
                    key = (name, label_set)
                    if self._last.get(key) != scalar:
                        self._last[key] = scalar
                        changed.append(
                            {
                                "metric": name,
                                "labels": dict(label_set),
                                "value": scalar,
                            }
                        )
        self.broker.publish({"type": "metrics", "t": now, "changed": changed})
