"""Metrics registry: counters, gauges and fixed-bucket histograms.

This is the single sink the monitoring plumbing reports into — the
rate estimates sampled from :class:`~repro.sim.farm.SimFarm`, the live
:class:`~repro.runtime.farm_runtime.ThreadFarm` snapshots, control-loop
latencies, per-worker service times, queue variance and reconfiguration
blackout durations all land here under one namespace, regardless of
substrate.  The estimators themselves (:mod:`repro.sim.metrics`) remain
the *measurement* machinery; this module is where their outputs become
queryable, exportable telemetry.

Design constraints, in order:

* **deterministic** — no clocks, no randomness; an instrument is pure
  state updated by explicit calls, so attaching metrics to a
  deterministic scenario changes nothing about its dynamics;
* **fixed-bucket histograms** — bucket bounds are declared up front
  (Prometheus-style cumulative ``le`` buckets), keeping observation
  O(#buckets) with zero allocation on the hot path;
* **labelled families** — one family per metric name, child instruments
  per label set (``registry.counter("x").labels(manager="AM_F")``),
  mirroring the Prometheus client-library data model that
  :func:`repro.obs.export.prometheus_text` renders.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram bounds, tuned for control-loop and service latencies:
#: sub-millisecond ticks of the DES-backed loop up to multi-second
#: reconfiguration blackouts land in distinct buckets.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

LabelSet = Tuple[Tuple[str, str], ...]


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up (amount={amount})")
        self.value += amount


class Gauge:
    """A value that can go up and down (rates, worker counts, exposure)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram with Prometheus cumulative-``le`` semantics.

    ``bounds`` are the finite upper bucket edges in strictly increasing
    order; an implicit ``+Inf`` bucket catches the tail.  ``counts[i]``
    is the number of observations in ``(bounds[i-1], bounds[i]]`` —
    *non*-cumulative internally; :meth:`cumulative` produces the
    exposition view.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Iterable[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must strictly increase: {bounds}")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1: the +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs, ending with (+Inf, count)."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self.counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper edge of the bucket).

        Good enough for report tables; the JSONL export carries the raw
        cumulative counts for anything finer.
        """
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        for bound, cum in self.cumulative():
            if cum >= rank:
                return bound
        return float("inf")  # pragma: no cover - defensive


class MetricFamily:
    """All instruments sharing one metric name, keyed by label set.

    The family doubles as its own zero-label child: calling ``inc`` /
    ``set`` / ``observe`` directly on the family updates the unlabelled
    instrument, so simple metrics need no ``labels()`` ceremony.
    """

    KINDS = ("counter", "gauge", "histogram")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        *,
        buckets: Optional[Iterable[float]] = None,
    ) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        if kind not in self.KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self._buckets = tuple(buckets) if buckets is not None else DEFAULT_LATENCY_BUCKETS
        self._children: Dict[LabelSet, object] = {}
        #: labels() call signatures already resolved -> their child
        self._seen: Dict[tuple, object] = {}

    def _make(self):
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        return Histogram(self._buckets)

    def labels(self, **labels: object):
        """The child instrument for this label set (created on first use).

        A label set is validated, sorted and stringified the first time
        it is seen; later calls with the same keyword arguments (same
        order, same value types) are one dict lookup.  Hot paths should
        still keep the child they get back rather than ask again.
        """
        # value types are part of the key: 1, 1.0 and True are equal as
        # dict keys but render as three different label values
        seen = (*labels.items(), *map(type, labels.values()))
        try:
            return self._seen[seen]
        except KeyError:
            pass
        except TypeError:  # unhashable label value: resolve uncached
            seen = None
        for key in labels:
            if not _LABEL_RE.match(key):
                raise ValueError(f"invalid label name {key!r}")
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        child = self._children.get(key)
        if child is None:  # setdefault: two first callers must share one child
            child = self._children.setdefault(key, self._make())
        if seen is not None:
            self._seen[seen] = child
        return child

    # -- zero-label convenience delegates -------------------------------
    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    @property
    def value(self) -> float:
        """Value of the unlabelled child (counters/gauges)."""
        return self.labels().value

    def samples(self) -> List[Tuple[LabelSet, object]]:
        """(label_set, instrument) pairs in insertion order."""
        return list(self._children.items())


class MetricsRegistry:
    """Get-or-create registry of metric families, one per name."""

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        buckets: Optional[Iterable[float]] = None,
    ) -> MetricFamily:
        fam = self._families.get(name)
        if fam is None:
            fam = MetricFamily(name, kind, help, buckets=buckets)
            self._families[name] = fam
        elif fam.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {fam.kind}, not {kind}"
            )
        return fam

    def counter(self, name: str, help: str = "") -> MetricFamily:
        return self._family(name, "counter", help)

    def gauge(self, name: str, help: str = "") -> MetricFamily:
        return self._family(name, "gauge", help)

    def histogram(
        self, name: str, help: str = "", *, buckets: Optional[Iterable[float]] = None
    ) -> MetricFamily:
        return self._family(name, "histogram", help, buckets)

    def families(self) -> List[MetricFamily]:
        """Registered families in registration order."""
        return list(self._families.values())

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def __len__(self) -> int:
        return len(self._families)

    def __contains__(self, name: str) -> bool:
        return name in self._families
