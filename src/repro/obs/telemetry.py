"""The Telemetry facade: one object carrying spans + metrics + a clock.

Every instrumented layer — autonomic managers, the rule engine, the
simulator, the live thread controller, the multi-concern GM — accepts an
*optional* ``Telemetry``.  The default is :data:`NOOP`, a null object
whose every operation is a cheap no-op, so instrumentation can stay
inline on hot paths without perturbing un-instrumented runs (the no-op
invariant is property-tested: a scenario produces a bit-identical event
sequence with telemetry attached or detached).

Usage::

    tel = Telemetry(SimClock(sim))
    with tel.span("mape.cycle", actor="AM_F") as cycle:
        with tel.span("mape.monitor", actor="AM_F"):
            data = abc.monitor()
        tel.event("blackout") if data is None else ...
    tel.metrics.counter("repro_ticks_total").inc()

``span`` timestamps with ``clock.now()`` (sim or wall time) and records
``clock.perf()`` cost in :attr:`Span.perf_elapsed`, so control-loop
latency is measurable even when a tick takes zero simulated seconds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional

from .clock import Clock, WallClock
from .events import TraceRecorder
from .metrics import MetricsRegistry
from .propagation import TraceContext
from .spans import Span, SpanEvent, SpanRecorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .live import TelemetryServer

__all__ = ["Telemetry", "NullTelemetry", "NOOP"]


class _SpanContext:
    """Context manager returned by :meth:`Telemetry.span`."""

    __slots__ = ("_tel", "span", "_perf0")

    def __init__(self, tel: "Telemetry", span: Span) -> None:
        self._tel = tel
        self.span = span
        self._perf0 = 0.0

    def __enter__(self) -> Span:
        self._perf0 = self._tel.clock.perf()
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.span.perf_elapsed = self._tel.clock.perf() - self._perf0
        if exc_type is not None:
            self.span.set_attribute("error", repr(exc))
        self._tel.spans.close(self.span, self._tel.clock.now())
        return False


class Telemetry:
    """Live telemetry: a clock, a span recorder, a metrics registry.

    ``trace`` optionally links the legacy :class:`TraceRecorder` whose
    event marks belong to the same run, so exporters can emit one merged
    decision audit.
    """

    enabled = True

    def __init__(
        self,
        clock: Optional[Clock] = None,
        *,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.clock: Clock = clock if clock is not None else WallClock()
        self.spans = SpanRecorder()
        self.metrics = MetricsRegistry()
        self.trace = trace
        #: span-events recorded while no span was open
        self.orphan_events: List[SpanEvent] = []
        #: attachment points the longitudinal layer fills in lazily —
        #: plain attributes, None until filled (on NOOP too), so runtime
        #: hook sites read them and never import repro.obs.slo/timeseries
        self.timeseries = None  # TimeSeriesStore after start_timeseries()
        self.stream = None  # StreamBroker feeding /stream subscribers
        self.slo = None  # SLOEngine once objectives are installed
        self.adaptation = None  # AdaptationTracker (set by the SLOEngine)

    # -- spans -----------------------------------------------------------
    def span(
        self,
        name: str,
        *,
        actor: str = "",
        context: Optional[TraceContext] = None,
        **attributes: Any,
    ) -> _SpanContext:
        """Open a nested span for the duration of a ``with`` block."""
        span = self.spans.open(
            name, self.clock.now(), actor=actor, context=context, **attributes
        )
        return _SpanContext(self, span)

    def start_span(
        self,
        name: str,
        *,
        actor: str = "",
        context: Optional[TraceContext] = None,
        **attributes: Any,
    ) -> Span:
        """Open a *detached* span closed later by :meth:`end_span`.

        For intervals that outlive the opening frame — e.g. a violation
        report in flight between child and parent managers, or a task
        dispatch whose result arrives on another thread.  An explicit
        ``context`` pins the span into the trace the context names.
        """
        return self.spans.open(
            name,
            self.clock.now(),
            actor=actor,
            attach=False,
            context=context,
            **attributes,
        )

    def end_span(self, span: Optional[Span], **attributes: Any) -> None:
        """Close a span from :meth:`start_span` (None-safe)."""
        if span is None:
            return
        if attributes:
            span.attributes.update(attributes)
        self.spans.close(span, self.clock.now())

    def flush(self) -> int:
        """Close every still-open span at ``clock.now()``; returns count.

        Farm backends call this from ``shutdown()`` so abrupt stops do
        not leak open spans into exported traces.
        """
        return self.spans.flush(self.clock.now())

    # -- longitudinal surface --------------------------------------------
    def start_timeseries(
        self,
        *,
        interval: float = 1.0,
        retention: float = 600.0,
        stream: bool = True,
        scraper_thread: bool = False,
    ):
        """Attach the ring-buffer TSDB (and the ``/stream`` broker) here.

        Idempotent: a second call returns the existing store.  With
        ``scraper_thread=True`` a daemon thread scrapes on ``interval``
        wall-clock seconds; tests drive :meth:`TimeSeriesStore.scrape_once`
        themselves with a manual clock instead.
        """
        if self.timeseries is not None:
            return self.timeseries
        from .timeseries import (  # deferred: cold path, mirrors serve()
            MetricsDeltaPublisher,
            StreamBroker,
            TimeSeriesStore,
        )

        store = TimeSeriesStore(
            self.metrics, self.clock, interval=interval, retention=retention
        )
        if stream:
            self.stream = StreamBroker()
            store.add_listener(MetricsDeltaPublisher(self.stream))
        self.timeseries = store
        if scraper_thread:
            store.start()
        return store

    def stop_timeseries(self) -> None:
        """Stop the scraper thread (if any), then close open alert spans.

        In that order: the scraper's listeners append to the very sample
        windows the close reads (``deque mutated during iteration``), and
        a scrape after the close could open an alert nobody ends.
        """
        if self.timeseries is not None:
            self.timeseries.stop()
        if self.slo is not None:
            self.slo.close()

    # -- live surface ----------------------------------------------------
    def serve(self, port: int = 0, host: str = "127.0.0.1") -> "TelemetryServer":
        """Start the live HTTP surface over this telemetry.

        Serves ``/metrics`` (Prometheus text), ``/trace/<trace_id>``
        (JSON tree), ``/traces`` and ``/healthz`` from a daemon thread;
        ``port=0`` picks a free port (read it off the returned server).
        """
        from .live import TelemetryServer  # deferred: http.server is cold-path

        return TelemetryServer(self, host=host, port=port)

    # -- events ----------------------------------------------------------
    def event(self, name: str, **attributes: Any) -> None:
        """Record a point event on the innermost open span (or orphaned)."""
        current = self.spans.current
        if current is not None:
            current.add_event(name, self.clock.now(), **attributes)
        else:
            self.orphan_events.append(
                SpanEvent(self.clock.now(), name, dict(attributes))
            )


# ----------------------------------------------------------------------
# the null object
# ----------------------------------------------------------------------


class _NullSpan:
    """Inert span: absorbs attribute/event calls, reports nothing."""

    __slots__ = ()
    span_id = ""
    parent_id = None
    trace_id = ""
    name = ""
    actor = ""
    start = 0.0
    end = 0.0
    perf_elapsed = 0.0
    duration = 0.0
    finished = True
    attributes: dict = {}
    events: list = []

    def set_attribute(self, key: str, value: Any) -> "_NullSpan":
        return self

    def add_event(self, name: str, time: float = 0.0, **attributes: Any) -> None:
        return None


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


class _NullInstrument:
    """Stands in for Counter/Gauge/Histogram *and* their families."""

    __slots__ = ()
    value = 0.0
    count = 0
    sum = 0.0

    def labels(self, **labels: Any) -> "_NullInstrument":
        return self

    def inc(self, amount: float = 1.0) -> None:
        return None

    def dec(self, amount: float = 1.0) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None


class _NullMetricsRegistry:
    __slots__ = ()

    def counter(self, name: str, help: str = "") -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "") -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, help: str = "", *, buckets: Any = None) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def families(self) -> list:
        return []


_NULL_SPAN = _NullSpan()
_NULL_SPAN_CONTEXT = _NullSpanContext()
_NULL_INSTRUMENT = _NullInstrument()
_NULL_METRICS = _NullMetricsRegistry()


class NullTelemetry:
    """The do-nothing default: every operation is O(1) and allocation-free.

    Instrumented code never needs a ``telemetry is not None`` branch —
    it can call the same API unconditionally; for the very hottest paths
    the :attr:`enabled` flag allows skipping argument construction.
    """

    enabled = False
    trace = None
    metrics = _NULL_METRICS
    orphan_events: list = []
    timeseries = None
    stream = None
    slo = None
    adaptation = None

    def span(self, name: str, *, actor: str = "", **attributes: Any) -> _NullSpanContext:
        return _NULL_SPAN_CONTEXT

    def start_span(self, name: str, *, actor: str = "", **attributes: Any) -> None:
        return None

    def end_span(self, span: Any, **attributes: Any) -> None:
        return None

    def event(self, name: str, **attributes: Any) -> None:
        return None

    def flush(self) -> int:
        return 0

    def start_timeseries(self, **kwargs: Any) -> None:
        return None

    def stop_timeseries(self) -> None:
        return None

    def serve(self, port: int = 0, host: str = "127.0.0.1") -> None:
        raise RuntimeError(
            "NullTelemetry has nothing to serve; construct a Telemetry() "
            "and pass it to the farm/controller to expose live telemetry"
        )


#: module-level singleton used as the default everywhere
NOOP = NullTelemetry()
