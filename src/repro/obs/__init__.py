"""repro.obs — the unified observability subsystem.

One substrate-agnostic telemetry spine for the whole stack:

* **clocks** (:mod:`repro.obs.clock`) — the same tracer timestamps
  sim-time spans under the DES and wall-clock spans under the live
  thread runtime, by injecting a :class:`Clock`;
* **spans** (:mod:`repro.obs.spans`) — hierarchical named intervals with
  parents, attributes and point events; every MAPE phase, rule-engine
  invocation, contract split, violation propagation hop and two-phase
  intent round of the autonomic managers becomes a span or span-event;
  a farm task's spans are kept as rows (:mod:`repro.obs.rows`) and
  built when the store is read;
* **event marks** (:mod:`repro.obs.events`) — a read view of the
  managers' decisions, each recorded once as a span event with an
  actor: the ``(time, actor, name)`` records behind the figures;
* **metrics** (:mod:`repro.obs.metrics`) — a registry of counters,
  gauges and fixed-bucket histograms: control-loop latency, queue
  variance, per-worker service time, reconfiguration blackout duration;
* **exporters** (:mod:`repro.obs.export`) — JSONL decision audits,
  Prometheus text exposition, ASCII timeline/series figures;
* **propagation** (:mod:`repro.obs.propagation`) — W3C-traceparent-style
  trace context carried inside every task envelope, across process
  queues and TCP frames, so a task's submit → dispatch → (crash →
  replay)* → exec → result is one causal tree on every backend;
* **live surface** (:mod:`repro.obs.live`) — a stdlib ``http.server``
  endpoint (``Telemetry.serve(port)``) exposing ``/metrics``,
  ``/trace/<trace_id>``, ``/traces``, ``/healthz``, ``/query``, ``/slo``
  and an SSE ``/stream`` while a farm runs;
* **time series** (:mod:`repro.obs.timeseries`) — a fixed-retention
  ring-buffer TSDB scraping the registry on an injectable-clock
  interval: counter rates, gauge history, windowed histogram quantiles;
* **SLOs** (:mod:`repro.obs.slo`) — objectives compiled straight from
  the live SLA contracts, scored with multi-window multi-burn-rate
  rules, error budgets and adaptation-latency timestamps;
* **dashboard** (:mod:`repro.obs.top`) — ``python -m repro.obs.top``
  renders a curses-free ASCII view of farms, tenants, burn rates and
  open alerts against a running endpoint;
* **explain** (:mod:`repro.obs.explain`) — ``python -m repro.obs.explain
  audit.jsonl`` reconstructs the causal chain of an actuation or task
  from an exported trace (``--slo`` narrates alert→actuation→recovery).

Everything hangs off a :class:`Telemetry` object that instrumented
layers accept optionally; the :data:`NOOP` null telemetry is the
default, so attaching observability never perturbs dynamics.
"""

from .clock import Clock, ManualClock, SimClock, WallClock
from .events import EventMark, TraceRecorder
from .export import (
    ascii_series,
    ascii_timeline,
    prometheus_text,
    read_trace_jsonl,
    span_from_dict,
    span_to_dict,
    trace_jsonl,
    write_trace_jsonl,
)
from .live import TelemetryServer
from .propagation import (
    TraceContext,
    build_trace_tree,
    list_traces,
    stable_span_id,
    stable_trace_id,
    task_context,
)
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from .slo import (
    SLO,
    AdaptationTracker,
    BurnWindows,
    SLOEngine,
    slo_from_contract,
    slos_for_sharded,
)
from .spans import Span, SpanEvent, SpanRecorder
from .telemetry import NOOP, NullTelemetry, Telemetry
from .timeseries import HistogramSnapshot, StreamBroker, TimeSeriesStore

__all__ = [
    # clocks
    "Clock",
    "SimClock",
    "WallClock",
    "ManualClock",
    # events
    "EventMark",
    "TraceRecorder",
    # spans
    "Span",
    "SpanEvent",
    "SpanRecorder",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    # telemetry
    "Telemetry",
    "NullTelemetry",
    "NOOP",
    # export
    "span_to_dict",
    "span_from_dict",
    "trace_jsonl",
    "write_trace_jsonl",
    "read_trace_jsonl",
    "prometheus_text",
    "ascii_timeline",
    "ascii_series",
    # propagation
    "TraceContext",
    "task_context",
    "stable_trace_id",
    "stable_span_id",
    "build_trace_tree",
    "list_traces",
    # live surface
    "TelemetryServer",
    # time series
    "TimeSeriesStore",
    "HistogramSnapshot",
    "StreamBroker",
    # SLOs
    "SLO",
    "SLOEngine",
    "BurnWindows",
    "AdaptationTracker",
    "slo_from_contract",
    "slos_for_sharded",
]
