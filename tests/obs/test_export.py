"""Exporter tests: Prometheus text rendering and JSONL decision audits."""

import io
import json

from repro.obs.clock import ManualClock
from repro.obs.export import (
    prometheus_text,
    span_to_dict,
    trace_jsonl,
    write_trace_jsonl,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import Telemetry


class TestPrometheusText:
    def test_counter_and_gauge_rendering(self):
        reg = MetricsRegistry()
        reg.counter("repro_ticks_total", "ticks").labels(manager="AM_F").inc(3)
        reg.gauge("repro_workers", "workers").labels(manager="AM_F").set(5)
        text = prometheus_text(reg)
        assert "# HELP repro_ticks_total ticks" in text
        assert "# TYPE repro_ticks_total counter" in text
        assert 'repro_ticks_total{manager="AM_F"} 3' in text
        assert "# TYPE repro_workers gauge" in text
        assert 'repro_workers{manager="AM_F"} 5' in text

    def test_histogram_renders_cumulative_le_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_lat_seconds", "latency", buckets=(0.1, 0.5))
        h.labels(m="x").observe(0.05)
        h.labels(m="x").observe(0.3)
        h.labels(m="x").observe(2.0)
        text = prometheus_text(reg)
        assert '# TYPE repro_lat_seconds histogram' in text
        assert 'repro_lat_seconds_bucket{m="x",le="0.1"} 1' in text
        assert 'repro_lat_seconds_bucket{m="x",le="0.5"} 2' in text
        assert 'repro_lat_seconds_bucket{m="x",le="+Inf"} 3' in text
        assert 'repro_lat_seconds_sum{m="x"} 2.35' in text
        assert 'repro_lat_seconds_count{m="x"} 3' in text

    def test_unlabelled_instruments_have_no_brace_block(self):
        reg = MetricsRegistry()
        reg.counter("repro_plain_total").inc()
        assert "repro_plain_total 1\n" in prometheus_text(reg)

    def test_label_values_are_escaped(self):
        reg = MetricsRegistry()
        reg.gauge("repro_g").labels(k='say "hi"\\now').set(1)
        text = prometheus_text(reg)
        assert r'k="say \"hi\"\\now"' in text

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""


class TestTraceJsonl:
    def _make_telemetry(self):
        clock = ManualClock()
        tel = Telemetry(clock)
        tel.event("contrLow", actor="AM_F", time=0.0, level=0.2)
        with tel.span("mape.cycle", actor="AM_F"):
            clock.advance(1.0)
            tel.event("checkpoint", phase="analyse")
            tel.event("addWorker", actor="AM_F", time=7.5, count=2)
        return tel

    def test_every_line_is_self_describing_json(self):
        tel = self._make_telemetry()
        lines = trace_jsonl(tel).splitlines()
        records = [json.loads(line) for line in lines]
        assert {r["type"] for r in records} == {"event", "span"}
        span = next(r for r in records if r["type"] == "span")
        assert span["name"] == "mape.cycle"
        assert span["actor"] == "AM_F"
        assert span["duration"] == 1.0
        # the mark made inside the span is an event line, not a span event
        assert [e["name"] for e in span["events"]] == ["checkpoint"]
        marks = [r for r in records if r["type"] == "event"]
        assert marks == [
            {"type": "event", "time": 0.0, "actor": "AM_F", "name": "contrLow",
             "detail": {"level": 0.2}},
            {"type": "event", "time": 7.5, "actor": "AM_F", "name": "addWorker",
             "detail": {"count": 2}},
        ]

    def test_span_to_dict_round_trips_through_json(self):
        tel = self._make_telemetry()
        d = span_to_dict(tel.spans.spans[0])
        assert json.loads(json.dumps(d, default=str)) == json.loads(
            json.dumps(d, default=str)
        )

    def test_write_to_file_object_and_path(self, tmp_path):
        tel = self._make_telemetry()
        buf = io.StringIO()
        n1 = write_trace_jsonl(buf, tel)
        path = tmp_path / "audit.jsonl"
        n2 = write_trace_jsonl(str(path), tel)
        assert n1 == n2 == len(buf.getvalue().splitlines())
        assert path.read_text() == buf.getvalue()

    def test_orphan_span_events_are_exported(self):
        tel = Telemetry(ManualClock())
        tel.event("lonely", why="no open span")
        records = [json.loads(x) for x in trace_jsonl(tel).splitlines()]
        assert records == [
            {
                "type": "span_event",
                "time": 0.0,
                "name": "lonely",
                "attributes": {"why": "no open span"},
            }
        ]
