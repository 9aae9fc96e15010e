"""Acceptance tests: a FIG4 run with telemetry attached.

The three promises the observability subsystem makes, checked end to
end on the paper's hierarchical-manager scenario:

(a) a caller's telemetry records the run and never changes its dynamics
    — the event sequence is bit-identical to a run on the telemetry
    ``run_fig4`` makes for itself;
(b) the JSONL decision audit contains spans for all four MAPE phases of
    at least two managers, at least one violation-propagation span and
    at least one two-phase intent-round span;
(c) the Prometheus dump carries the control-loop latency histograms.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.fig4 import Fig4Config, run_fig4
from repro.obs.events import TraceRecorder
from repro.obs.export import prometheus_text, trace_jsonl
from repro.obs.telemetry import Telemetry

MAPE_PHASES = ("mape.monitor", "mape.analyse", "mape.plan", "mape.execute")


def _cfg(**overrides):
    base = dict(duration=400.0, with_coordinator=True)
    base.update(overrides)
    return Fig4Config(**base)


def _event_tuples(result):
    return [
        (e.time, e.actor, e.name, tuple(sorted((k, str(v)) for k, v in e.detail.items())))
        for e in result.trace.events
    ]


def _run_instrumented(cfg):
    tel = Telemetry()
    result = run_fig4(cfg, telemetry=tel)
    return tel, result


def _decisions(result):
    """What the managers keep with or without an audit."""
    managers = (result.app.am_a, result.app.am_p, result.app.am_f, result.app.am_c)
    return result.app.am_f.actions, [m.violations for m in managers]


class TestFig4Acceptance:
    def test_event_sequence_bit_identical_with_and_without_telemetry(self):
        cfg = _cfg()
        tel, instrumented = _run_instrumented(cfg)
        detached = run_fig4(_cfg())
        assert _event_tuples(instrumented) == _event_tuples(detached)
        assert TraceRecorder(tel).events == instrumented.trace.events
        assert instrumented.cores_series == detached.cores_series
        assert instrumented.throughput_series == detached.throughput_series

    def test_jsonl_audit_has_required_spans(self):
        tel, result = _run_instrumented(_cfg())
        records = [
            json.loads(line)
            for line in trace_jsonl(tel).splitlines()
        ]
        spans = [r for r in records if r["type"] == "span"]

        # (b1) all four MAPE phases for at least two managers
        managers_with_full_mape = {
            actor
            for actor in {s["actor"] for s in spans}
            if all(
                any(s["actor"] == actor and s["name"] == phase for s in spans)
                for phase in MAPE_PHASES
            )
        }
        assert len(managers_with_full_mape) >= 2, managers_with_full_mape

        # (b2) at least one violation propagation hop, closed at delivery
        violations = [s for s in spans if s["name"] == "violation.propagate"]
        assert violations
        assert all(s["end"] is not None and s["duration"] > 0 for s in violations)
        assert all(s["attributes"]["target"] for s in violations)

        # (b3) at least one two-phase intent round with its phase events:
        # the plan, then the commit's reconfiguration blackout (inside
        # the round's nested mc.commit span)
        intents = [s for s in spans if s["name"] == "mc.intent"]
        assert intents
        committed = [s for s in intents if s["attributes"]["outcome"] == "committed"]
        assert committed
        ids = {s["id"] for s in committed}
        rounds = committed + [
            s for s in spans if s["name"] == "mc.commit" and s["parent"] in ids
        ]
        event_names = {e["name"] for s in rounds for e in s["events"]}
        assert {"intent.plan", "farm.blackout"} <= event_names

        # spans nest: every mape phase span has a mape.cycle parent
        by_id = {s["id"]: s for s in spans}
        for s in spans:
            if s["name"] in MAPE_PHASES:
                assert by_id[s["parent"]]["name"] == "mape.cycle"

    def test_prometheus_dump_has_latency_histograms(self):
        tel, _ = _run_instrumented(_cfg())
        text = prometheus_text(tel.metrics)
        assert "# TYPE repro_control_loop_latency_seconds histogram" in text
        for manager in ("AM_A", "AM_F"):
            assert (
                f'repro_control_loop_latency_seconds_bucket{{manager="{manager}",le="+Inf"}}'
                in text
            )
        assert "repro_reconfiguration_blackout_seconds_bucket" in text
        assert "repro_mape_ticks_total" in text

    def test_rule_decisions_recorded_on_plan_spans(self):
        tel, _ = _run_instrumented(_cfg())
        plans = tel.spans.named("mape.plan", "AM_F")
        matched = [m for s in plans for m in s.attributes.get("matched", [])]
        assert any(name == "AddWorkers" for name, _ in matched) or matched

    def test_span_ids_are_deterministic_across_runs(self):
        tel1, _ = _run_instrumented(_cfg())
        tel2, _ = _run_instrumented(_cfg())
        sig1 = [(s.span_id, s.parent_id, s.name, s.actor, s.start, s.end) for s in tel1.spans.spans]
        sig2 = [(s.span_id, s.parent_id, s.name, s.actor, s.start, s.end) for s in tel2.spans.spans]
        assert sig1 == sig2


@given(
    initial_rate=st.sampled_from([0.15, 0.2, 0.3]),
    control_period=st.sampled_from([8.0, 10.0, 12.0]),
    with_coordinator=st.booleans(),
)
@settings(max_examples=8, deadline=None)
def test_telemetry_never_perturbs_dynamics(initial_rate, control_period, with_coordinator):
    """Property: any fig4-style scenario runs identically on a caller's
    telemetry and on the one ``run_fig4`` makes for itself."""
    def cfg():
        return Fig4Config(
            duration=250.0,
            initial_rate=initial_rate,
            control_period=control_period,
            with_coordinator=with_coordinator,
            total_tasks=120,
        )

    instrumented = run_fig4(cfg(), telemetry=Telemetry())
    detached = run_fig4(cfg())
    assert _event_tuples(instrumented) == _event_tuples(detached)
    assert instrumented.cores_series == detached.cores_series
    assert instrumented.throughput_series == detached.throughput_series
    assert _decisions(instrumented) == _decisions(detached)
