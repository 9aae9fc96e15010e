"""Tests for the decision-mark view and text rendering."""

from repro.core.contracts import BestEffortContract
from repro.core.events import Events
from repro.core.manager import AutonomicManager
from repro.core.skeleton_manager import PipelineManager
from repro.obs import ManualClock, SimClock, Telemetry
from repro.obs.events import EventMark, TraceRecorder
from repro.obs.export import ascii_series, ascii_timeline, trace_jsonl
from repro.sim.engine import Simulator


class TestTraceRecorder:
    def _tr(self):
        tel = Telemetry(ManualClock())
        tel.event("contrLow", actor="AM_F", time=1.0)
        with tel.span("mape.cycle", actor="AM_F"):
            tel.event("notEnough", actor="AM_F", time=2.0)
            tel.event("raiseViol", actor="AM_F", time=3.0)
        with tel.span("mape.cycle", actor="AM_A"):
            tel.event("incRate", actor="AM_A", time=4.0, delta=0.1)
        tel.event("contrLow", actor="AM_F", time=5.0)
        return TraceRecorder(tel)

    def test_events_in_order(self):
        tr = self._tr()
        assert tr.event_names() == [
            "contrLow", "notEnough", "raiseViol", "incRate", "contrLow",
        ]

    def test_filter_by_actor(self):
        tr = self._tr()
        assert tr.event_names("AM_A") == ["incRate"]

    def test_filter_by_name(self):
        tr = self._tr()
        assert len(tr.events_of(name="contrLow")) == 2

    def test_first_and_count(self):
        tr = self._tr()
        assert tr.first("contrLow").time == 1.0
        assert tr.first("missing") is None
        assert tr.count("contrLow") == 2
        assert tr.count("contrLow", actor="AM_A") == 0

    def test_detail_preserved(self):
        tr = self._tr()
        ev = tr.first("incRate")
        assert ev.detail == {"delta": 0.1}

    def test_assert_order_subsequence(self):
        tr = self._tr()
        assert tr.assert_order(["contrLow", "raiseViol", "incRate"])
        assert tr.assert_order(["notEnough", "contrLow"])
        assert not tr.assert_order(["incRate", "raiseViol"])

    def test_plain_span_events_are_not_marks(self):
        tel = Telemetry(ManualClock())
        with tel.span("mape.execute", actor="AM_F"):
            tel.event("mape.operation", op="add_executor")
        tel.event("lonely")
        assert TraceRecorder(tel).events == []

    def test_untraced_view_is_empty(self):
        m = AutonomicManager("m", Simulator())
        m.assign_contract(BestEffortContract())
        m.raise_violation("x")
        assert m.trace.events == []
        assert m.violations == [(0.0, "x")]

    def test_event_mark_str(self):
        ev = EventMark(1.5, "AM", "go", {"k": 1})
        s = str(ev)
        assert "AM" in s and "go" in s


class TestAsciiRendering:
    def test_timeline_empty(self):
        assert "no events" in ascii_timeline([])

    def test_timeline_has_row_per_event_name(self):
        events = [
            EventMark(0.0, "a", "alpha"),
            EventMark(5.0, "a", "beta"),
            EventMark(10.0, "a", "alpha"),
        ]
        out = ascii_timeline(events, width=40)
        lines = out.splitlines()
        assert any("alpha" in ln for ln in lines)
        assert any("beta" in ln for ln in lines)
        alpha_row = next(ln for ln in lines if "alpha" in ln)
        assert alpha_row.count("*") == 2

    def test_series_empty(self):
        assert "no data" in ascii_series([], title="t")

    def test_series_renders_points_and_hlines(self):
        pts = [(float(t), 0.5) for t in range(10)]
        out = ascii_series(pts, hlines=[0.3, 0.7], height=8, width=40, title="thr")
        assert "thr" in out
        assert "o" in out
        assert "-" in out

    def test_series_constant_value_does_not_crash(self):
        pts = [(0.0, 1.0), (1.0, 1.0)]
        out = ascii_series(pts, lo=1.0, hi=1.0)
        assert "o" in out


class TestMarkOrder:
    """Marks come back in the order they were made, whichever span holds
    them and whoever made them."""

    def test_nested_assigns_at_one_instant_keep_recording_order(self):
        sim = Simulator()
        tel = Telemetry(SimClock(sim))
        parent = PipelineManager("AM_A", sim, telemetry=tel)
        parent.add_child(AutonomicManager("AM_C", sim, telemetry=tel))
        parent.assign_contract(BestEffortContract())
        # the parent's two marks sit on the outer contract.assign span,
        # opened first; the child's on the span nested inside it
        assert [(e.actor, e.name) for e in parent.trace.events] == [
            ("AM_A", Events.NEW_CONTRACT),
            ("AM_C", Events.NEW_CONTRACT),
            ("AM_C", Events.GO_ACTIVE),
            ("AM_A", Events.GO_ACTIVE),
        ]
        assert {e.time for e in parent.trace.events} == {0.0}

    def test_a_mark_keeps_its_own_actor_on_another_actors_span(self):
        sim = Simulator()
        tel = Telemetry(SimClock(sim))
        with tel.span("mc.intent", actor="GM"):
            tel.event(Events.INTENT_AMENDED, actor="AM_sec", time=sim.now, nodes=["u0"])
        (span,) = tel.spans.spans
        assert span.actor == "GM"
        assert [(e.actor, e.detail) for e in TraceRecorder(tel).events] == [
            ("AM_sec", {"nodes": ["u0"]})
        ]

    def test_a_violation_raised_from_a_scheduled_call_is_an_orphan_mark(self):
        sim = Simulator()
        tel = Telemetry(SimClock(sim))
        m = AutonomicManager("AM_F", sim, telemetry=tel, autostart=False)
        m.assign_contract(BestEffortContract())
        sim.schedule(5.0, m.raise_violation, "late")
        sim.run(until=10.0)
        (orphan,) = tel.orphan_events
        assert (orphan.actor, orphan.name, orphan.time) == ("AM_F", Events.RAISE_VIOL, 5.0)
        assert [(e.name, e.time) for e in m.trace.events] == [
            (Events.NEW_CONTRACT, 0.0),
            (Events.GO_ACTIVE, 0.0),
            (Events.RAISE_VIOL, 5.0),
        ]
        audit = trace_jsonl(tel)
        assert '"type": "span_event"' not in audit
        assert audit.splitlines()[2] == (
            '{"type": "event", "time": 5.0, "actor": "AM_F", "name": "raiseViol", '
            '"detail": {"kind": "late"}}'
        )
