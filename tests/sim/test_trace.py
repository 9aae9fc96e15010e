"""Tests for trace recording and text rendering."""

import pytest

from repro.obs.events import EventMark, TraceRecorder
from repro.obs.export import ascii_series, ascii_timeline


class TestTraceRecorder:
    def _tr(self):
        tr = TraceRecorder()
        tr.mark(1.0, "AM_F", "contrLow")
        tr.mark(2.0, "AM_F", "notEnough")
        tr.mark(3.0, "AM_F", "raiseViol")
        tr.mark(4.0, "AM_A", "incRate", delta=0.1)
        tr.mark(5.0, "AM_F", "contrLow")
        return tr

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

    def test_series_sampling_and_query(self):
        tr = TraceRecorder()
        for t in range(10):
            tr.sample("throughput", float(t), t * 0.1)
        assert tr.final_value("throughput") == pytest.approx(0.9)
        assert tr.value_at("throughput", 4.5) == pytest.approx(0.4)
        assert tr.value_at("throughput", -1.0) is None
        assert tr.final_value("missing") is None
        assert len(tr.series_values("throughput")) == 10

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
