"""Event marks and series recording: the data behind every figure.

Figure 3 and Figure 4 in the paper are *time-series plots of manager
activity*: event marks (``contrLow``, ``raiseViol``, ``incRate``,
``addWorker``, ``rebalance``, ``endStream``, …) on one axis and numeric
series (throughput, input rate, cores in use) on others.  The
:class:`TraceRecorder` collects both kinds of data during a run; the
experiment reports then render them as aligned text timelines and CSV.

The recorder is intentionally passive — pure appends, no side effects —
so attaching it never perturbs scenario dynamics.  It lives in the
substrate-agnostic ``repro.obs`` package because the same recorder
serves sim-time and wall-clock runs.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = ["EventMark", "TraceRecorder"]


@dataclass(frozen=True)
class EventMark:
    """One manager event: who emitted what, when, with what detail."""

    time: float
    actor: str
    name: str
    detail: Mapping[str, Any] = field(default_factory=dict)

    #: fixed column widths used by :meth:`__str__`; wide enough for
    #: nine-digit timestamps and twelve-character actor names so stacked
    #: marks stay aligned (longer actors are tail-truncated, keeping the
    #: distinguishing suffix of names like ``AM_app.filter.W10``)
    TIME_WIDTH = 12
    ACTOR_WIDTH = 12

    def __str__(self) -> str:
        actor = self.actor
        if len(actor) > self.ACTOR_WIDTH:
            actor = "~" + actor[-(self.ACTOR_WIDTH - 1):]
        extra = f" {dict(self.detail)}" if self.detail else ""
        return (
            f"[{self.time:{self.TIME_WIDTH}.2f}] "
            f"{actor:>{self.ACTOR_WIDTH}}: {self.name}{extra}"
        )


class TraceRecorder:
    """Collects event marks and sampled numeric series for one run."""

    def __init__(self) -> None:
        self.events: List[EventMark] = []
        self.series: Dict[str, List[Tuple[float, float]]] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def mark(self, time: float, actor: str, name: str, **detail: Any) -> EventMark:
        """Record a manager/controller event."""
        ev = EventMark(time, actor, name, dict(detail))
        self.events.append(ev)
        return ev

    def sample(self, series: str, time: float, value: float) -> None:
        """Record one (time, value) point of a numeric series."""
        self.series.setdefault(series, []).append((time, float(value)))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def events_of(self, actor: Optional[str] = None, name: Optional[str] = None) -> List[EventMark]:
        """Events filtered by actor and/or event name, in time order."""
        out = self.events
        if actor is not None:
            out = [e for e in out if e.actor == actor]
        if name is not None:
            out = [e for e in out if e.name == name]
        return list(out)

    def event_names(self, actor: Optional[str] = None) -> List[str]:
        """Event names in order of occurrence (optionally one actor)."""
        return [e.name for e in self.events_of(actor)]

    def first(self, name: str, actor: Optional[str] = None) -> Optional[EventMark]:
        """First occurrence of event ``name`` (None if absent)."""
        for e in self.events:
            if e.name == name and (actor is None or e.actor == actor):
                return e
        return None

    def count(self, name: str, actor: Optional[str] = None) -> int:
        """Number of occurrences of event ``name``."""
        return len(self.events_of(actor, name))

    def series_values(self, series: str) -> List[Tuple[float, float]]:
        """The (time, value) points of a series ([] if unknown)."""
        return list(self.series.get(series, []))

    def value_at(self, series: str, time: float) -> Optional[float]:
        """Last sampled value of ``series`` at or before ``time``."""
        best: Optional[float] = None
        for t, v in self.series.get(series, []):
            if t <= time:
                best = v
            else:
                break
        return best

    def final_value(self, series: str) -> Optional[float]:
        """Most recent sample of ``series`` (None if empty)."""
        pts = self.series.get(series)
        return pts[-1][1] if pts else None

    def assert_order(self, names: Sequence[str], actor: Optional[str] = None) -> bool:
        """True if ``names`` occur in this relative order (subsequence)."""
        stream = iter(self.event_names(actor))
        return all(any(n == got for got in stream) for n in names)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_csv(self, series: str) -> str:
        """CSV text (time,value) for one series."""
        buf = io.StringIO()
        buf.write("time,value\n")
        for t, v in self.series.get(series, []):
            buf.write(f"{t:.6f},{v:.6f}\n")
        return buf.getvalue()

    def events_csv(self) -> str:
        """CSV text (time,actor,event,detail) of every event mark."""
        buf = io.StringIO()
        buf.write("time,actor,event,detail\n")
        for e in self.events:
            detail = ";".join(f"{k}={v}" for k, v in e.detail.items())
            buf.write(f"{e.time:.6f},{e.actor},{e.name},{detail}\n")
        return buf.getvalue()
