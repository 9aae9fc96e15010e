"""Event marks: the manager decisions behind every figure.

Figure 3 and Figure 4 in the paper are *time-series plots of manager
activity*: event marks (``contrLow``, ``raiseViol``, ``incRate``,
``addWorker``, ``rebalance``, ``endStream``, …) on one axis and numeric
series (throughput, input rate, cores in use) on others.  A manager
records each mark once, as a span event with an actor on its
:class:`~repro.obs.telemetry.Telemetry`; :class:`TraceRecorder` reads
them back in the order they were made, and the experiment reports
render them as aligned text timelines.  The series are the harness's
own samples, kept on each experiment's result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Mapping, Optional, Sequence

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
    """A read view of the decision marks one telemetry holds.

    Over the :data:`~repro.obs.telemetry.NOOP` telemetry it is empty:
    an untraced manager keeps its ``actions`` and ``violations`` lists
    but writes no audit.
    """

    def __init__(self, telemetry: Any) -> None:
        self.telemetry = telemetry

    @property
    def events(self) -> List[EventMark]:
        """Every mark, in the order the managers made them."""
        tel = self.telemetry
        if not tel.enabled:
            return []
        marks = [
            ev for span in tel.spans.spans for ev in span.events if ev.actor is not None
        ]
        marks += [ev for ev in tel.orphan_events if ev.actor is not None]
        marks.sort(key=lambda ev: ev.seq)
        return [EventMark(ev.time, ev.actor, ev.name, ev.attributes) for ev in marks]

    def events_of(self, actor: Optional[str] = None, name: Optional[str] = None) -> List[EventMark]:
        """Events filtered by actor and/or event name, in recording order."""
        out = self.events
        if actor is not None:
            out = [e for e in out if e.actor == actor]
        if name is not None:
            out = [e for e in out if e.name == name]
        return out

    def event_names(self, actor: Optional[str] = None) -> List[str]:
        """Event names in order of occurrence (optionally one actor)."""
        return [e.name for e in self.events_of(actor)]

    def first(self, name: str, actor: Optional[str] = None) -> Optional[EventMark]:
        """First occurrence of event ``name`` (None if absent)."""
        return next(iter(self.events_of(actor, name)), None)

    def count(self, name: str, actor: Optional[str] = None) -> int:
        """Number of occurrences of event ``name``."""
        return len(self.events_of(actor, name))

    def assert_order(self, names: Sequence[str], actor: Optional[str] = None) -> bool:
        """True if ``names`` occur in this relative order (subsequence)."""
        stream = iter(self.event_names(actor))
        return all(any(n == got for got in stream) for n in names)
