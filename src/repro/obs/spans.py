"""Hierarchical span tracing: named intervals with parents and events.

A :class:`Span` is one named interval of manager activity — a MAPE
phase, a rule-engine invocation, a contract split, a violation's journey
from child to parent, one round of the two-phase intent protocol.  Spans
nest: the tracer keeps a per-thread stack of open spans, so a
``mape.monitor`` span opened inside a ``mape.cycle`` span records the
cycle as its parent, and the whole decision process of an autonomic
manager reconstructs as a tree — the "observable event sequence" view of
manager behaviour that arXiv:1002.2722 argues for.

Span identifiers are stable hex strings (never random): locally opened
spans render the recorder's sequential counter as fixed-width hex, and
spans minted across a process boundary hash a stable seed (see
:mod:`~repro.obs.propagation`) — either way a trace is bit-for-bit
reproducible across runs of a deterministic scenario.  Every span also
carries a ``trace_id`` grouping one causal tree: locally rooted spans
mint their own, children inherit their parent's, and spans opened under
an explicit :class:`~repro.obs.propagation.TraceContext` (task
envelopes crossing farm backends) join the trace the context names.
Timestamps come from the injected :class:`~repro.obs.clock.Clock`:
simulated seconds under the DES, epoch seconds under the live runtimes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .propagation import TraceContext

__all__ = ["SpanEvent", "Span", "SpanRecorder"]


@dataclass(frozen=True)
class SpanEvent:
    """A point-in-time annotation attached to a span."""

    time: float
    name: str
    attributes: Dict[str, Any] = field(default_factory=dict)


class Span(TraceContext):
    """One named interval, with lineage, attributes and point events.

    A span *is* the trace context that names it — its three ids are the
    inherited (lazily hashed) ones, and :attr:`context` is the span
    itself — so a traced task costs one small object per span.
    ``attributes`` and ``events`` are allocated on first use.  Equality
    is by value, which is what lets an exported trace be compared with
    its re-import.
    """

    __slots__ = (
        "name", "actor", "start", "end", "_attributes", "_events", "perf_elapsed",
    )

    def __init__(
        self,
        span_id: str = "",
        parent_id: Optional[str] = None,
        name: str = "",
        actor: str = "",
        start: float = 0.0,
        end: Optional[float] = None,
        attributes: Optional[Dict[str, Any]] = None,
        events: Optional[List[SpanEvent]] = None,
        perf_elapsed: Optional[float] = None,
        trace_id: str = "",
        *,
        context: Optional[TraceContext] = None,
    ) -> None:
        if context is None:
            self._trace_id = trace_id
            self._span_id = span_id
            self._parent = parent_id
            self._seed = None
        else:
            # take over the context's identity as it stands — ids still
            # unhashed stay so — and the three id arguments are unused
            self._trace_id = context._trace_id
            self._span_id = context._span_id
            self._parent = context._parent
            self._seed = context._seed
        self.name = name
        self.actor = actor
        self.start = start
        self.end = end
        self._attributes = attributes or None
        self._events = events or None
        #: instrumentation-side cost in monotonic seconds (perf clock); in a
        #: simulation this is the real CPU time one zero-sim-time tick took
        self.perf_elapsed = perf_elapsed

    @property
    def context(self) -> TraceContext:
        """This span's identity as a propagatable trace context: itself."""
        return self

    @property
    def attributes(self) -> Dict[str, Any]:
        attributes = self._attributes
        if attributes is None:
            attributes = self._attributes = {}
        return attributes

    @property
    def events(self) -> List[SpanEvent]:
        events = self._events
        if events is None:
            events = self._events = []
        return events

    def set_attribute(self, key: str, value: Any) -> "Span":
        self.attributes[key] = value
        return self

    def add_event(self, name: str, time: float, **attributes: Any) -> SpanEvent:
        ev = SpanEvent(time, name, attributes)
        self.events.append(ev)
        return ev

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> Optional[float]:
        """Elapsed clock time (sim or wall); None while still open."""
        return None if self.end is None else self.end - self.start

    def _value(self) -> tuple:
        return (
            self._ids(), self.name, self.actor, self.start, self.end,
            self._attributes or {}, self._events or [], self.perf_elapsed,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Span):
            return NotImplemented
        return self._value() == other._value()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.end is None else f"{self.duration:.6f}s"
        return f"<Span #{self.span_id} {self.actor}:{self.name} {state}>"


class SpanRecorder:
    """Creates, nests and collects spans.

    The recorder is passive storage plus a per-thread stack of open
    spans; all policy (clocks, metrics, context management) lives in
    :class:`~repro.obs.telemetry.Telemetry`.  Thread-locality matters
    only for the live runtime, where the controller thread and worker
    threads must not interleave their stacks; under the single-threaded
    DES it is inert.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._next_id = 0
        self._stacks = threading.local()

    # -- stack ----------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = []
            self._stacks.stack = stack
        return stack

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span on this thread (None at top level)."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- lifecycle ------------------------------------------------------
    def open(
        self,
        name: str,
        start: float,
        *,
        actor: str = "",
        parent: Optional[Span] = None,
        attach: bool = True,
        context: Optional[TraceContext] = None,
        **attributes: Any,
    ) -> Span:
        """Open a span; with ``attach`` it joins this thread's stack.

        Detached spans (``attach=False``) serve intervals that do not
        nest lexically — e.g. a violation report travelling child →
        parent closes at delivery time, long after the raising frame
        returned.  They still record the span open at creation time as
        their parent.

        An explicit ``context`` pins the span's identity entirely — its
        trace id, its own span id and its parent — bypassing the stack.
        This is how task envelopes keep one trace across farm backends:
        the ids are minted deterministically from the task, not from
        whichever thread happens to open the span.
        """
        stack = span_id = parent_id = None
        trace_id = ""
        if context is None:
            if parent is None:
                stack = self._stack()
                parent = stack[-1] if stack else None
            span_id = f"{self._next_id:016x}"
            self._next_id += 1
            if parent is None:  # a root starts its own trace (32 hex chars)
                trace_id = "0000000000000000" + span_id
            else:  # a child joins its parent's
                trace_id, parent_id = parent.trace_id, parent.span_id
        # positional because every span of every task comes through here
        span = Span(
            span_id, parent_id, name, actor, start, None, attributes, None, None,
            trace_id, context=context,
        )
        self.spans.append(span)
        if attach:
            (self._stack() if stack is None else stack).append(span)
        return span

    def close(self, span: Span, end: float) -> Span:
        """Finish a span; pops it (and any leaked children) off the stack.

        A span another thread already finished (a shutdown
        :meth:`flush` sweeping past) still unwinds this thread's stack,
        so the opener's later spans do not nest under a dead parent.
        """
        if span.end is None:
            span.end = end
        stack = self._stack()
        # identity, not ``in``: equal-valued spans are distinct intervals
        for depth in reversed(range(len(stack))):
            if stack[depth] is span:
                for leaked in stack[depth + 1 :]:  # close with the parent
                    if leaked.end is None:
                        leaked.end = end
                del stack[depth:]
                break
        return span

    # -- queries --------------------------------------------------------
    def named(self, name: str, actor: Optional[str] = None) -> List[Span]:
        """Finished-or-open spans filtered by name (and optionally actor)."""
        return [
            s
            for s in self.spans
            if s.name == name and (actor is None or s.actor == actor)
        ]

    def actors(self) -> List[str]:
        """Distinct span actors in order of first appearance."""
        seen: List[str] = []
        for s in self.spans:
            if s.actor and s.actor not in seen:
                seen.append(s.actor)
        return seen

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def trace(self, trace_id: str) -> List[Span]:
        """Every span of one causal tree, in recording order."""
        return [s for s in self.spans if s.trace_id == trace_id]

    def trace_ids(self) -> List[str]:
        """Distinct trace ids in order of first appearance."""
        seen: List[str] = []
        for s in self.spans:
            if s.trace_id and s.trace_id not in seen:
                seen.append(s.trace_id)
        return seen

    def open_spans(self) -> List[Span]:
        """Spans still open — whatever thread (or process) opened them."""
        return [s for s in self.spans if s.end is None]

    def flush(self, end: float) -> int:
        """Close every still-open span at ``end``; returns how many.

        Backends call this from ``shutdown()`` so an abrupt stop —
        poisoned workers, severed sockets — cannot leak open spans into
        the exported trace.  Flushed spans are marked
        ``flushed=True`` so a reader can tell a clean close from a
        shutdown sweep.
        """
        flushed = 0
        for span in self.spans:
            if span.end is None:
                span.set_attribute("flushed", True)
                span.end = end
                flushed += 1
        # the stacks of surviving threads may still reference the spans
        # just closed; drop this thread's, and let close() skip
        # already-finished spans from other threads' stacks harmlessly
        stack = self._stack()
        del stack[:]
        return flushed

    def __len__(self) -> int:
        return len(self.spans)
