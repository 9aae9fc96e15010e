"""A task's spans kept as rows: facts on the data path, spans on read.

Every traced task leaves a root span (``task``, or ``task.attempt``
under a caller's traceparent), one ``task.dispatch`` per attempt and one
``task.exec`` per execution.  Building those :class:`~repro.obs.spans.Span`
objects — a context, an attribute dict, the stack walk of ``close`` — was
most of what tracing cost a farm's coordinator, for objects nothing
looks at until the audit is read.  So the data path builds none: it
stamps the facts the spans are made of (clock readings, worker, attempt,
secured, the exec's timing and pid, tenant, outcome, the parent
traceparent) on one small slotted row per span, and the
:class:`~repro.obs.spans.SpanRecorder` keeps each row at the place in
its store where the span was opened.  A read builds the spans from the
rows: the same lazily hashed ids and parents, names, actors, attributes
in the same key order, ``flushed`` marks — the audit does not change.

A row is live: an in-flight task's rows are the farm's own records, so a
read while the task is open sees ``end is None``, and the next read
after it completes sees its end and outcome.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .propagation import TraceContext, _derived
from .spans import Span

__all__ = ["SpanRow", "TaskRow", "DispatchRow", "ExecRow"]


class SpanRow:
    """What every row holds of its span: the clock readings and the
    attributes a close or a shutdown sweep adds."""

    __slots__ = ("start", "end", "outcome", "flushed")

    def close(self, end: float, outcome: str) -> None:
        """End the span as ``Telemetry.end_span(span, outcome=…)`` does:
        the outcome is (re)written, the first end stands."""
        self.outcome = outcome
        if self.end is None:
            self.end = end

    def _closing(self, attributes: Dict[str, Any]) -> Dict[str, Any]:
        # a sweep only ever closes an open span, so ``flushed`` always
        # precedes an outcome written after it
        if self.flushed:
            attributes["flushed"] = True
        if self.outcome is not None:
            attributes["outcome"] = self.outcome
        return attributes

    def to_span(self, built: Dict["SpanRow", Span]) -> Span:
        """This row's span; ``built`` maps the rows read before it (its
        parents among them) to their spans."""
        raise NotImplementedError


class TaskRow(SpanRow):
    """A task's root: ``task``, or ``task.attempt`` when a supervisor
    resubmitted it under its own root's ``traceparent``."""

    __slots__ = ("actor", "task_id", "tenant", "traceparent")

    def __init__(
        self,
        actor: str,
        task_id: int,
        tenant: Optional[str],
        traceparent: Optional[str],
        start: float,
    ) -> None:
        self.actor = actor
        self.task_id = task_id
        self.tenant = tenant
        self.traceparent = traceparent
        self.start = start
        self.end = None
        self.outcome = None
        self.flushed = False

    @property
    def seed(self) -> str:
        return f"{self.actor}/task/{self.task_id}"

    def _parent(self) -> Optional[TraceContext]:
        tp = self.traceparent
        return TraceContext.from_traceparent(tp) if tp else None

    @property
    def context(self) -> TraceContext:
        """The root's identity: stable across replays and incarnations."""
        return _derived(self.seed, self._parent())

    def to_span(self, built: Dict[SpanRow, Span]) -> Span:
        parent = self._parent()
        attributes: Dict[str, Any] = {"task_id": self.task_id}
        if self.tenant is not None:
            attributes["tenant"] = self.tenant
        return Span(
            name="task" if parent is None else "task.attempt",
            actor=self.actor,
            start=self.start,
            end=self.end,
            attributes=self._closing(attributes),
            context=_derived(self.seed, parent),
        )


class DispatchRow(SpanRow):
    """One dispatch attempt.  The first parents under the task's root;
    every later one (crash replay, refused bounce, steal) under the
    attempt it supersedes, so a replayed task reads as one causal chain."""

    __slots__ = ("parent", "worker", "attempt", "secured")

    def __init__(
        self, parent: SpanRow, worker: int, attempt: int, secured: bool, start: float
    ) -> None:
        self.parent = parent
        self.worker = worker
        self.attempt = attempt
        self.secured = secured
        self.start = start
        self.end = None
        self.outcome = None
        self.flushed = False

    @property
    def task(self) -> TaskRow:
        row = self.parent
        while not isinstance(row, TaskRow):
            row = row.parent
        return row

    def _seed(self) -> str:
        return f"{self.task.seed}/dispatch/{self.attempt}"

    @property
    def context(self) -> TraceContext:
        """This attempt's identity, for whatever a worker runs under it."""
        return self.parent.context.child(self._seed())

    def to_span(self, built: Dict[SpanRow, Span]) -> Span:
        return Span(
            name="task.dispatch",
            actor=self.task.actor,
            start=self.start,
            end=self.end,
            attributes=self._closing(
                {"worker": self.worker, "attempt": self.attempt, "secured": self.secured}
            ),
            context=built[self.parent].child(self._seed()),
        )


class ExecRow(SpanRow):
    """One execution under a dispatch attempt.  ``pid`` is the worker
    process's, for an execution timed across a process boundary (None
    for one that ran on a coordinator thread)."""

    __slots__ = ("dispatch", "actor", "worker", "pid")

    def __init__(
        self,
        dispatch: DispatchRow,
        actor: str,
        worker: int,
        pid: Optional[int],
        start: float,
        end: Optional[float] = None,
        outcome: Optional[str] = None,
    ) -> None:
        self.dispatch = dispatch
        self.actor = actor
        self.worker = worker
        self.pid = pid
        self.start = start
        self.end = end
        self.outcome = outcome
        self.flushed = False

    def to_span(self, built: Dict[SpanRow, Span]) -> Span:
        attributes: Dict[str, Any] = {"worker": self.worker}
        if self.pid is not None:
            attributes["pid"] = self.pid
        return Span(
            name="task.exec",
            actor=self.actor,
            start=self.start,
            end=self.end,
            attributes=self._closing(attributes),
            context=built[self.dispatch].exec_child(self.worker),
        )
