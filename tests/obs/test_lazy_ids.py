"""Slotted spans and lazily hashed ids keep the old values and semantics.

A task's contexts are minted without hashing anything; the ids appear
when read and must be exactly what the eager code produced — pinned here
both against the hash helpers and as literals, so neither the seeds nor
the hash can drift.  The rest pins the Span/recorder semantics the
rewrite must keep: value equality, first-use attribute storage, and a
``close`` that finds its span by identity.
"""

import hashlib

import pytest

from repro.obs.propagation import (
    TraceContext,
    stable_span_id,
    stable_trace_id,
    task_context,
)
from repro.obs.spans import Span, SpanRecorder


class TestIdPins:
    def test_task_context_ids(self):
        ctx = task_context("farm", 7)
        assert ctx.trace_id == stable_trace_id("farm/task/7")
        assert ctx.span_id == stable_span_id("farm/task/7")
        assert ctx.parent_id is None
        assert (ctx.trace_id, ctx.span_id) == (
            "bc2ee058f221e0a31d960a561341a0cb",
            "8b39a63e9493da54",
        )

    def test_child_and_exec_ids(self):
        root = task_context("farm", 7)
        dispatch = root.child("farm/task/7/dispatch/1")
        run = dispatch.exec_child(3)
        assert dispatch.span_id == stable_span_id("farm/task/7/dispatch/1")
        assert dispatch.span_id == "0d03a1e47d379ebf"
        assert dispatch.parent_id == root.span_id
        assert run.span_id == stable_span_id(f"exec:3:{dispatch.span_id}")
        assert run.span_id == "ba58580b9e3fd057"
        assert run.parent_id == dispatch.span_id
        assert run.trace_id == dispatch.trace_id == root.trace_id
        assert run.traceparent() == (
            "00-bc2ee058f221e0a31d960a561341a0cb-ba58580b9e3fd057-01"
        )

    def test_exec_child_of_a_parsed_context(self):
        """The worker-side path: the parent came off the wire as strings."""
        parent = TraceContext.from_traceparent(task_context("farm", 7).traceparent())
        run = parent.exec_child(2)
        assert run.span_id == stable_span_id(f"exec:2:{parent.span_id}")
        assert run.trace_id == parent.trace_id

    def test_nothing_is_hashed_until_an_id_is_read(self, monkeypatch):
        calls = []
        real = hashlib.sha256
        monkeypatch.setattr(
            hashlib, "sha256", lambda *a: calls.append(a) or real(*a)
        )
        run = task_context("farm", 7).child("farm/task/7/dispatch/1").exec_child(3)
        assert calls == []
        assert run.span_id == "ba58580b9e3fd057"
        assert len(calls) == 2  # the dispatch id (inside the seed), then its own
        run.span_id, run.parent_id
        assert len(calls) == 2  # resolved ids are kept

    def test_contexts_compare_and_hash_by_value(self):
        a, b = task_context("farm", 7), task_context("farm", 7)
        assert a == b and hash(a) == hash(b) and a != task_context("farm", 8)
        assert a == TraceContext(a.trace_id, a.span_id)


class TestSlottedSpan:
    def test_no_instance_dict(self):
        span = Span(span_id="a", parent_id=None, name="s", actor="x", start=0.0)
        assert not hasattr(span, "__dict__")
        with pytest.raises(AttributeError):
            span.colour = "red"

    def test_constructor_keywords_round_trip(self):
        span = Span(
            span_id="a", parent_id="p", name="s", actor="x", start=1.0, end=2.0,
            attributes={"k": 1}, perf_elapsed=0.5, trace_id="t" * 32,
        )
        assert (span.span_id, span.parent_id, span.trace_id) == ("a", "p", "t" * 32)
        assert span.attributes == {"k": 1} and span.events == []
        assert span.duration == 1.0 and span.perf_elapsed == 0.5
        assert span.context == TraceContext("t" * 32, "a", "p")

    def test_equality_is_by_value(self):
        def make():
            span = Span(span_id="a", parent_id=None, name="s", actor="x", start=0.0)
            span.add_event("e", 1.0, n=1)
            return span

        assert make() == make()
        other = make()
        other.set_attribute("k", 1)
        assert make() != other
        # an untouched span equals one whose empty containers were looked at
        bare, poked = Span(span_id="a"), Span(span_id="a")
        assert poked.attributes == {} and poked.events == []
        assert bare == poked

    def test_open_under_a_context_hashes_nothing(self, monkeypatch):
        """The span takes the context's identity over as it stands, and
        is itself the context its children derive from."""
        calls = []
        real = hashlib.sha256
        monkeypatch.setattr(
            hashlib, "sha256", lambda *a: calls.append(a) or real(*a)
        )
        rec = SpanRecorder()
        root = rec.open(
            "task", 0.0, context=task_context("farm", 7), attach=False, task_id=7
        )
        assert root.context is root
        dispatch = rec.open(
            "task.dispatch", 0.0, attach=False,
            context=root.context.child("farm/task/7/dispatch/1"),
        )
        assert calls == []
        assert root.attributes == {"task_id": 7}
        assert root.trace_id == dispatch.trace_id == stable_trace_id("farm/task/7")
        assert dispatch.parent_id == root.span_id == stable_span_id("farm/task/7")
        assert dispatch.span_id == "0d03a1e47d379ebf"


class TestCloseFindsItsSpanByIdentity:
    def test_equal_valued_detached_span_leaves_the_stack_alone(self):
        """``span in stack`` compared field-wise: closing a detached span
        that *equals* an attached one unwound (and closed) the whole
        stack looking for an object that was never on it."""
        rec = SpanRecorder()
        outer = rec.open("outer", 0.0)
        ctx = task_context("farm", 1)
        attached = rec.open("task", 0.0, context=ctx)
        detached = rec.open("task", 0.0, context=ctx, attach=False)
        assert attached == detached and attached is not detached
        rec.close(detached, 1.0)
        assert detached.end == 1.0
        assert rec.current is attached
        assert attached.end is None and outer.end is None
        rec.close(attached, 2.0)
        assert rec.current is outer
