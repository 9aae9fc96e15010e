"""Trace-context propagation: stable ids, traceparent wire format, trees.

The contract under test is what lets one task read as one causal tree
across a process or TCP boundary: identifiers are *derived*, never
random, so a deterministic scenario always produces the same trace; the
traceparent rendering survives the wire byte-for-byte; and the tree
builder turns any bag of spans — including damaged ones — into a
navigable forest without ever looping.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.propagation import (
    TraceContext,
    build_trace_tree,
    list_traces,
    stable_span_id,
    stable_trace_id,
    task_context,
)
from repro.obs.spans import Span


class TestStableIds:
    def test_ids_are_deterministic(self):
        assert stable_trace_id("farm/task/7") == stable_trace_id("farm/task/7")
        assert stable_span_id("farm/task/7") == stable_span_id("farm/task/7")

    def test_ids_are_seed_sensitive(self):
        assert stable_trace_id("farm/task/7") != stable_trace_id("farm/task/8")
        assert stable_span_id("a") != stable_span_id("b")

    def test_trace_and_span_namespaces_differ(self):
        """The same seed must not yield a span id that prefixes the
        trace id — the two hash namespaces are distinct."""
        seed = "farm/task/7"
        assert not stable_trace_id(seed).startswith(stable_span_id(seed))

    @given(st.text(min_size=1, max_size=64))
    def test_id_shapes(self, seed):
        trace_id, span_id = stable_trace_id(seed), stable_span_id(seed)
        assert len(trace_id) == 32 and int(trace_id, 16) >= 0
        assert len(span_id) == 16 and int(span_id, 16) >= 0


class TestTraceparent:
    def test_round_trip(self):
        ctx = task_context("farm", 7)
        parsed = TraceContext.from_traceparent(ctx.traceparent())
        assert parsed is not None
        assert parsed.trace_id == ctx.trace_id
        # the parsed context names the sender: receivers derive children
        assert parsed.span_id == ctx.span_id
        assert parsed.child("exec").parent_id == ctx.span_id

    def test_format(self):
        header = task_context("farm", 7).traceparent()
        version, trace_id, span_id, flags = header.split("-")
        assert (version, flags) == ("00", "01")
        assert len(trace_id) == 32 and len(span_id) == 16

    @pytest.mark.parametrize(
        "garbage",
        [
            None,
            "",
            "nonsense",
            "00-zz-zz-01",
            "00-" + "0" * 32 + "-" + "0" * 15 + "-01",  # short span id
            "ff-" + "0" * 32 + "-" + "0" * 16 + "-01",  # unknown version
            "00-" + "0" * 32 + "-" + "0" * 16,  # missing flags
        ],
    )
    def test_garbage_parses_to_none(self, garbage):
        assert TraceContext.from_traceparent(garbage) is None

    def test_child_joins_the_trace(self):
        root = task_context("farm", 7)
        child = root.child("dispatch/1")
        grandchild = child.child("exec:2")
        assert child.trace_id == root.trace_id == grandchild.trace_id
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id
        # derivation is deterministic and collision-free across seeds
        assert child.span_id == root.child("dispatch/1").span_id
        assert child.span_id != root.child("dispatch/2").span_id


def _span(span_id, parent_id, name="s", trace_id="t" * 32, start=0.0, end=1.0):
    return Span(
        span_id=span_id, parent_id=parent_id, name=name, actor="a",
        start=start, end=end, trace_id=trace_id,
    )


class TestBuildTraceTree:
    def test_nests_children_sorted_by_start(self):
        spans = [
            _span("a", None, name="root"),
            _span("c", "a", name="late", start=2.0),
            _span("b", "a", name="early", start=1.0),
        ]
        tree = build_trace_tree(spans, "t" * 32)
        assert len(tree) == 1
        assert [kid["name"] for kid in tree[0]["children"]] == ["early", "late"]

    def test_unknown_trace_is_empty(self):
        assert build_trace_tree([_span("a", None)], "f" * 32) == []

    def test_orphan_becomes_root(self):
        """A span whose parent never reached the store still renders."""
        tree = build_trace_tree([_span("b", "missing")], "t" * 32)
        assert len(tree) == 1 and tree[0]["id"] == "b"

    def test_cycle_cannot_hang_the_builder(self):
        spans = [_span("a", "b"), _span("b", "a")]
        tree = build_trace_tree(spans, "t" * 32)
        # both members surface; nothing loops forever
        surfaced = set()

        def walk(nodes):
            for node in nodes:
                surfaced.add(node["id"])
                walk(node["children"])

        walk(tree)
        assert surfaced == {"a", "b"}


class TestListTraces:
    def test_summarises_each_trace_once(self):
        spans = [
            _span("a", None, name="task", trace_id="1" * 32, start=5.0),
            _span("b", "a", name="task.dispatch", trace_id="1" * 32, start=6.0),
            _span("c", None, name="mape.cycle", trace_id="2" * 32, start=1.0),
        ]
        summaries = {s["trace_id"]: s for s in list_traces(spans)}
        assert summaries["1" * 32]["spans"] == 2
        assert summaries["1" * 32]["root"] == "task"
        assert summaries["2" * 32]["root"] == "mape.cycle"
