"""``explain`` and ``/trace/<id>`` over hostile audits: cycles, self-parents,
duplicate span ids.

An audit is bytes from outside: a corrupt import, a merged export or a
hand-edited file may link spans in any way.  Over every such span list
the overview and every mode must end with exit code 0 or 2, and
``--trace`` must print each span of the trace exactly once, as
``build_trace_tree`` (the tree ``/trace/<id>`` serves) surfaces it.

No narrator may loop: each ``main()`` call writes to a stream that
raises after a few thousand lines and runs under a one-second alarm,
so a walk that would never end fails the test instead of hanging it.
"""

import io
import json
import re
import signal
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.obs.explain import main
from repro.obs.export import span_to_dict
from repro.obs.propagation import build_trace_tree
from repro.obs.spans import Span

TRACES = ("a" * 32, "b" * 32)
IDS = ("r", "d", "c", "p")
NAMES = (
    "task", "task.attempt", "task.dispatch", "task.exec",
    "mape.cycle", "mape.plan", "mape.execute", "mc.intent", "mc.commit",
    "sup.failover", "slo.alert", "slo.adaptation",
)
#: each narrated event, with attributes of the types the system records
EVENTS = {
    "journal-replayed": {"events": 3, "pending": 1, "completed": 2},
    "standby-promoted": {"adopted": 2},
    "farm-rebuilt": {"admitted": 1, "quarantined": 0},
    "intent.plan": {"count": 2, "ok": True},
    "intent.review": {"reviewer": "AM_sec", "verdict": False, "amended": True},
    "security.amend": {"nodes": ["u-0"]},
    "mc.quarantine": {"worker": 1},
    "mc.secured": {"worker": 1},
    "mc.admit": {"worker": 1},
    "slo.escalation": {"previous": "warn", "level": "page"},
}
MAX_LINES = 5000
ALARM_S = 1.0


class Overrun(Exception):
    """A narrator wrote without end, or ran past the alarm."""


class BoundedOut(io.StringIO):
    lines = 0

    def write(self, text):
        self.lines += text.count("\n")
        if self.lines > MAX_LINES:
            raise Overrun(f"more than {MAX_LINES} lines")
        return super().write(text)


@contextmanager
def alarm(seconds):
    def expire(signum, frame):
        raise Overrun(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    # a per-test timeout may hold the timer: hand it back afterwards
    pending = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        signal.setitimer(signal.ITIMER_REAL, *pending)


def _span(n, span_id, parent, name, trace=TRACES[0], start=0.0, events=(), **attrs):
    """Span number ``n``: its actor ``s<n>`` names it in the narratives."""
    span = Span(
        span_id=span_id, parent_id=parent, name=name, actor=f"s{n}",
        start=start, end=start + 1.0, attributes=attrs, trace_id=trace,
    )
    for event in events:
        span.add_event(event, start, **EVENTS[event])
    return span


@st.composite
def hostile_spans(draw):
    count = draw(st.integers(1, 7))
    spans = []
    for n in range(count):
        name = draw(st.sampled_from(NAMES))
        attrs = {}
        if name == "task":
            attrs = {"task_id": 1, "tenant": "acme"}
        elif name == "mape.execute":
            attrs = {"fired": ["Rule"]}
        spans.append(_span(
            n,
            draw(st.sampled_from(IDS)),
            draw(st.sampled_from((None,) + IDS)),
            name,
            trace=draw(st.sampled_from(TRACES)),
            start=draw(st.sampled_from((0.0, 1.0, 2.0))),
            events=draw(st.lists(st.sampled_from(sorted(EVENTS)), max_size=3)),
            **attrs,
        ))
    return spans


#: Two ``task.dispatch`` spans share one id, the second its own parent.
SHARED_DISPATCH_ID = [
    _span(0, "r", None, "task", task_id=1, tenant="acme"),
    _span(1, "d", "r", "task.dispatch", worker=0, attempt=1),
    _span(2, "d", "d", "task.dispatch", worker=1, attempt=2),
]
#: A MAPE cycle and its plan are each other's parent.
CYCLE_AND_PLAN = [
    _span(0, "c", "p", "mape.cycle"),
    _span(1, "p", "c", "mape.plan", matched=[["Rule", 1]]),
]


@pytest.fixture(scope="module")
def audit(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile") / "audit.jsonl"


def _explain(audit, *argv):
    out = BoundedOut()
    with alarm(ALARM_S):
        code = main([str(audit), *argv], out=out)
    return code, out.getvalue()


def _surfaced(nodes, limit):
    """The actors of every node of a ``build_trace_tree`` forest, one per
    visit; stops after ``limit`` visits, so a looping forest ends."""
    actors, stack = [], list(nodes)
    while stack and len(actors) <= limit:
        node = stack.pop()
        actors.append(node["actor"])
        stack.extend(node["children"])
    return actors


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(spans=hostile_spans())
@example(spans=SHARED_DISPATCH_ID)
@example(spans=CYCLE_AND_PLAN)
def test_every_mode_ends_and_trace_prints_each_surfaced_span_once(audit, spans):
    audit.write_text(
        "".join(json.dumps(span_to_dict(s)) + "\n" for s in spans), encoding="utf-8"
    )
    modes = [
        (), ("--list-traces",), ("--task", "1"), ("--task", "2"), ("--actuations",),
        ("--tenant", "acme"), ("--tenant", "nobody"), ("--failovers",), ("--slo",),
    ]
    modes += [("--actuation", str(n)) for n in range(1, len(spans) + 2)]
    modes += [("--trace", trace) for trace in TRACES]
    for argv in modes:
        code, _ = _explain(audit, *argv)
        assert code in (0, 2), argv
    for trace in {s.trace_id for s in spans}:
        members = sorted(s.actor for s in spans if s.trace_id == trace)
        surfaced = _surfaced(build_trace_tree(spans, trace), len(members))
        assert sorted(surfaced) == members
        _, text = _explain(audit, "--trace", trace)
        printed = re.findall(r"\[(s\d+)\]", text)
        assert sorted(printed) == members
