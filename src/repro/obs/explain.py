"""``python -m repro.obs.explain`` — causal-chain reconstruction from traces.

The span store answers "what happened"; this CLI answers "*why* did
that happen".  Given a JSONL trace export (``export_jsonl`` or the
``/trace`` endpoint's source data), it reconstructs the causal chain
behind a chosen actuation or task and pretty-prints it:

* for an **actuation** — which MAPE cycle decided it, which rules
  matched and fired on which metric window, how the intent fared under
  the two-phase protocol (what the security manager amended, who
  vetoed), and what the commit actually did to each worker
  (quarantine → secure → admit);
* for a **task** — its full dispatch history as one tree: submit, each
  dispatch attempt (and why the superseded ones ended: crashed,
  refused, redispatched, rebalanced), the worker-side execution spans
  shipped back across the process/TCP boundary, and the final outcome.

Usage::

    python -m repro.obs.explain trace.jsonl                # overview
    python -m repro.obs.explain trace.jsonl --list-traces  # trace index
    python -m repro.obs.explain trace.jsonl --trace 3f2a   # one tree (id prefix ok)
    python -m repro.obs.explain trace.jsonl --task 17      # one task's causal chain
    python -m repro.obs.explain trace.jsonl --actuations   # actuation index
    python -m repro.obs.explain trace.jsonl --actuation 2  # one actuation's chain
    python -m repro.obs.explain trace.jsonl --tenant acme  # one tenant's story
    python -m repro.obs.explain trace.jsonl --failovers    # coordinator failovers
    python -m repro.obs.explain trace.jsonl --slo          # SLO alert episodes

Everything here is read-only over a list of :class:`~repro.obs.spans.Span`
objects, so the same functions also serve tests and notebooks directly
(`load`, `find_actuations`, `explain_task`, `explain_actuation`,
`explain_tenant`).
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, TextIO, Tuple

from .export import read_trace_jsonl
from .propagation import SpanForest, list_traces
from .spans import Span, SpanEvent

__all__ = [
    "load",
    "find_actuations",
    "find_failovers",
    "find_slo_alerts",
    "explain_task",
    "explain_actuation",
    "explain_tenant",
    "explain_trace",
    "explain_failovers",
    "explain_slo",
    "main",
]

def load(path: str) -> List[Span]:
    """Read a JSONL trace export back into Span objects."""
    return read_trace_jsonl(path)


def _in_order(spans: Iterable[Span], name: Optional[str] = None) -> List[Span]:
    """``spans`` (only those called ``name``, if given) by ``(start, span_id)``."""
    return sorted(
        (s for s in spans if name is None or s.name == name),
        key=lambda s: (s.start, s.span_id),
    )


def _task_roots(spans: Iterable[Span], key: str, value: Any) -> List[Span]:
    """The ``task`` root spans whose attribute ``key`` is ``value``."""
    return [s for s in spans if s.name == "task" and s.attributes.get(key) == value]


def _fmt_duration(span: Span) -> str:
    return "open" if span.duration is None else f"{span.duration * 1000.0:.1f} ms"


#: span → each event of it a narrator tells → the line(s) telling it.  A
#: line formats the event's attributes and ``time`` (a missing one reads
#: ``?``); a ``flag? `` / ``!flag? `` prefix keeps it only when that
#: attribute is true / false.
_EVENT_LINES: Dict[str, Dict[str, str]] = {
    "sup.failover": {
        "journal-replayed": (
            "replayed {events} journal event(s): {pending} task(s) still in "
            "flight, {completed} already acknowledged (never redispatched)"
        ),
        "standby-promoted": (
            "standby coordinator took over the listen port; {adopted} surviving "
            "worker(s) adopted for reattach"
        ),
        "farm-rebuilt": "farm rebuilt: {admitted} admitted worker(s), {quarantined} requarantined",
    },
    "mc.intent": {
        "intent.plan": (
            "ok? planned {count} node(s): placement reserved\n"
            "!ok? planned {count} node(s): no capacity — no local plan"
        ),
        "security.amend": "security manager amended nodes: {nodes}",
        "intent.review": (
            "amended? amended by reviewer {reviewer} (plan changed before commit)\n"
            "!verdict? VETOED by reviewer {reviewer} — plan aborted, reservation released"
        ),
    },
    # one worker's steps through the admission gate
    "mc.commit": {
        "mc.quarantine": "quarantined on arrival",
        "mc.secured": "channel secured",
        "mc.secure_failed": "secure handshake FAILED",
        "mc.admit": "admitted to the dispatch pool",
    },
    "slo.alert": {"slo.escalation": "t={time:9.3f}  {previous} → {level}"},
}


def _event_lines(span: Span) -> Iterator[Tuple[SpanEvent, str]]:
    """Each line ``span``'s events narrate, with the event it tells."""
    told = _EVENT_LINES.get(span.name, {})
    for event in span.events:
        fields = defaultdict(lambda: "?", event.attributes, time=event.time)
        for line in told.get(event.name, "").splitlines():
            flag, guarded, text = line.partition("? ")
            if not guarded:
                yield event, line.format_map(fields)
            elif bool(event.attributes.get(flag.lstrip("!"))) != flag.startswith("!"):
                yield event, text.format_map(fields)


# ----------------------------------------------------------------------
# trace tree rendering
# ----------------------------------------------------------------------


def explain_trace(spans: Sequence[Span], trace_id: str, *, out: TextIO) -> bool:
    """Pretty-print one trace as an indented tree; False if unknown.

    ``trace_id`` may be a unique prefix of the full 32-hex id.
    """
    matches = sorted({s.trace_id for s in spans if s.trace_id.startswith(trace_id)})
    if not matches:
        print(f"no trace matches {trace_id!r}", file=out)
        return False
    if len(matches) > 1:
        print(f"ambiguous prefix {trace_id!r}; candidates:", file=out)
        for tid in matches:
            print(f"  {tid}", file=out)
        return False
    full = matches[0]
    forest = SpanForest(s for s in spans if s.trace_id == full)
    print(f"trace {full} — {len(forest.spans)} span(s)", file=out)

    def branches(kids: List[Span], prefix: str) -> List[Tuple[Span, str, bool]]:
        return [(kid, prefix, i == len(kids) - 1) for i, kid in enumerate(kids)][::-1]

    stack = branches(forest.roots, "")
    while stack:
        span, prefix, last = stack.pop()
        attrs = " ".join(f"{k}={v!r}" for k, v in span.attributes.items() if k != "flushed")
        line = f"{prefix}{'└─ ' if last else '├─ '}{span.name} [{span.actor}]"
        print(f"{line} ({_fmt_duration(span)})" + (f"  {attrs}" if attrs else ""), file=out)
        deeper = prefix + ("   " if last else "│  ")
        for event in span.events:
            eattrs = " ".join(f"{k}={v!r}" for k, v in event.attributes.items())
            print(f"{deeper}· {event.name}" + (f"  {eattrs}" if eattrs else ""), file=out)
        stack += branches(forest.children(span), deeper)
    return True


# ----------------------------------------------------------------------
# task causal chains
# ----------------------------------------------------------------------


#: outcomes that end a dispatch attempt without a result → why it ended
_SUPERSEDED_REASON = {
    "crashed": "the worker died; the supervisor replayed the task",
    "refused": "the worker refused it pre-handshake; replayed elsewhere",
    "redispatched": "the worker retired; its backlog was redispatched",
    "rebalanced": "load balancing stole the queued task",
    "write-failed": "the connection broke mid-send; replayed",
    "coordinator-crashed": (
        "the coordinator crashed; the supervisor replayed the task after failover"
    ),
}


def _dispatch_chain(forest: SpanForest, parent: Span) -> Iterator[Span]:
    """The ``task.dispatch`` chain below ``parent``, each attempt under the one it superseded."""
    dispatches = forest.children(parent, "task.dispatch")
    while dispatches:
        yield dispatches[0]
        dispatches = forest.children(dispatches[0], "task.dispatch")


def _walk_dispatch_chain(forest: SpanForest, parent: Span, out: TextIO, indent: str) -> None:
    """Narrate the ``task.dispatch`` chain below ``parent``."""
    for dispatch in _dispatch_chain(forest, parent):
        a = dispatch.attributes
        d_outcome = a.get("outcome", "open")
        secured = " (secured channel)" if a.get("secured") else ""
        print(
            f"{indent}attempt {a.get('attempt')}: dispatched to worker {a.get('worker')}"
            f"{secured} — {d_outcome} after {_fmt_duration(dispatch)}",
            file=out,
        )
        for ex in forest.children(dispatch, "task.exec"):
            pid = ex.attributes.get("pid")
            where = f" (pid {pid})" if pid is not None else ""
            print(
                f"{indent}  executed on {ex.actor}{where} — "
                f"{ex.attributes.get('outcome', 'ok')}, {_fmt_duration(ex)}",
                file=out,
            )
        if d_outcome in _SUPERSEDED_REASON:
            print(f"{indent}  ↳ {_SUPERSEDED_REASON[d_outcome]}", file=out)


def explain_task(spans: Sequence[Span], task_id: int, *, out: TextIO) -> bool:
    """Narrate every trace of ``task_id`` as a dispatch chain; False if none.

    Two tree shapes are understood: a plain farm root
    (``task`` → ``task.dispatch`` chain) and a supervised root
    (``task`` → one ``task.attempt`` per coordinator incarnation →
    ``task.dispatch`` chain), so a crashed-and-replayed task reads as
    one causal story across epochs.
    """
    roots = _task_roots(spans, "task_id", task_id)
    if not roots:
        print(f"no 'task' span carries task_id={task_id}", file=out)
        return False
    forest = SpanForest(spans)
    for root in roots:
        outcome = root.attributes.get("outcome", "open")
        print(
            f"task {task_id} on farm '{root.actor}' — trace {root.trace_id} — "
            f"{outcome}, {_fmt_duration(root)}",
            file=out,
        )
        attempts = forest.children(root, "task.attempt")
        if attempts:
            for n, att in enumerate(attempts, start=1):
                a_outcome = att.attributes.get("outcome", "open")
                print(
                    f"  incarnation attempt {n} on '{att.actor}' — "
                    f"{a_outcome}, {_fmt_duration(att)}",
                    file=out,
                )
                _walk_dispatch_chain(forest, att, out, "    ")
                if a_outcome in _SUPERSEDED_REASON:
                    print(f"    ↳ {_SUPERSEDED_REASON[a_outcome]}", file=out)
        else:
            _walk_dispatch_chain(forest, root, out, "  ")
        print(f"  result: {outcome}", file=out)
    return True


# ----------------------------------------------------------------------
# failover narratives
# ----------------------------------------------------------------------


def find_failovers(spans: Sequence[Span]) -> List[Span]:
    """Every ``sup.failover`` span, in start order."""
    return _in_order(spans, "sup.failover")


def explain_failovers(spans: Sequence[Span], *, out: TextIO) -> bool:
    """Narrate every coordinator failover in the export; False if none.

    Each ``sup.failover`` span is one supervisor recovery: the journal
    replay, the rebuild of the coordinator incarnation, the redispatch
    of in-flight tasks and the quarantine state carried across the
    crash.
    """
    failovers = find_failovers(spans)
    if not failovers:
        print("no 'sup.failover' span recorded (no coordinator crash)", file=out)
        return False
    crashed = sum(1 for s in spans if s.attributes.get("outcome") == "coordinator-crashed")
    print(
        f"{len(failovers)} failover(s); {crashed} span(s) ended "
        f"'coordinator-crashed' across the export",
        file=out,
    )
    for i, span in enumerate(failovers, start=1):
        a = span.attributes
        print(
            f"#{i}  t={span.start:9.3f}  supervisor '{span.actor}' promoted "
            f"epoch {a.get('epoch')} — {a.get('outcome', 'open')}, {_fmt_duration(span)}",
            file=out,
        )
        for _, line in _event_lines(span):
            print(f"    {line}", file=out)
        if a.get("redispatched") is not None:
            print(
                f"    redispatched {a['redispatched']} in-flight task(s); "
                f"{a.get('quarantined')} quarantined worker(s) stayed gated",
                file=out,
            )
    return True


# ----------------------------------------------------------------------
# SLO alert narratives
# ----------------------------------------------------------------------


def find_slo_alerts(spans: Sequence[Span]) -> List[Span]:
    """Every ``slo.alert`` episode span, in start order."""
    return _in_order(spans, "slo.alert")


def _pct(value: Any) -> str:
    try:
        return f"{float(value) * 100.0:.1f}%"
    except (TypeError, ValueError):
        return "?"


def explain_slo(spans: Sequence[Span], *, out: TextIO) -> bool:
    """Narrate every SLO alert episode in the export; False if none.

    Each ``slo.alert`` span is one alert episode opened by the burn-rate
    rules (fast windows page, slow windows warn).  The narration ties
    the episode to the autonomic response: the ``slo.adaptation`` spans
    that overlap it (violation observed → plan committed → effect
    visible, the ROADMAP item-4 yardstick) and any actuation spans that
    fired inside the episode window, plus the error budget burned
    between open and close.
    """
    alerts = find_slo_alerts(spans)
    if not alerts:
        print(
            "no 'slo.alert' span recorded (no SLO engine attached, or "
            "no objective left its error budget)",
            file=out,
        )
        return False
    objectives = sorted({str(s.attributes.get("slo")) for s in alerts})
    print(
        f"{len(alerts)} SLO alert episode(s) across {len(objectives)} "
        f"objective(s): {', '.join(objectives)}",
        file=out,
    )
    adaptations = _in_order(spans, "slo.adaptation")
    actuations = find_actuations(spans)
    for i, span in enumerate(alerts, start=1):
        # the span's level attribute tracks the *current* level, so the
        # opening level is the first escalation's previous when any
        # escalation happened inside the episode
        escalations = [e for e in span.events if e.name == "slo.escalation"]
        opened = (
            escalations[0].attributes.get("previous")
            if escalations
            else span.attributes.get("level", "?")
        )
        level = str(opened).upper()
        print(
            f"#{i}  t={span.start:9.3f}  SLO '{span.attributes.get('slo')}' "
            f"— {span.attributes.get('objective')}",
            file=out,
        )
        print(
            f"    opened at {level}: burn {span.attributes.get('burn_fast')}x "
            f"over the fast windows, {span.attributes.get('burn_slow')}x over "
            f"the slow; budget {_pct(span.attributes.get('budget_remaining_open'))} "
            f"remaining",
            file=out,
        )
        for _, line in _event_lines(span):
            print(f"    {line}", file=out)
        window_end = span.end if span.end is not None else float("inf")
        for adapt in adaptations:
            a_end = adapt.end if adapt.end is not None else float("inf")
            if a_end < span.start or adapt.start > window_end:
                continue
            observed = adapt.attributes.get("observed_at", adapt.start)
            print(
                f"    adaptation: violation {adapt.attributes.get('kind')!r} "
                f"observed at t={observed:.3f}",
                file=out,
            )
            committed = adapt.attributes.get("committed_at")
            if committed is not None:
                print(
                    f"      plan committed: {adapt.attributes.get('action')} "
                    f"after {committed - observed:.3f}s",
                    file=out,
                )
            effect = adapt.attributes.get("effect_at")
            if effect is not None:
                legs = f"total {adapt.attributes.get('total_latency')}s"
                if adapt.attributes.get("self_resolved"):
                    legs += ", self-resolved (no actuation needed)"
                print(f"      effect visible at t={effect:.3f} ({legs})", file=out)
        fired_inside = [a for a in actuations if span.start <= a.start <= window_end]
        if fired_inside:
            # grouped by (name, actor): a starving farm fires a rule on
            # every MAPE cycle, and twenty identical lines say less than
            # one line with a count and the episode's time bounds
            groups: Dict[Tuple[str, str], List[Span]] = {}
            for a in fired_inside:
                groups.setdefault((a.name, a.actor), []).append(a)
            parts = []
            for (name, actor), group in groups.items():
                if len(group) == 1:
                    parts.append(f"{name} by {actor} at t={group[0].start:.3f}")
                else:
                    parts.append(
                        f"{name} by {actor} x{len(group)} "
                        f"(t={group[0].start:.3f}..{group[-1].start:.3f})"
                    )
            print(f"    actuation(s) inside the episode: {', '.join(parts)}", file=out)
        if span.end is None:
            print("    still open at export (alert not yet resolved)", file=out)
            continue
        burned = ""
        opened = span.attributes.get("budget_remaining_open")
        closed = span.attributes.get("budget_remaining_close")
        if opened is not None and closed is not None:
            burned = f"; budget burned {_pct(float(opened) - float(closed))}"
        closed_how = (
            "resolved" if span.attributes.get("resolved", True) else "closed unresolved at export"
        )
        print(
            f"    {closed_how} after {span.end - span.start:.3f}s — "
            f"{span.attributes.get('violation_seconds')} violation-second(s), "
            f"budget {_pct(closed)} remaining{burned}",
            file=out,
        )
    return True


# ----------------------------------------------------------------------
# tenant narratives
# ----------------------------------------------------------------------


def explain_tenant(spans: Sequence[Span], tenant: str, *, out: TextIO) -> bool:
    """Narrate every task one tenant submitted; False if the tenant is
    absent from the export.

    The tenant name is stamped on each task's root span at submission
    (see ``ShardedFarm.submit``), so this view is the multi-tenant
    slice of the same dispatch trees ``--task`` narrates one by one:
    which farms/shards served the tenant, each task's worker chain, and
    how the tenant's stream ended.
    """
    roots = _task_roots(spans, "tenant", tenant)
    if not roots:
        tenants = (s.attributes.get("tenant") for s in spans if s.name == "task")
        known = sorted({str(t) for t in tenants if t is not None})
        print(f"no 'task' span carries tenant={tenant!r}", file=out)
        if known:
            print("tenants in this export: " + ", ".join(known), file=out)
        return False
    forest = SpanForest(spans)
    roots = _in_order(roots)
    farms = sorted({r.actor for r in roots})
    print(
        f"tenant {tenant!r} — {len(roots)} task(s) across "
        f"{len(farms)} farm(s): {', '.join(farms)}",
        file=out,
    )
    done = 0
    for root in roots:
        outcome = root.attributes.get("outcome", "open")
        if outcome == "ok":
            done += 1
        hops: List[str] = []
        for dispatch in _dispatch_chain(forest, root):
            d_outcome = dispatch.attributes.get("outcome", "open")
            hop = f"worker {dispatch.attributes.get('worker')}"
            if d_outcome in _SUPERSEDED_REASON:
                hop += f" ({d_outcome})"
            hops.append(hop)
        chain = " -> ".join(hops) if hops else "never dispatched"
        print(
            f"  task {root.attributes.get('task_id')} on {root.actor}: "
            f"{chain} — {outcome}, {_fmt_duration(root)}",
            file=out,
        )
    first = min(r.start for r in roots)
    last = max((r.end if r.end is not None else r.start) for r in roots)
    print(
        f"  => {done}/{len(roots)} completed over {last - first:.3f}s "
        f"of the tenant's stream",
        file=out,
    )
    return True


# ----------------------------------------------------------------------
# actuation causal chains
# ----------------------------------------------------------------------


def find_actuations(spans: Sequence[Span]) -> List[Span]:
    """Every span that *decided* something, in start order: MAPE cycles that
    fired at least one rule, plus intent rounds not already under one."""
    forest = SpanForest(spans)
    fired, covered = set(), set()
    for cycle in forest.spans:
        if cycle.name != "mape.cycle":
            continue
        for d in forest.descendants(cycle):
            if d.name in ("mc.intent", "mc.commit"):
                covered.add(id(d))
                fired.add(id(cycle))
            elif d.name == "mape.execute" and d.attributes.get("fired"):
                fired.add(id(cycle))
    return [
        s for s in forest.spans
        if id(s) in fired or (s.name == "mc.intent" and id(s) not in covered)
    ]


def _explain_intent(span: Span, out: TextIO, indent: str) -> None:
    originator = span.attributes.get("originator", "?")
    operation = span.attributes.get("operation", "?")
    mode = span.attributes.get("mode", "?")
    outcome = span.attributes.get("outcome", "open")
    print(f"{indent}intent: {originator} asked for {operation} (mode {mode}) → {outcome}", file=out)
    for _, line in _event_lines(span):
        print(f"{indent}  {line}", file=out)


def _explain_commit(span: Span, out: TextIO, indent: str) -> None:
    print(f"{indent}commit on nodes {span.attributes.get('nodes')}:", file=out)
    # reconstruct each worker's admission path from the point events
    steps: Dict[Any, List[str]] = {}
    for event, step in _event_lines(span):
        worker = event.attributes.get("worker")
        if worker is not None:
            steps.setdefault(worker, []).append(step)
    for worker, path in steps.items():
        print(f"{indent}  worker {worker}: " + " → ".join(path), file=out)
    print(
        f"{indent}  admitted={span.attributes.get('admitted')} "
        f"failures={span.attributes.get('failures')}",
        file=out,
    )


def explain_actuation(spans: Sequence[Span], number: int, *, out: TextIO) -> bool:
    """Narrate actuation ``number`` (1-based, as listed); False if absent."""
    actuations = find_actuations(spans)
    if not 1 <= number <= len(actuations):
        hint = "(list them with --actuations)"
        print(f"no actuation #{number}; {len(actuations)} found {hint}", file=out)
        return False
    span = actuations[number - 1]
    forest = SpanForest(spans)
    print(
        f"actuation #{number} — {span.name} by {span.actor} "
        f"at t={span.start:.3f} (trace {span.trace_id})",
        file=out,
    )
    if span.name == "mc.intent":
        _explain_intent(span, out, "  ")
        # a live ABC's admission gate narrates its commit nested inside
        for commit in forest.children(span, "mc.commit"):
            _explain_commit(commit, out, "  ")
        return True
    # a MAPE cycle: monitor → analyse → plan → execute, with any intent
    # protocol rounds nested under execute
    for plan in forest.children(span, "mape.plan"):
        matched = plan.attributes.get("matched") or []
        if matched:
            print("  plan: rules matched on this metric window:", file=out)
            for entry in matched:
                try:
                    name, salience = entry
                except (TypeError, ValueError):
                    name, salience = entry, "?"
                print(f"    {name} (salience {salience})", file=out)
        else:
            print("  plan: no rule matched", file=out)
    for execute in forest.children(span, "mape.execute"):
        fired = execute.attributes.get("fired") or []
        print(
            "  execute: fired " + (", ".join(map(str, fired)) if fired else "nothing"),
            file=out,
        )
        for d in forest.descendants(execute):
            if d.name == "mc.intent":
                _explain_intent(d, out, "    ")
            elif d.name == "mc.commit":
                _explain_commit(d, out, "    ")
    return True


# ----------------------------------------------------------------------
# overview + entry point
# ----------------------------------------------------------------------


def _overview(spans: Sequence[Span], *, out: TextIO) -> None:
    traces = list_traces(spans)
    tasks = {s.attributes.get("task_id") for s in spans if s.name == "task"} - {None}
    actuations = find_actuations(spans)
    print(
        f"{len(spans)} span(s), {len(traces)} trace(s), "
        f"{len(tasks)} task(s), {len(actuations)} actuation(s)",
        file=out,
    )
    failovers = find_failovers(spans)
    if failovers:
        print(f"{len(failovers)} coordinator failover(s) — see --failovers", file=out)
    alerts = find_slo_alerts(spans)
    if alerts:
        print(f"{len(alerts)} SLO alert episode(s) — see --slo", file=out)
    print("explore with " + ", ".join(flag for flag, _, _ in _MODES), file=out)


def _list_traces(spans: Sequence[Span], *, out: TextIO) -> bool:
    for summary in list_traces(spans):
        print(
            f"{summary['trace_id']}  {summary['spans']:4d} span(s)  "
            f"root={summary['root']}  t={summary['start']:.3f}",
            file=out,
        )
    return True


def _list_actuations(spans: Sequence[Span], *, out: TextIO) -> bool:
    actuations = find_actuations(spans)
    if not actuations:
        print("no actuations recorded (no rule fired, no intent raised)", file=out)
    for i, span in enumerate(actuations, start=1):
        a, detail = span.attributes, ""
        if span.name == "mc.intent":
            detail = f" {a.get('originator')} → {a.get('operation')} [{a.get('outcome', 'open')}]"
        print(f"#{i}  t={span.start:9.3f}  {span.name}  by {span.actor}{detail}", file=out)
    return True


#: one row per mode: its flag, its argparse keywords and its narrator, which
#: takes the flag's value (if any) after the spans; False from it is exit 2
_MODES: Tuple[Tuple[str, Dict[str, Any], Callable[..., bool]], ...] = (
    ("--list-traces", dict(action="store_true", help="index of recorded traces"), _list_traces),
    (
        "--actuations",
        dict(action="store_true", help="index of recorded actuations"),
        _list_actuations,
    ),
    (
        "--trace",
        dict(metavar="ID", help="print one trace tree (unique id prefix ok)"),
        explain_trace,
    ),
    ("--task", dict(type=int, metavar="N", help="causal chain of task N"), explain_task),
    (
        "--actuation",
        dict(type=int, metavar="N", help="causal chain of actuation #N"),
        explain_actuation,
    ),
    (
        "--tenant",
        dict(
            metavar="NAME", help="narrate every task tenant NAME submitted (multi-tenant runs)"
        ),
        explain_tenant,
    ),
    (
        "--failovers",
        dict(
            action="store_true", help="narrate coordinator failovers (journal replay, redispatch)"
        ),
        explain_failovers,
    ),
    (
        "--slo",
        dict(
            action="store_true", help="narrate SLO alert episodes (burn rates, budget, adaptations)"
        ),
        explain_slo,
    ),
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.explain",
        description="reconstruct causal chains from a JSONL trace export",
    )
    parser.add_argument("trace_file", help="JSONL file written by export_jsonl")
    group = parser.add_mutually_exclusive_group()
    for flag, spec, _ in _MODES:
        group.add_argument(flag, **spec)
    return parser


def main(argv: Optional[List[str]] = None, *, out: TextIO = None) -> int:
    out = out if out is not None else sys.stdout
    args = _parser().parse_args(argv)

    try:
        spans = load(args.trace_file)
    except OSError as exc:
        print(f"cannot read {args.trace_file}: {exc}", file=sys.stderr)
        return 1

    for flag, _, narrate in _MODES:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and value is not False:
            given = () if value is True else (value,)
            return 0 if narrate(spans, *given, out=out) else 2
    _overview(spans, out=out)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    sys.exit(main())
