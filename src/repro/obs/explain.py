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
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, TextIO, Tuple

from .export import read_trace_jsonl
from .propagation import list_traces
from .spans import Span

__all__ = [
    "load",
    "children_index",
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


def children_index(spans: Sequence[Span]) -> Dict[Optional[str], List[Span]]:
    """parent span id → children, each list in recording order."""
    index: Dict[Optional[str], List[Span]] = {}
    for span in spans:
        index.setdefault(span.parent_id, []).append(span)
    return index


def _in_order(spans: Iterable[Span], name: Optional[str] = None) -> List[Span]:
    """``spans`` — only those called ``name``, if given — in
    ``(start, span_id)`` order."""
    return sorted(
        (s for s in spans if name is None or s.name == name),
        key=lambda s: (s.start, s.span_id),
    )


def _fmt_duration(span: Span) -> str:
    if span.duration is None:
        return "open"
    return f"{span.duration * 1000.0:.1f} ms"


def _fmt_attrs(span: Span, skip: Sequence[str] = ()) -> str:
    parts = [
        f"{k}={v!r}"
        for k, v in span.attributes.items()
        if k not in skip and k != "flushed"
    ]
    return " ".join(parts)


# ----------------------------------------------------------------------
# trace tree rendering
# ----------------------------------------------------------------------


def explain_trace(
    spans: Sequence[Span], trace_id: str, *, out: TextIO
) -> bool:
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
    members = [s for s in spans if s.trace_id == full]
    index = children_index(members)
    member_ids = {s.span_id for s in members}
    roots = [s for s in members if s.parent_id is None or s.parent_id not in member_ids]
    print(f"trace {full} — {len(members)} span(s)", file=out)

    def walk(span: Span, prefix: str, last: bool) -> None:
        branch = "└─ " if last else "├─ "
        attrs = _fmt_attrs(span)
        line = f"{prefix}{branch}{span.name} [{span.actor}] ({_fmt_duration(span)})"
        if attrs:
            line += f"  {attrs}"
        print(line, file=out)
        deeper = prefix + ("   " if last else "│  ")
        for event in span.events:
            eattrs = " ".join(f"{k}={v!r}" for k, v in event.attributes.items())
            print(f"{deeper}· {event.name}" + (f"  {eattrs}" if eattrs else ""), file=out)
        kids = _in_order(index.get(span.span_id, []))
        for i, kid in enumerate(kids):
            walk(kid, deeper, i == len(kids) - 1)

    for i, root in enumerate(_in_order(roots)):
        walk(root, "", i == len(roots) - 1)
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


def _dispatch_chain(index, parent: Span) -> Iterator[Span]:
    """The ``task.dispatch`` parent chain hanging off ``parent``: each
    attempt is a child of the attempt it superseded."""
    span: Optional[Span] = parent
    while True:
        span = next(
            (s for s in index.get(span.span_id, []) if s.name == "task.dispatch"), None
        )
        if span is None:
            return
        yield span


def _walk_dispatch_chain(index, parent: Span, out: TextIO, indent: str) -> None:
    """Narrate the ``task.dispatch`` parent chain hanging off ``parent``."""
    for dispatch in _dispatch_chain(index, parent):
        attempt = dispatch.attributes.get("attempt")
        worker = dispatch.attributes.get("worker")
        secured = dispatch.attributes.get("secured")
        d_outcome = dispatch.attributes.get("outcome", "open")
        line = f"{indent}attempt {attempt}: dispatched to worker {worker}"
        if secured:
            line += " (secured channel)"
        line += f" — {d_outcome} after {_fmt_duration(dispatch)}"
        print(line, file=out)
        execs = [
            s for s in index.get(dispatch.span_id, []) if s.name == "task.exec"
        ]
        for ex in execs:
            pid = ex.attributes.get("pid")
            where = f" (pid {pid})" if pid is not None else ""
            print(
                f"{indent}  executed on {ex.actor}{where} — "
                f"{ex.attributes.get('outcome', 'ok')}, {_fmt_duration(ex)}",
                file=out,
            )
        if d_outcome in _SUPERSEDED_REASON:
            print(f"{indent}  ↳ {_SUPERSEDED_REASON[d_outcome]}", file=out)


def explain_task(
    spans: Sequence[Span], task_id: int, *, out: TextIO
) -> bool:
    """Narrate every trace of ``task_id`` as a dispatch chain; False if none.

    Two tree shapes are understood: a plain farm root
    (``task`` → ``task.dispatch`` chain) and a supervised root
    (``task`` → one ``task.attempt`` per coordinator incarnation →
    ``task.dispatch`` chain), so a crashed-and-replayed task reads as
    one causal story across epochs.
    """
    roots = [
        s
        for s in spans
        if s.name == "task" and s.attributes.get("task_id") == task_id
    ]
    if not roots:
        print(f"no 'task' span carries task_id={task_id}", file=out)
        return False
    index = children_index(spans)
    for root in roots:
        outcome = root.attributes.get("outcome", "open")
        print(
            f"task {task_id} on farm '{root.actor}' — trace {root.trace_id} — "
            f"{outcome}, {_fmt_duration(root)}",
            file=out,
        )
        attempts = _in_order(index.get(root.span_id, []), "task.attempt")
        if attempts:
            for n, att in enumerate(attempts, start=1):
                a_outcome = att.attributes.get("outcome", "open")
                print(
                    f"  incarnation attempt {n} on '{att.actor}' — "
                    f"{a_outcome}, {_fmt_duration(att)}",
                    file=out,
                )
                _walk_dispatch_chain(index, att, out, "    ")
                if a_outcome in _SUPERSEDED_REASON:
                    print(f"    ↳ {_SUPERSEDED_REASON[a_outcome]}", file=out)
        else:
            _walk_dispatch_chain(index, root, out, "  ")
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
    crashed = sum(
        1 for s in spans if s.attributes.get("outcome") == "coordinator-crashed"
    )
    print(
        f"{len(failovers)} failover(s); {crashed} span(s) ended "
        f"'coordinator-crashed' across the export",
        file=out,
    )
    for i, span in enumerate(failovers, start=1):
        epoch = span.attributes.get("epoch")
        outcome = span.attributes.get("outcome", "open")
        print(
            f"#{i}  t={span.start:9.3f}  supervisor '{span.actor}' promoted "
            f"epoch {epoch} — {outcome}, {_fmt_duration(span)}",
            file=out,
        )
        for event in span.events:
            if event.name == "journal-replayed":
                print(
                    f"    replayed {event.attributes.get('events')} journal "
                    f"event(s): {event.attributes.get('pending')} task(s) still "
                    f"in flight, {event.attributes.get('completed')} already "
                    f"acknowledged (never redispatched)",
                    file=out,
                )
            elif event.name == "standby-promoted":
                print(
                    f"    standby coordinator took over the listen port; "
                    f"{event.attributes.get('adopted', '?')} surviving "
                    f"worker(s) adopted for reattach",
                    file=out,
                )
            elif event.name == "farm-rebuilt":
                print(
                    f"    farm rebuilt: {event.attributes.get('admitted', '?')} "
                    f"admitted worker(s), {event.attributes.get('quarantined', '?')} "
                    f"requarantined",
                    file=out,
                )
        redispatched = span.attributes.get("redispatched")
        quarantined = span.attributes.get("quarantined")
        if redispatched is not None:
            print(
                f"    redispatched {redispatched} in-flight task(s); "
                f"{quarantined} quarantined worker(s) stayed gated",
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
        for event in span.events:
            if event.name == "slo.escalation":
                print(
                    f"    t={event.time:9.3f}  "
                    f"{event.attributes.get('previous')} → "
                    f"{event.attributes.get('level')}",
                    file=out,
                )
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
        fired_inside = [
            a for a in actuations if span.start <= a.start <= window_end
        ]
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
            print(
                f"    actuation(s) inside the episode: {', '.join(parts)}",
                file=out,
            )
        if span.end is None:
            print("    still open at export (alert not yet resolved)", file=out)
            continue
        burned = ""
        opened = span.attributes.get("budget_remaining_open")
        closed = span.attributes.get("budget_remaining_close")
        if opened is not None and closed is not None:
            burned = f"; budget burned {_pct(float(opened) - float(closed))}"
        closed_how = (
            "resolved"
            if span.attributes.get("resolved", True)
            else "closed unresolved at export"
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


def explain_tenant(
    spans: Sequence[Span], tenant: str, *, out: TextIO
) -> bool:
    """Narrate every task one tenant submitted; False if the tenant is
    absent from the export.

    The tenant name is stamped on each task's root span at submission
    (see ``ShardedFarm.submit``), so this view is the multi-tenant
    slice of the same dispatch trees ``--task`` narrates one by one:
    which farms/shards served the tenant, each task's worker chain, and
    how the tenant's stream ended.
    """
    roots = [
        s
        for s in spans
        if s.name == "task" and s.attributes.get("tenant") == tenant
    ]
    if not roots:
        known = sorted(
            {
                str(s.attributes["tenant"])
                for s in spans
                if s.name == "task" and s.attributes.get("tenant") is not None
            }
        )
        print(f"no 'task' span carries tenant={tenant!r}", file=out)
        if known:
            print("tenants in this export: " + ", ".join(known), file=out)
        return False
    index = children_index(spans)
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
        for dispatch in _dispatch_chain(index, root):
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
    """Every span that *decided* something: MAPE cycles that fired at
    least one rule, plus intent rounds not already under such a cycle."""
    index = children_index(spans)

    def descendants(span: Span):
        for kid in index.get(span.span_id, []):
            yield kid
            yield from descendants(kid)

    cycles = []
    covered = set()
    for span in spans:
        if span.name != "mape.cycle":
            continue
        fired = False
        for d in descendants(span):
            if d.name == "mape.execute" and d.attributes.get("fired"):
                fired = True
            if d.name in ("mc.intent", "mc.commit"):
                fired = True
                covered.add(d.span_id)
        if fired:
            cycles.append(span)
    orphan_intents = [
        s for s in spans if s.name == "mc.intent" and s.span_id not in covered
    ]
    return _in_order(cycles + orphan_intents)


def _explain_intent(span: Span, out: TextIO, indent: str) -> None:
    originator = span.attributes.get("originator", "?")
    operation = span.attributes.get("operation", "?")
    mode = span.attributes.get("mode", "?")
    outcome = span.attributes.get("outcome", "open")
    print(
        f"{indent}intent: {originator} asked for {operation} "
        f"(mode {mode}) → {outcome}",
        file=out,
    )
    for event in span.events:
        if event.name == "intent.plan":
            ok = event.attributes.get("ok")
            print(
                f"{indent}  planned {event.attributes.get('count')} node(s): "
                f"{'placement reserved' if ok else 'no capacity — no local plan'}",
                file=out,
            )
        elif event.name == "intent.amend":
            print(
                f"{indent}  amended by reviewer "
                f"{event.attributes.get('reviewer')} (plan changed before commit)",
                file=out,
            )
        elif event.name == "intent.veto":
            print(
                f"{indent}  VETOED by reviewer {event.attributes.get('reviewer')} "
                f"— plan aborted, reservation released",
                file=out,
            )
        elif event.name == "security.amend":
            print(
                f"{indent}  security manager amended nodes: "
                f"{event.attributes.get('nodes')}",
                file=out,
            )


def _explain_commit(span: Span, out: TextIO, indent: str) -> None:
    nodes = span.attributes.get("nodes")
    print(f"{indent}commit on nodes {nodes}:", file=out)
    # reconstruct each worker's admission path from the point events
    steps: Dict[Any, List[str]] = {}
    for event in span.events:
        worker = event.attributes.get("worker")
        if worker is None:
            continue
        label = {
            "mc.quarantine": "quarantined on arrival",
            "mc.secured": "channel secured",
            "mc.secure_failed": "secure handshake FAILED",
            "mc.admit": "admitted to the dispatch pool",
        }.get(event.name)
        if label is None:
            continue
        steps.setdefault(worker, []).append(label)
    for worker, path in steps.items():
        print(f"{indent}  worker {worker}: " + " → ".join(path), file=out)
    print(
        f"{indent}  admitted={span.attributes.get('admitted')} "
        f"failures={span.attributes.get('failures')}",
        file=out,
    )


def explain_actuation(
    spans: Sequence[Span], number: int, *, out: TextIO
) -> bool:
    """Narrate actuation ``number`` (1-based, as listed); False if absent."""
    actuations = find_actuations(spans)
    if not 1 <= number <= len(actuations):
        print(
            f"no actuation #{number}; {len(actuations)} found "
            f"(list them with --actuations)",
            file=out,
        )
        return False
    span = actuations[number - 1]
    index = children_index(spans)

    def kids(parent: Span, name: str) -> List[Span]:
        return [s for s in index.get(parent.span_id, []) if s.name == name]

    print(
        f"actuation #{number} — {span.name} by {span.actor} "
        f"at t={span.start:.3f} (trace {span.trace_id})",
        file=out,
    )
    if span.name == "mc.intent":
        _explain_intent(span, out, "  ")
        # a live ABC's admission gate narrates its commit nested inside
        for commit in kids(span, "mc.commit"):
            _explain_commit(commit, out, "  ")
        return True
    # a MAPE cycle: monitor → analyse → plan → execute, with any intent
    # protocol rounds nested under execute
    for plan in kids(span, "mape.plan"):
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
    for execute in kids(span, "mape.execute"):
        fired = execute.attributes.get("fired") or []
        print(
            "  execute: fired " + (", ".join(map(str, fired)) if fired else "nothing"),
            file=out,
        )

        def walk(parent: Span, indent: str) -> None:
            for child in _in_order(index.get(parent.span_id, [])):
                if child.name == "mc.intent":
                    _explain_intent(child, out, indent)
                elif child.name == "mc.commit":
                    _explain_commit(child, out, indent)
                walk(child, indent)

        walk(execute, "    ")
    return True


# ----------------------------------------------------------------------
# overview + entry point
# ----------------------------------------------------------------------


def _overview(spans: Sequence[Span], out: TextIO) -> None:
    traces = list_traces(spans)
    tasks = sorted(
        {
            s.attributes.get("task_id")
            for s in spans
            if s.name == "task" and s.attributes.get("task_id") is not None
        }
    )
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
    print(
        "explore with --list-traces, --actuations, --trace, --task, --actuation, "
        "--tenant, --failovers, --slo",
        file=out,
    )


def _list_traces(spans: Sequence[Span], out: TextIO) -> None:
    for summary in list_traces(spans):
        print(
            f"{summary['trace_id']}  {summary['spans']:4d} span(s)  "
            f"root={summary['root']}  t={summary['start']:.3f}",
            file=out,
        )


def _list_actuations(spans: Sequence[Span], out: TextIO) -> None:
    actuations = find_actuations(spans)
    if not actuations:
        print("no actuations recorded (no rule fired, no intent raised)", file=out)
        return
    for i, span in enumerate(actuations, start=1):
        detail = ""
        if span.name == "mc.intent":
            detail = (
                f" {span.attributes.get('originator')} → "
                f"{span.attributes.get('operation')} "
                f"[{span.attributes.get('outcome', 'open')}]"
            )
        print(f"#{i}  t={span.start:9.3f}  {span.name}  by {span.actor}{detail}", file=out)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.explain",
        description="reconstruct causal chains from a JSONL trace export",
    )
    parser.add_argument("trace_file", help="JSONL file written by export_jsonl")
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--list-traces", action="store_true", help="index of recorded traces"
    )
    group.add_argument(
        "--trace", metavar="ID", help="print one trace tree (unique id prefix ok)"
    )
    group.add_argument(
        "--task", type=int, metavar="N", help="causal chain of task N"
    )
    group.add_argument(
        "--actuations", action="store_true", help="index of recorded actuations"
    )
    group.add_argument(
        "--actuation", type=int, metavar="N", help="causal chain of actuation #N"
    )
    group.add_argument(
        "--tenant", metavar="NAME",
        help="narrate every task tenant NAME submitted (multi-tenant runs)",
    )
    group.add_argument(
        "--failovers", action="store_true",
        help="narrate coordinator failovers (journal replay, redispatch)",
    )
    group.add_argument(
        "--slo", action="store_true",
        help="narrate SLO alert episodes (burn rates, budget, adaptations)",
    )
    return parser


def main(argv: Optional[List[str]] = None, *, out: TextIO = None) -> int:
    out = out if out is not None else sys.stdout
    args = _parser().parse_args(argv)

    try:
        spans = load(args.trace_file)
    except OSError as exc:
        print(f"cannot read {args.trace_file}: {exc}", file=sys.stderr)
        return 1

    if args.list_traces:
        _list_traces(spans, out)
        return 0
    if args.trace:
        return 0 if explain_trace(spans, args.trace, out=out) else 2
    if args.task is not None:
        return 0 if explain_task(spans, args.task, out=out) else 2
    if args.actuations:
        _list_actuations(spans, out)
        return 0
    if args.actuation is not None:
        return 0 if explain_actuation(spans, args.actuation, out=out) else 2
    if args.tenant is not None:
        return 0 if explain_tenant(spans, args.tenant, out=out) else 2
    if args.failovers:
        return 0 if explain_failovers(spans, out=out) else 2
    if args.slo:
        return 0 if explain_slo(spans, out=out) else 2
    _overview(spans, out)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    sys.exit(main())
