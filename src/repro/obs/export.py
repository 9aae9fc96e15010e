"""Exporters: JSONL decision audits, Prometheus text, ASCII timelines.

Three consumers, three formats:

* :func:`trace_jsonl` — the full decision audit of a run as one JSON
  object per line: the managers' event marks, then spans (with their
  other point events).  This is what
  ``python -m repro.experiments.fig4 --trace-out audit.jsonl`` writes.
* :func:`prometheus_text` — a :class:`~repro.obs.metrics.MetricsRegistry`
  in the Prometheus text exposition format (``# HELP``/``# TYPE`` plus
  samples; histograms as cumulative ``_bucket{le=…}`` series).
* :func:`ascii_timeline` / :func:`ascii_series` — the textual figure
  renderers behind the regenerated Figures 3 and 4.
"""

from __future__ import annotations

import io
import json
import math
from typing import IO, Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .events import EventMark, TraceRecorder
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .spans import Span
from .telemetry import Telemetry

__all__ = [
    "span_to_dict",
    "span_from_dict",
    "event_mark_to_dict",
    "trace_jsonl",
    "write_trace_jsonl",
    "read_trace_jsonl",
    "prometheus_text",
    "ascii_timeline",
    "ascii_series",
]


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------

def span_to_dict(span: Span) -> Dict[str, Any]:
    """A span as a JSON-ready dict (schema: ``type == "span"``)."""
    return {
        "type": "span",
        "id": span.span_id,
        "parent": span.parent_id,
        "trace_id": span.trace_id,
        "name": span.name,
        "actor": span.actor,
        "start": span.start,
        "end": span.end,
        "duration": span.duration,
        "perf_elapsed": span.perf_elapsed,
        "attributes": dict(span.attributes),
        "events": [
            {"time": ev.time, "name": ev.name, "attributes": dict(ev.attributes)}
            for ev in span.events
            if ev.actor is None  # a mark is an ``event`` record of its own
        ],
    }


def span_from_dict(record: Dict[str, Any]) -> Span:
    """The inverse of :func:`span_to_dict`: a JSONL record back to a Span.

    The round trip is exact for everything JSON can carry — ids, trace
    membership, lineage, timestamps, attributes and events (a manager's
    marks travel as ``event`` records of their own) — so an
    exported audit re-imports into an identical span tree (rich Python
    attribute *values* arrive as the strings ``json.dumps(default=str)``
    rendered them to, which is the exported form's own fidelity).
    """
    span = Span(
        span_id=str(record["id"]),
        parent_id=None if record.get("parent") is None else str(record["parent"]),
        name=record.get("name", ""),
        actor=record.get("actor", ""),
        start=record.get("start", 0.0),
        end=record.get("end"),
        attributes=dict(record.get("attributes") or {}),
        perf_elapsed=record.get("perf_elapsed"),
        trace_id=str(record.get("trace_id", "")),
    )
    for ev in record.get("events") or ():
        span.add_event(
            ev.get("name", ""), ev.get("time", 0.0), **dict(ev.get("attributes") or {})
        )
    return span


def read_trace_jsonl(path_or_file: Union[str, "IO[str]"]) -> List[Span]:
    """Load the spans back out of a :func:`trace_jsonl` audit.

    Non-span records (event marks, orphan span-events) are skipped;
    spans return in file order, which is recording order.
    """
    if hasattr(path_or_file, "read"):
        text = path_or_file.read()
    else:
        with open(path_or_file) as fh:
            text = fh.read()
    spans: List[Span] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if record.get("type") == "span":
            spans.append(span_from_dict(record))
    return spans


def event_mark_to_dict(mark: EventMark) -> Dict[str, Any]:
    """A manager's event mark as a JSON-ready dict (``type == "event"``)."""
    return {
        "type": "event",
        "time": mark.time,
        "actor": mark.actor,
        "name": mark.name,
        "detail": dict(mark.detail),
    }


def _dump(record: Dict[str, Any]) -> str:
    # default=str absorbs enums, contracts and other rich detail values
    return json.dumps(record, default=str, sort_keys=False)


def trace_jsonl(telemetry: Telemetry) -> str:
    """The decision audit of a run, one JSON object per line.

    Records appear grouped by kind — the managers' event marks (in the
    order they were made), then spans in creation order (creation order
    *is* start order), then the span-events recorded outside any span —
    each self-describing via its ``type`` field, so consumers can
    stream-filter.
    """
    lines = [_dump(event_mark_to_dict(mark)) for mark in TraceRecorder(telemetry).events]
    lines += [_dump(span_to_dict(span)) for span in telemetry.spans.spans]
    lines += [
        _dump(
            {
                "type": "span_event",
                "time": ev.time,
                "name": ev.name,
                "attributes": dict(ev.attributes),
            }
        )
        for ev in telemetry.orphan_events
        if ev.actor is None  # a mark outside any span is written above
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_trace_jsonl(path_or_file: Union[str, "IO[str]"], telemetry: Telemetry) -> int:
    """Write :func:`trace_jsonl` output to a path or open text file.

    Returns the number of records written.
    """
    text = trace_jsonl(telemetry)
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w") as fh:
            fh.write(text)
    return text.count("\n")


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

def _fmt_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _fmt_labels(labels: Sequence[Tuple[str, str]], extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = list(labels) + list(extra)
    if not pairs:
        return ""
    body = ",".join(
        f'{k}="{str(v).replace(chr(92), chr(92) * 2).replace(chr(34), chr(92) + chr(34))}"'
        for k, v in pairs
    )
    return "{" + body + "}"


def _fmt_le(bound: float) -> str:
    return "+Inf" if bound == math.inf else f"{bound:g}"


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render a metrics registry in the Prometheus text format."""
    buf = io.StringIO()
    for family in registry.families():
        if family.help:
            buf.write(f"# HELP {family.name} {family.help}\n")
        buf.write(f"# TYPE {family.name} {family.kind}\n")
        for labels, instrument in family.samples():
            if isinstance(instrument, Histogram):
                for bound, cum in instrument.cumulative():
                    lbl = _fmt_labels(labels, [("le", _fmt_le(bound))])
                    buf.write(f"{family.name}_bucket{lbl} {cum}\n")
                lbl = _fmt_labels(labels)
                buf.write(f"{family.name}_sum{lbl} {_fmt_value(instrument.sum)}\n")
                buf.write(f"{family.name}_count{lbl} {instrument.count}\n")
            elif isinstance(instrument, (Counter, Gauge)):
                lbl = _fmt_labels(labels)
                buf.write(f"{family.name}{lbl} {_fmt_value(instrument.value)}\n")
    return buf.getvalue()


# ----------------------------------------------------------------------
# ASCII figure renderers
# ----------------------------------------------------------------------

def ascii_timeline(
    events: Iterable[EventMark],
    *,
    t0: Optional[float] = None,
    t1: Optional[float] = None,
    width: int = 72,
) -> str:
    """Render event marks as per-event-name timeline rows.

    One row per distinct event name; a ``*`` wherever the event occurred.
    This is the textual analogue of the event scatter rows in Figure 4's
    first two graphs.
    """
    evs = sorted(events, key=lambda e: (e.time, e.name))
    if not evs:
        return "(no events)\n"
    lo = t0 if t0 is not None else evs[0].time
    hi = t1 if t1 is not None else evs[-1].time
    span = max(hi - lo, 1e-9)
    names: List[str] = []
    for e in evs:
        if e.name not in names:
            names.append(e.name)
    label_w = max(len(n) for n in names) + 1
    lines = []
    for name in names:
        row = [" "] * width
        for e in evs:
            if e.name != name:
                continue
            pos = int((e.time - lo) / span * (width - 1))
            row[min(max(pos, 0), width - 1)] = "*"
        lines.append(f"{name:>{label_w}} |{''.join(row)}|")
    scale = f"{'':>{label_w}}  {lo:<10.1f}{'':^{max(width - 22, 0)}}{hi:>10.1f}"
    return "\n".join(lines + [scale]) + "\n"


def ascii_series(
    points: Sequence[Tuple[float, float]],
    *,
    height: int = 10,
    width: int = 72,
    lo: Optional[float] = None,
    hi: Optional[float] = None,
    hlines: Sequence[float] = (),
    title: str = "",
) -> str:
    """Render one numeric series as a coarse ASCII chart.

    ``hlines`` draws dashed reference lines (the contract "stripe" of
    Figure 4's third graph).
    """
    if not points:
        return f"{title}: (no data)\n"
    ts = [p[0] for p in points]
    vs = [p[1] for p in points]
    vlo = lo if lo is not None else min(min(vs), *(list(hlines) or [min(vs)]))
    vhi = hi if hi is not None else max(max(vs), *(list(hlines) or [max(vs)]))
    if vhi <= vlo:
        vhi = vlo + 1.0
    t_lo, t_hi = ts[0], ts[-1]
    t_span = max(t_hi - t_lo, 1e-9)
    grid = [[" "] * width for _ in range(height)]

    def yrow(v: float) -> int:
        frac = (v - vlo) / (vhi - vlo)
        return min(height - 1, max(0, int(round((1 - frac) * (height - 1)))))

    for h in hlines:
        r = yrow(h)
        for c in range(width):
            if grid[r][c] == " ":
                grid[r][c] = "-"
    for t, v in points:
        c = min(width - 1, max(0, int((t - t_lo) / t_span * (width - 1))))
        grid[yrow(v)][c] = "o"
    out = [title] if title else []
    for i, row in enumerate(grid):
        v = vhi - (vhi - vlo) * i / (height - 1)
        out.append(f"{v:8.2f} |{''.join(row)}|")
    out.append(f"{'':8} {t_lo:<10.1f}{'':^{max(width - 20, 0)}}{t_hi:>10.1f}")
    return "\n".join(out) + "\n"
