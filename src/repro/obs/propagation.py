"""Trace-context propagation: one task, one causal tree, any substrate.

PR 1's spans stop at the process boundary: a forked ``ProcessFarm``
child or a ``dist_worker`` subprocess executes tasks the coordinator's
:class:`~repro.obs.spans.SpanRecorder` never sees.  This module carries
the missing link — a W3C-traceparent-style context (trace id, span id,
parent id as stable hex strings) that names a span on either side of
such a boundary: a resubmitted task carries it as a ``traceparent``
string, and the coordinator derives a worker-side ``task.exec`` span's
ids from the dispatch span it holds (:meth:`TraceContext.exec_child`).

Identifiers are *deterministic*, never random: local spans keep the
recorder's sequential counter (rendered as fixed-width hex), while spans
that must be minted on both sides of a process boundary hash a stable
seed (``"<farm>/task/<n>"``, ``"exec:<worker>:<parent-span>"``) with
SHA-256.  A deterministic scenario therefore still produces a
bit-identical trace — the reproducibility property the DES relies on —
and the same task always lands in the same trace, however many times it
is replayed.

The wire format follows the W3C ``traceparent`` header shape::

    00-<32 hex trace-id>-<16 hex span-id>-01

so a frame dumped off the TCP socket is readable with standard tracing
eyes, even though no OpenTelemetry dependency is involved.
"""

from __future__ import annotations

import hashlib
import re
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "TRACEPARENT_VERSION",
    "stable_trace_id",
    "stable_span_id",
    "TraceContext",
    "task_context",
    "SpanForest",
    "build_trace_tree",
    "list_traces",
]

TRACEPARENT_VERSION = "00"

_TRACEPARENT_RE = re.compile(
    r"^(?P<version>[0-9a-f]{2})-(?P<trace_id>[0-9a-f]{32})"
    r"-(?P<span_id>[0-9a-f]{16})-(?P<flags>[0-9a-f]{2})$"
)


def stable_trace_id(seed: str) -> str:
    """A 32-hex-char trace id derived deterministically from ``seed``."""
    return hashlib.sha256(("trace:" + seed).encode()).hexdigest()[:32]


def stable_span_id(seed: str) -> str:
    """A 16-hex-char span id derived deterministically from ``seed``."""
    return hashlib.sha256(("span:" + seed).encode()).hexdigest()[:16]


class TraceContext:
    """The identity of one span, plus enough lineage to nest under it.

    A context *names the span it belongs to*: ``span_id`` is that span's
    own id, ``parent_id`` its parent's (None at a trace root).  Deriving
    a child is :meth:`child`; crossing a process boundary is
    :meth:`traceparent` / :meth:`from_traceparent`.

    Ids that derive from a seed (:func:`task_context`, :meth:`child`,
    :meth:`exec_child`) are hashed on first *read*: minting a context on
    the task path is a handful of attribute writes, and the SHA-256
    runs when something looks at the id — an export, ``/trace``,
    ``explain``, :meth:`traceparent`.  The values are the same either
    way.
    """

    __slots__ = ("_trace_id", "_span_id", "_parent", "_seed")

    def __init__(
        self,
        trace_id: Optional[str],
        span_id: Optional[str],
        parent_id: Optional[str] = None,
    ) -> None:
        # a None id is derived on first read: the trace id from the
        # parent (or, at a root, the seed), the span id from the seed
        self._trace_id = trace_id
        self._span_id = span_id
        self._parent: Any = parent_id  # a span id, or the parent context
        self._seed: Any = None

    @property
    def trace_id(self) -> str:
        trace_id = self._trace_id
        if trace_id is None:
            parent = self._parent
            trace_id = self._trace_id = (
                stable_trace_id(self._seed) if parent is None else parent.trace_id
            )
        return trace_id

    @property
    def span_id(self) -> str:
        span_id = self._span_id
        if span_id is None:
            seed = self._seed
            if not isinstance(seed, str):  # exec_child: seed is the worker id
                seed = f"exec:{seed}:{self._parent.span_id}"
            span_id = self._span_id = stable_span_id(seed)
        return span_id

    @property
    def parent_id(self) -> Optional[str]:
        parent = self._parent
        return parent.span_id if isinstance(parent, TraceContext) else parent

    def child(self, seed: str) -> "TraceContext":
        """The context of a child span whose id hashes ``seed``."""
        return _derived(seed, self)

    def exec_child(self, worker_id: int) -> "TraceContext":
        """The context of the execution span ``worker_id`` ran under this
        dispatch attempt: id seed ``exec:<worker>:<this span id>``.

        This span's id is unique per dispatch attempt, so the derived id
        is too — replays never collide.  The seed embeds that id, so it
        is only formatted when the child's id is first read.
        """
        return _derived(worker_id, self)

    def traceparent(self) -> str:
        """This context as a W3C-style ``traceparent`` string."""
        return f"{TRACEPARENT_VERSION}-{self.trace_id}-{self.span_id}-01"

    @classmethod
    def from_traceparent(cls, header: Optional[str]) -> Optional["TraceContext"]:
        """Parse a ``traceparent`` string; None (or garbage) -> None.

        The parsed context names the *remote parent*: a worker that
        receives it opens its own span as a child, so ``span_id`` here
        becomes the new span's ``parent_id``.
        """
        if not header:
            return None
        m = _TRACEPARENT_RE.match(header.strip().lower())
        if m is None or m.group("version") == "ff":
            # "ff" is the one version value the W3C spec forbids outright
            return None
        return cls(trace_id=m.group("trace_id"), span_id=m.group("span_id"))

    def _ids(self) -> Tuple[str, str, Optional[str]]:
        return (self.trace_id, self.span_id, self.parent_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceContext):
            return NotImplemented
        return self._ids() == other._ids()

    def __hash__(self) -> int:
        return hash(self._ids())

    def __repr__(self) -> str:
        return "TraceContext(trace_id={!r}, span_id={!r}, parent_id={!r})".format(
            *self._ids()
        )


def _derived(seed: Any, parent: Optional[TraceContext]) -> TraceContext:
    """A context whose ids are still to be derived from ``seed``/``parent``."""
    ctx = TraceContext(None, None, parent)
    ctx._seed = seed
    return ctx


def task_context(farm_name: str, task_id: int) -> TraceContext:
    """The root context of one task's trace: stable across replays.

    Every dispatch attempt, worker execution and result delivery of a
    task hangs off this one root, whichever backend carries it.
    """
    return _derived(f"{farm_name}/task/{task_id}", None)


# ----------------------------------------------------------------------
# trace trees
# ----------------------------------------------------------------------

class SpanForest:
    """Spans as one forest, which every reader of a trace walks.

    Each span appears exactly once, under the first span of its trace
    (in ``(start, span_id)`` order, as are roots and children) that
    carries its parent id.  A span whose parent is missing or itself,
    or which lies on a parent cycle, is a root: a hostile export with
    shared ids or cycles renders, and every walk over the forest ends.
    """

    __slots__ = ("spans", "roots", "_children")

    def __init__(self, spans: Iterable[Any]) -> None:
        #: every span, in ``(start, span_id)`` order
        self.spans = sorted(spans, key=lambda s: (s.start, s.span_id))
        owners: Dict[Tuple[str, str], Any] = {}
        for span in self.spans:
            owners.setdefault((span.trace_id, span.span_id), span)
        parents: Dict[int, Any] = {}
        for span in self.spans:
            parent = owners.get((span.trace_id, span.parent_id))
            if parent is not None and parent is not span:
                parents[id(span)] = parent
        # follow each span's parent links; a walk that meets its own
        # path closed a cycle, whose members all become roots
        where: Dict[int, int] = {}  # span → its place on this walk; -1 once walked
        for span in self.spans:
            path: List[Any] = []
            node = span
            while node is not None and id(node) not in where:
                where[id(node)] = len(path)
                path.append(node)
                node = parents.get(id(node))
            if node is not None and where[id(node)] >= 0:
                for member in path[where[id(node)] :]:
                    del parents[id(member)]
            where.update((id(member), -1) for member in path)
        self.roots: List[Any] = []
        self._children: Dict[int, List[Any]] = {}
        for span in self.spans:
            parent = parents.get(id(span))
            if parent is None:
                self.roots.append(span)
            else:
                self._children.setdefault(id(parent), []).append(span)

    def children(self, span: Any, name: Optional[str] = None) -> List[Any]:
        """``span``'s children (only those called ``name``, if given)."""
        kids = self._children.get(id(span), [])
        return kids if name is None else [k for k in kids if k.name == name]

    def descendants(self, span: Any) -> Iterator[Any]:
        """Every span below ``span``, depth first, children in order."""
        stack = self.children(span)[::-1]
        while stack:
            node = stack.pop()
            yield node
            stack += self.children(node)[::-1]


def build_trace_tree(spans: Iterable[Any], trace_id: str) -> List[Dict[str, Any]]:
    """The :class:`SpanForest` of one trace as a nested JSON-ready list:
    each node is the span's exported dict plus a ``children`` list."""
    from .export import span_to_dict  # local import: export imports us

    forest = SpanForest(s for s in spans if s.trace_id == trace_id)
    nodes = {id(s): dict(span_to_dict(s), children=[]) for s in forest.spans}
    for span in forest.spans:
        nodes[id(span)]["children"] = [nodes[id(k)] for k in forest.children(span)]
    return [nodes[id(root)] for root in forest.roots]


def list_traces(spans: Iterable[Any]) -> List[Dict[str, Any]]:
    """Summaries of every distinct trace, in order of first appearance."""
    summaries: Dict[str, Dict[str, Any]] = {}
    for span in spans:
        trace_id = getattr(span, "trace_id", "")
        if not trace_id:
            continue
        entry = summaries.setdefault(
            trace_id,
            {"trace_id": trace_id, "spans": 0, "root": None, "start": span.start},
        )
        entry["spans"] += 1
        entry["start"] = min(entry["start"], span.start)
        if span.parent_id is None and entry["root"] is None:
            entry["root"] = span.name
    return list(summaries.values())
