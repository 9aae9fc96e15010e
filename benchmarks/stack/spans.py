"""In-memory spans around the harness's calls into each layer.

The benchmark measures every layer *from outside*: a traced run wraps
each call into a public function (``submit``, ``snapshot``,
``parent_step`` …) in a span — name, start, end, parent id, and the
workload/rep it belongs to.  Spans stay in memory and are written to
``trace.jsonl`` only when the run ends, so tracing costs two clock reads
and one list append per call.  An untraced run uses :data:`OFF`, whose
spans record nothing, so the end-to-end numbers carry no tracing cost.
"""

import json
import threading
import time
from collections import defaultdict


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "start", "seconds")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        stack = tracer._stack()
        self.parent = stack[-1] if stack else 0
        self.sid = next(tracer._ids)
        stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = time.perf_counter()
        self.seconds = end - self.start
        tracer = self.tracer
        tracer._stack().pop()
        tracer.records.append(
            (self.sid, self.parent, self.name, self.start, end, tracer.scope)
        )
        return False


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NO_SPAN = _NoSpan()


class Tracer:
    """Records parent-linked spans; one per run, shared by its threads."""

    enabled = True

    def __init__(self):
        self.records = []  # (id, parent id, name, start, end, scope)
        self.scope = ""  # "<workload>/<phase>/<rep>" of the spans being recorded
        self._ids = iter(range(1, 1 << 62))
        self._local = threading.local()

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def span(self, name):
        return _Span(self, name)

    def durations(self, name, scope_prefix=""):
        """Seconds of every finished span called ``name``."""
        return [
            end - start
            for _sid, _parent, n, start, end, scope in self.records
            if n == name and scope.startswith(scope_prefix)
        ]

    def self_times(self):
        """Per span name: calls, total seconds and self seconds.

        A span's self time is its duration minus the part of that
        interval its child spans cover.
        """
        covered = defaultdict(float)
        for _sid, parent, _name, start, end, _scope in self.records:
            if parent:
                covered[parent] += end - start
        table = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, _parent, name, start, end, _scope in self.records:
            row = table[name]
            row[0] += 1
            row[1] += end - start
            row[2] += max(0.0, end - start - covered.get(sid, 0.0))
        return {
            name: {"n": n, "total_s": total, "self_s": self_s}
            for name, (n, total, self_s) in sorted(table.items())
        }

    def write_jsonl(self, path):
        with open(path, "w") as out:
            for sid, parent, name, start, end, scope in self.records:
                out.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent or None,
                            "name": name,
                            "start": start,
                            "end": end,
                            "scope": scope,
                        }
                    )
                )
                out.write("\n")


class _Off:
    """The untraced run's tracer: spans cost one attribute lookup."""

    enabled = False
    scope = ""
    records = ()

    def span(self, name):
        return _NO_SPAN


OFF = _Off()
