"""The live telemetry surface: metrics, traces, range queries, SSE stream.

A running farm is only operable if its telemetry is reachable *while it
runs* — scraping a Prometheus endpoint, pulling one task's causal tree
mid-experiment, watching burn rates tick — not just exportable after the
fact.  This module puts a stdlib-only ``http.server`` in front of a
:class:`~repro.obs.telemetry.Telemetry`:

* ``GET /metrics``  — the metrics registry in Prometheus text format;
* ``GET /trace/<trace_id>`` — one causal tree as nested JSON (404 for an
  unknown id), exactly what :func:`~repro.obs.propagation.build_trace_tree`
  builds;
* ``GET /traces``   — trace summaries, bounded by ``?limit=`` (default
  500) so a 100k-task run cannot OOM a scrape;
* ``GET /healthz``  — liveness plus cheap store statistics;
* ``GET /query``    — range queries with downsampling over the embedded
  TSDB (``?metric=…&since=…&step=…&field=…`` plus any other key as a
  label filter), once :meth:`Telemetry.start_timeseries` has run;
* ``GET /slo``      — the SLO engine's live state (objectives, levels,
  burn rates, budget remaining);
* ``GET /stream``   — Server-Sent Events pushing metric deltas and SLO
  transitions as they happen (``?limit=N`` closes after N events, for
  scripts and tests).

Start it with ``Telemetry.serve(port)`` (``port=0`` picks a free one);
it runs in daemon threads via :class:`ThreadingHTTPServer`, so a wedged
scrape cannot stall the farm and process exit never blocks on it.  Every
error path answers JSON — unknown routes and ids are JSON 404s, bad
parameters JSON 400s, and an exception inside a handler becomes a JSON
500 instead of a torn half-response, so scrapes racing shutdowns and
failovers see well-formed answers or nothing.
"""

from __future__ import annotations

import json
import queue as queue_mod
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any, Dict
from urllib.parse import parse_qsl

from .export import prometheus_text
from .propagation import build_trace_tree, list_traces

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .telemetry import Telemetry

__all__ = ["TelemetryServer"]

#: /traces responses are bounded even without an explicit ?limit=
DEFAULT_TRACES_LIMIT = 500

ROUTES = [
    "/metrics",
    "/trace/<trace_id>",
    "/traces",
    "/healthz",
    "/query",
    "/slo",
    "/stream",
]

#: /query keys that are parameters, not label filters
_QUERY_PARAMS = frozenset({"metric", "since", "until", "step", "field"})


class _Handler(BaseHTTPRequestHandler):
    # set per-server via the subclass trick in TelemetryServer
    telemetry: "Telemetry"
    closing: threading.Event

    # BaseHTTPRequestHandler logs every request to stderr by default;
    # a scraped endpoint would drown the experiment's own output
    def log_message(self, format: str, *args: Any) -> None:
        pass

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: Any) -> None:
        body = json.dumps(payload, default=str, indent=2).encode()
        self._send(status, body, "application/json; charset=utf-8")

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path, _, query = self.path.partition("?")
        path = path.rstrip("/") or "/"
        params = dict(parse_qsl(query))
        try:
            self._route(path, params)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response
        except Exception as exc:  # noqa: BLE001 - a handler bug must not
            # tear the response: answer a well-formed JSON 500 (racing a
            # shutdown can surface transient state errors — clients must
            # see structured errors, never half-written bodies)
            try:
                self._send_json(500, {"error": "internal", "detail": repr(exc)})
            except (BrokenPipeError, ConnectionResetError, ValueError):
                pass

    def _route(self, path: str, params: Dict[str, str]) -> None:
        tel = self.telemetry
        if path == "/metrics":
            self._send(
                200,
                prometheus_text(tel.metrics).encode(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        elif path == "/healthz":
            store = tel.timeseries
            self._send_json(
                200,
                {
                    "status": "ok",
                    "spans": len(tel.spans),
                    "open_spans": len(tel.spans.open_spans()),
                    "traces": len(tel.spans.trace_ids()),
                    "timeseries": None
                    if store is None
                    else {
                        "scrapes": store.scrapes,
                        "metrics": len(store.metric_names()),
                        "interval": store.interval,
                        "retention": store.retention,
                    },
                    "slo": None
                    if tel.slo is None
                    else {
                        "objectives": len(tel.slo.slos),
                        "evaluations": tel.slo.evaluations,
                    },
                },
            )
        elif path == "/traces":
            try:
                limit = int(params.get("limit", DEFAULT_TRACES_LIMIT))
            except ValueError:
                self._send_json(
                    400, {"error": "bad parameter", "detail": "limit must be an int"}
                )
                return
            traces = list_traces(tel.spans.spans)
            self._send_json(
                200,
                {
                    "total": len(traces),
                    "returned": min(len(traces), max(0, limit)),
                    "traces": traces[: max(0, limit)],
                },
            )
        elif path.startswith("/trace/"):
            trace_id = path[len("/trace/"):]
            tree = build_trace_tree(tel.spans.spans, trace_id)
            if not tree:
                self._send_json(404, {"error": "unknown trace", "trace_id": trace_id})
            else:
                self._send_json(200, {"trace_id": trace_id, "tree": tree})
        elif path == "/query":
            self._query(params)
        elif path == "/slo":
            if tel.slo is None:
                self._send_json(
                    404,
                    {
                        "error": "no slo engine",
                        "detail": "attach an SLOEngine to this telemetry first",
                    },
                )
            else:
                self._send_json(200, tel.slo.describe())
        elif path == "/stream":
            self._stream(params)
        else:
            self._send_json(404, {"error": "not found", "routes": ROUTES})

    # -- /query ---------------------------------------------------------
    def _query(self, params: Dict[str, str]) -> None:
        store = self.telemetry.timeseries
        if store is None:
            self._send_json(
                404,
                {
                    "error": "no timeseries store",
                    "detail": "call Telemetry.start_timeseries() to enable /query",
                },
            )
            return
        metric = params.get("metric")
        if not metric:
            self._send_json(
                400,
                {
                    "error": "bad parameter",
                    "detail": "metric is required",
                    "metrics": store.metric_names(),
                },
            )
            return
        labels = {k: v for k, v in params.items() if k not in _QUERY_PARAMS}
        try:
            kwargs: Dict[str, Any] = {"labels": labels or None}
            for key in ("since", "until", "step"):
                if key in params:
                    kwargs[key] = float(params[key])
            if "field" in params:
                kwargs["field"] = params["field"]
            result = store.query(metric, **kwargs)
        except KeyError:
            self._send_json(
                404,
                {
                    "error": "unknown metric",
                    "metric": metric,
                    "metrics": store.metric_names(),
                },
            )
            return
        except ValueError as exc:
            self._send_json(400, {"error": "bad parameter", "detail": str(exc)})
            return
        self._send_json(200, result)

    # -- /stream (SSE) --------------------------------------------------
    def _stream(self, params: Dict[str, str]) -> None:
        broker = self.telemetry.stream
        if broker is None:
            self._send_json(
                404,
                {
                    "error": "no stream",
                    "detail": "call Telemetry.start_timeseries() to enable /stream",
                },
            )
            return
        try:
            limit = int(params["limit"]) if "limit" in params else None
        except ValueError:
            self._send_json(
                400, {"error": "bad parameter", "detail": "limit must be an int"}
            )
            return
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        sub = broker.subscribe()
        sent = 0
        try:
            self.wfile.write(b": connected\n\n")
            self.wfile.flush()
            while not self.closing.is_set():
                try:
                    event = sub.get(timeout=0.5)
                except queue_mod.Empty:
                    # keep-alive comment: detects dead clients promptly
                    self.wfile.write(b": keep-alive\n\n")
                    self.wfile.flush()
                    continue
                body = json.dumps(event, default=str, separators=(",", ":"))
                self.wfile.write(
                    f"event: {event.get('type', 'message')}\ndata: {body}\n\n".encode()
                )
                self.wfile.flush()
                sent += 1
                if limit is not None and sent >= limit:
                    break
        finally:
            broker.unsubscribe(sub)


class TelemetryServer:
    """The live endpoint over one Telemetry; closes idempotently.

    Usable as a context manager::

        with tel.serve() as srv:
            print(srv.url("/metrics"))
    """

    def __init__(self, telemetry: "Telemetry", *, host: str = "127.0.0.1", port: int = 0) -> None:
        self.closing = threading.Event()
        handler = type(
            "_BoundHandler",
            (_Handler,),
            {"telemetry": telemetry, "closing": self.closing},
        )
        self.telemetry = telemetry
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"telemetry-http-{self.port}",
            daemon=True,
        )
        self._thread.start()
        self._closed = False

    def url(self, path: str = "/") -> str:
        if not path.startswith("/"):
            path = "/" + path
        return f"http://{self.host}:{self.port}{path}"

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # wake any /stream loops first so their daemon threads drain and
        # release their sockets before the listener goes down
        self.closing.set()
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "TelemetryServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def describe(self) -> Dict[str, Any]:
        """The routes a human at the terminal wants to copy-paste."""
        return {
            "metrics": self.url("/metrics"),
            "traces": self.url("/traces"),
            "trace": self.url("/trace/<trace_id>"),
            "healthz": self.url("/healthz"),
            "query": self.url("/query?metric=<name>&since=-60&step=1"),
            "slo": self.url("/slo"),
            "stream": self.url("/stream"),
        }

