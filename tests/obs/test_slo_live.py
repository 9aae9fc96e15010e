"""The longitudinal HTTP surface: /query, /slo, /stream — and its races.

Endpoint tests run against a scripted store (ManualClock, hand scrapes);
the race tier hammers the surface from client threads while a
SupervisedFarm crashes, fails over and flushes underneath it — the
invariant is *no 500s and no torn state*, ever.
"""

import json
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.contracts import MinThroughputContract
from repro.obs.clock import ManualClock
from repro.obs.slo import SLO, BurnWindows, SLOEngine
from repro.obs.telemetry import Telemetry
from repro.runtime.supervision import SupervisedFarm

from ..runtime.waiting import wait_until


def race_task(payload):
    """Module-level so the tagged runner can resolve it by name."""
    work, value = payload
    if work:
        time.sleep(work)
    return value * value


def _get_json(url):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return json.load(resp)


def _http_error(url):
    try:
        urllib.request.urlopen(url, timeout=5)
    except urllib.error.HTTPError as err:
        return err.code, json.load(err)
    raise AssertionError(f"{url} unexpectedly succeeded")


@pytest.fixture()
def telemetry():
    clock = ManualClock()
    tel = Telemetry(clock)
    tel.start_timeseries(interval=0.5, scraper_thread=False)
    g = tel.metrics.gauge("repro_farm_departure_rate", "r").labels(manager="AM_x")
    for v in (40.0, 50.0, 60.0):
        g.set(v)
        clock.advance(0.5)
        tel.timeseries.scrape_once()
    return tel


@pytest.fixture()
def server(telemetry):
    with telemetry.serve(port=0) as srv:
        yield srv


class TestQueryEndpoint:
    def test_query_returns_the_series(self, server):
        body = _get_json(
            server.url("/query?metric=repro_farm_departure_rate&since=-10")
        )
        assert body["kind"] == "gauge" and body["field"] == "last"
        (series,) = body["series"]
        assert series["labels"] == {"manager": "AM_x"}
        assert [p[1] for p in series["points"]] == [40.0, 50.0, 60.0]

    def test_label_params_filter_series(self, server, telemetry):
        telemetry.metrics.gauge("repro_farm_departure_rate", "r").labels(
            manager="AM_y"
        ).set(1.0)
        telemetry.timeseries.scrape_once()
        body = _get_json(
            server.url("/query?metric=repro_farm_departure_rate&manager=AM_y")
        )
        (series,) = body["series"]
        assert series["labels"] == {"manager": "AM_y"}

    def test_missing_metric_param_is_400_with_catalogue(self, server):
        code, body = _http_error(server.url("/query"))
        assert code == 400
        assert "repro_farm_departure_rate" in body["metrics"]

    def test_unknown_metric_is_404_with_catalogue(self, server):
        code, body = _http_error(server.url("/query?metric=repro_nope"))
        assert code == 404
        assert "repro_farm_departure_rate" in body["metrics"]

    def test_bad_field_is_400(self, server):
        code, body = _http_error(
            server.url("/query?metric=repro_farm_departure_rate&field=p95")
        )
        assert code == 400
        assert "field" in body["error"] or "field" in str(body)

    def test_no_store_is_404(self):
        tel = Telemetry()
        with tel.serve(port=0) as srv:
            code, body = _http_error(srv.url("/query?metric=x"))
        assert code == 404
        assert "timeseries" in str(body).lower()


class TestSloEndpoint:
    def test_without_engine_404(self, server):
        code, body = _http_error(server.url("/slo"))
        assert code == 404

    def test_with_engine_describes_objectives(self, telemetry, server):
        def sample(store, now):
            v = store.latest("repro_farm_departure_rate", {"manager": "AM_x"})
            return {} if v is None else {"departure_rate": v}

        SLOEngine(
            telemetry,
            telemetry.timeseries,
            [SLO("x", MinThroughputContract(40.0), sample)],
            windows=BurnWindows().scaled(1.0 / 150.0),
        )
        telemetry.timeseries.scrape_once()
        body = _get_json(server.url("/slo"))
        assert body["objectives"][0]["name"] == "x"
        assert body["objectives"][0]["level"] == "ok"
        health = _get_json(server.url("/healthz"))
        assert health["slo"]["objectives"] == 1

    def test_healthz_reports_the_store(self, server):
        health = _get_json(server.url("/healthz"))
        assert health["timeseries"]["scrapes"] == 3
        assert health["timeseries"]["interval"] == 0.5


class TestStreamEndpoint:
    def test_without_broker_404(self):
        tel = Telemetry()
        with tel.serve(port=0) as srv:
            code, _ = _http_error(srv.url("/stream"))
        assert code == 404

    def test_limit_bounds_the_stream(self, telemetry, server):
        url = server.url("/stream?limit=2")
        got = []

        def reader():
            req = urllib.request.urlopen(url, timeout=10)
            for raw in req:
                line = raw.decode().rstrip("\n")
                if line.startswith("data: "):
                    got.append(json.loads(line[len("data: "):]))

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        wait_until(lambda: telemetry.stream.subscribers == 1, timeout=5)
        telemetry.stream.publish({"type": "slo", "level": "page"})
        telemetry.stream.publish({"type": "slo", "level": "ok"})
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert [e["level"] for e in got] == ["page", "ok"]
        wait_until(lambda: telemetry.stream.subscribers == 0, timeout=5)

    def test_event_type_names_the_frame(self, telemetry, server):
        url = server.url("/stream?limit=1")
        lines = []

        def reader():
            req = urllib.request.urlopen(url, timeout=10)
            for raw in req:
                lines.append(raw.decode().rstrip("\n"))

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        wait_until(lambda: telemetry.stream.subscribers == 1, timeout=5)
        telemetry.stream.publish({"type": "metrics", "changed": []})
        thread.join(timeout=10)
        assert "event: metrics" in lines


class TestSurfaceRaces:
    """/metrics, /query and /stream concurrent with failover and flush."""

    def test_no_500s_across_failover_and_flush(self, tmp_path):
        tel = Telemetry()
        gauge = tel.metrics.gauge("repro_race_gauge", "spin").labels()
        gauge.set(0.0)
        tel.start_timeseries(interval=0.01, retention=5.0, scraper_thread=True)
        tel.timeseries.scrape_once()  # the gauge is queryable before any poll
        farm = SupervisedFarm(
            race_task,
            backend="thread",
            journal_path=str(tmp_path / "j.jsonl"),
            initial_workers=2,
            telemetry=tel,
        )
        srv = tel.serve(port=0)
        stop = threading.Event()
        bad: list = []

        def poll(path):
            while not stop.is_set():
                try:
                    with urllib.request.urlopen(srv.url(path), timeout=5) as resp:
                        resp.read()
                except urllib.error.HTTPError as err:
                    bad.append((path, err.code))
                except OSError:
                    # connection-level noise (reset mid-teardown) is not
                    # a server error; the invariant is "never a 500"
                    pass

        def stream():
            while not stop.is_set():
                try:
                    with urllib.request.urlopen(
                        srv.url("/stream?limit=3"), timeout=5
                    ) as resp:
                        for _ in resp:
                            if stop.is_set():
                                break
                except urllib.error.HTTPError as err:
                    bad.append(("/stream", err.code))
                except OSError:
                    pass

        threads = [
            threading.Thread(target=poll, args=("/metrics",), daemon=True),
            threading.Thread(
                target=poll, args=("/query?metric=repro_race_gauge&since=-2",),
                daemon=True,
            ),
            threading.Thread(target=poll, args=("/healthz",), daemon=True),
            threading.Thread(target=stream, daemon=True),
        ]
        for t in threads:
            t.start()
        try:
            total = 40
            for i in range(total):
                gauge.set(float(i))
                farm.submit((0.002, i))
            wait_until(lambda: farm.completed >= 5, message="stream in flight")
            farm.crash_coordinator()
            farm.failover()
            results = farm.drain_results(total, timeout=60.0)
            assert sorted(results) == [i * i for i in range(total)]
        finally:
            farm.shutdown()
            tel.flush()
            stop.set()
            for t in threads:
                t.join(timeout=10)
            tel.stop_timeseries()
            final = _get_json(srv.url("/healthz"))
            srv.close()
        assert bad == []
        assert final["open_spans"] == 0
        assert final["status"] == "ok"

    def test_evaluate_and_describe_race_the_scraper(self):
        """The scraper evaluates every 1 ms while one thread calls
        ``evaluate()`` (flipping the verdict each time) and another
        ``describe()``: no reader may trip over a window an evaluation
        is appending to, and no evaluation may be lost."""
        tel = Telemetry()
        gauge = tel.metrics.gauge("repro_farm_departure_rate", "r").labels(manager="AM_x")
        gauge.set(50.0)

        def sample(store, now):
            v = store.latest("repro_farm_departure_rate", {"manager": "AM_x"})
            return {} if v is None else {"departure_rate": v}

        store = tel.start_timeseries(interval=0.001, retention=5.0, stream=False)
        engine = SLOEngine(tel, store, [SLO("x", MinThroughputContract(40.0), sample)])
        errors: list = []
        calls = {"evaluate": 0, "describe": 0}
        deadline = time.monotonic() + 1.0

        def hammer(name, call):
            while time.monotonic() < deadline:
                try:
                    call()
                except Exception as exc:  # noqa: BLE001 - the assertion reports it
                    errors.append((name, repr(exc)))
                calls[name] += 1

        def flip_and_evaluate():
            gauge.set(10.0 if calls["evaluate"] % 2 else 50.0)
            engine.evaluate()

        threads = [
            threading.Thread(target=hammer, args=("evaluate", flip_and_evaluate)),
            threading.Thread(target=hammer, args=("describe", engine.describe)),
        ]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the GIL over mid-iteration often
        try:
            store.start()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(switch)
            tel.stop_timeseries()
        assert errors == []
        assert calls["describe"] > 0 and store.scrapes > 0
        # every scrape's evaluation and every direct one ran to completion
        assert engine.evaluations == store.scrapes + calls["evaluate"]
