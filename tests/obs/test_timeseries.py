"""The embedded TSDB: scraping, ring retention, range queries, streaming.

Every test drives :meth:`TimeSeriesStore.scrape_once` by hand with a
:class:`ManualClock`, so time is exact and nothing sleeps.
"""

import math
import threading

import pytest

from repro.obs.clock import ManualClock
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import (
    HistogramSnapshot,
    MetricsDeltaPublisher,
    StreamBroker,
    TimeSeriesStore,
)


@pytest.fixture()
def clock():
    return ManualClock()


@pytest.fixture()
def registry():
    return MetricsRegistry()


@pytest.fixture()
def store(registry, clock):
    return TimeSeriesStore(registry, clock, interval=1.0, retention=10.0)


class TestHistogramSnapshot:
    def _hist(self, registry, values):
        h = registry.histogram("repro_lat_seconds", "latency").labels()
        for v in values:
            h.observe(v)
        return h

    def test_of_copies_the_live_state(self, registry):
        h = self._hist(registry, [0.001, 0.1, 2.0])
        snap = HistogramSnapshot.of(h)
        h.observe(5.0)
        assert snap.count == 3
        assert HistogramSnapshot.of(h).count == 4

    def test_delta_is_the_interval_distribution(self, registry):
        h = self._hist(registry, [0.001, 0.001])
        early = HistogramSnapshot.of(h)
        h.observe(1.0)
        h.observe(1.0)
        window = HistogramSnapshot.of(h).delta(early)
        assert window.count == 2
        assert window.quantile(0.5) >= 1.0

    def test_delta_of_none_is_identity(self, registry):
        snap = HistogramSnapshot.of(self._hist(registry, [0.5]))
        assert snap.delta(None) is snap

    def test_merge_adds_counts_and_sums(self, registry):
        a = HistogramSnapshot.of(self._hist(registry, [0.001]))
        b = HistogramSnapshot.of(self._hist(MetricsRegistry(), [1.0]))
        merged = a.merge(b)
        assert merged.count == 2
        assert merged.sum == pytest.approx(1.001)

    def test_quantile_empty_is_zero(self):
        snap = HistogramSnapshot((0.1, math.inf), (0, 0), 0.0, 0)
        assert snap.quantile(0.95) == 0.0
        assert snap.mean == 0.0

    def test_quantile_validates_range(self, registry):
        snap = HistogramSnapshot.of(self._hist(registry, [0.5]))
        with pytest.raises(ValueError):
            snap.quantile(1.5)

    def test_to_dict_carries_the_summary(self, registry):
        d = HistogramSnapshot.of(self._hist(registry, [0.001, 0.002])).to_dict()
        assert d["count"] == 2
        assert set(d) == {"count", "sum", "mean", "p50", "p95", "p99"}


class TestScrapeAndRetention:
    def test_scrape_samples_every_kind(self, registry, store, clock):
        registry.gauge("repro_g", "g").labels(x="a").set(3.0)
        registry.counter("repro_c", "c").labels().inc(2)
        registry.histogram("repro_h", "h").labels().observe(0.01)
        clock.advance(1.0)
        store.scrape_once()
        assert sorted(store.metric_names()) == ["repro_c", "repro_g", "repro_h"]
        assert store.kind_of("repro_g") == "gauge"
        assert store.latest("repro_g", {"x": "a"}) == 3.0
        assert store.latest("repro_c") == 2.0
        assert store.latest("repro_h").count == 1

    def test_retention_bounds_the_ring(self, registry, store, clock):
        g = registry.gauge("repro_g", "g").labels()
        for i in range(50):
            g.set(float(i))
            clock.advance(1.0)
            store.scrape_once()
        body = store.query("repro_g", since=clock.now() - 1000.0)
        # capacity = retention/interval + 2 = 12
        assert len(body["series"][0]["points"]) <= 12
        assert store.latest("repro_g") == 49.0

    def test_listeners_fire_after_each_scrape(self, registry, store, clock):
        seen = []
        store.add_listener(lambda t, s: seen.append(t))
        clock.advance(1.0)
        store.scrape_once()
        clock.advance(1.0)
        store.scrape_once()
        assert seen == [1.0, 2.0]

    def test_interval_and_retention_validated(self, registry, clock):
        with pytest.raises(ValueError):
            TimeSeriesStore(registry, clock, interval=0.0)
        with pytest.raises(ValueError):
            TimeSeriesStore(registry, clock, interval=5.0, retention=1.0)

    def test_window_rate_over_a_counter(self, registry, store, clock):
        c = registry.counter("repro_c", "c").labels()
        for _ in range(5):
            c.inc(10)
            clock.advance(1.0)
            store.scrape_once()
        assert store.window_rate("repro_c", 3.0) == pytest.approx(10.0)
        assert store.window_rate("repro_missing", 3.0) is None


class TestQuery:
    def test_unknown_metric_raises_keyerror(self, store):
        with pytest.raises(KeyError):
            store.query("repro_nope")

    def test_bad_field_and_step_raise_valueerror(self, registry, store, clock):
        registry.gauge("repro_g", "g").labels().set(1.0)
        clock.advance(1.0)
        store.scrape_once()
        with pytest.raises(ValueError):
            store.query("repro_g", field="rate")
        with pytest.raises(ValueError):
            store.query("repro_g", step=0.0)

    def test_gauge_raw_and_bucketed(self, registry, store, clock):
        g = registry.gauge("repro_g", "g").labels()
        for v in (1.0, 2.0, 3.0, 4.0):
            g.set(v)
            clock.advance(1.0)
            store.scrape_once()
        raw = store.query("repro_g")
        assert [p[1] for p in raw["series"][0]["points"]] == [1.0, 2.0, 3.0, 4.0]
        avg = store.query("repro_g", since=0.5, step=2.0, field="avg")
        values = [p[1] for p in avg["series"][0]["points"]]
        assert values == [pytest.approx(1.5), pytest.approx(3.5)]

    def test_counter_rate_vs_total(self, registry, store, clock):
        c = registry.counter("repro_c", "c").labels()
        for _ in range(4):
            c.inc(5)
            clock.advance(1.0)
            store.scrape_once()
        rate = store.query("repro_c", field="rate", step=1.0, since=0.5)
        points = rate["series"][0]["points"]
        assert len(points) == 3  # rate needs a previous sample; first gap has none
        assert all(v == pytest.approx(5.0) for _, v in points)
        total = store.query("repro_c", field="total")
        assert [p[1] for p in total["series"][0]["points"]] == [5.0, 10.0, 15.0, 20.0]

    def test_histogram_windowed_quantiles(self, registry, store, clock):
        h = registry.histogram("repro_h", "h").labels()
        # slow interval first, fast interval second: the windowed p95
        # must follow, which the lifetime distribution cannot do
        for _ in range(10):
            h.observe(1.0)
        clock.advance(1.0)
        store.scrape_once()
        for _ in range(10):
            h.observe(0.001)
        clock.advance(1.0)
        store.scrape_once()
        body = store.query("repro_h", field="p95", step=1.0, since=0.5)
        points = body["series"][0]["points"]
        assert points[0][1] >= 1.0
        assert points[-1][1] < 1.0

    def test_relative_since_is_anchored_at_now(self, registry, store, clock):
        g = registry.gauge("repro_g", "g").labels()
        for v in range(10):
            g.set(float(v))
            clock.advance(1.0)
            store.scrape_once()
        # since=-3 anchors at now (t=10): samples at t=7..10 inclusive
        body = store.query("repro_g", since=-3.0)
        assert len(body["series"][0]["points"]) == 4
        assert body["series"][0]["points"][0][0] == 7.0

    def test_label_filter_selects_series(self, registry, store, clock):
        g = registry.gauge("repro_g", "g")
        g.labels(farm="a").set(1.0)
        g.labels(farm="b").set(2.0)
        clock.advance(1.0)
        store.scrape_once()
        body = store.query("repro_g", labels={"farm": "b"})
        assert len(body["series"]) == 1
        assert body["series"][0]["labels"] == {"farm": "b"}

    def test_default_fields_per_kind(self, registry, store, clock):
        registry.gauge("repro_g", "g").labels().set(1.0)
        registry.counter("repro_c", "c").labels().inc()
        registry.histogram("repro_h", "h").labels().observe(0.5)
        clock.advance(1.0)
        store.scrape_once()
        assert store.query("repro_g")["field"] == "last"
        assert store.query("repro_c")["field"] == "rate"
        assert store.query("repro_h")["field"] == "p95"


class TestScraperThread:
    def test_start_is_idempotent_and_stop_joins(self, registry, clock):
        store = TimeSeriesStore(registry, clock, interval=0.01, retention=1.0)
        registry.gauge("repro_g", "g").labels().set(1.0)
        store.start()
        thread = store._thread
        assert store.start()._thread is thread
        deadline = threading.Event()
        deadline.wait(0.1)
        store.stop()
        assert store._thread is None
        assert store.scrapes >= 1


class TestStreamBroker:
    def test_fan_out_to_every_subscriber(self):
        broker = StreamBroker()
        a, b = broker.subscribe(), broker.subscribe()
        broker.publish({"type": "x"})
        assert a.get_nowait() == {"type": "x"}
        assert b.get_nowait() == {"type": "x"}
        assert broker.published == 1

    def test_full_queue_drops_oldest_not_newest(self):
        broker = StreamBroker(max_queue=2)
        q = broker.subscribe()
        for i in range(5):
            broker.publish({"i": i})
        drained = []
        while not q.empty():
            drained.append(q.get_nowait()["i"])
        assert drained == [3, 4]

    def test_unsubscribe_is_idempotent(self):
        broker = StreamBroker()
        q = broker.subscribe()
        broker.unsubscribe(q)
        broker.unsubscribe(q)
        assert broker.subscribers == 0


class TestMetricsDeltaPublisher:
    def test_only_changed_values_stream(self, registry, store, clock):
        broker = StreamBroker()
        store.add_listener(MetricsDeltaPublisher(broker))
        q = broker.subscribe()
        g = registry.gauge("repro_g", "g").labels()
        g.set(1.0)
        clock.advance(1.0)
        store.scrape_once()
        first = q.get_nowait()
        assert first["type"] == "metrics"
        assert [c["metric"] for c in first["changed"]] == ["repro_g"]
        # no change: the next event is an empty heartbeat
        clock.advance(1.0)
        store.scrape_once()
        assert q.get_nowait()["changed"] == []
        g.set(2.0)
        clock.advance(1.0)
        store.scrape_once()
        assert q.get_nowait()["changed"][0]["value"] == 2.0
