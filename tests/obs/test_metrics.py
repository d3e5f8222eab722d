"""Unit tests for the metrics registry and its Prometheus rendering."""

import pytest

from repro.obs.metrics import (
    METRICS,
    Counter,
    Histogram,
    MetricsRegistry,
    configure_metrics_from_environment,
)


class TestCounter:
    def test_inc_and_value_with_labels(self):
        counter = Counter("events_total")
        counter.inc(event="hit")
        counter.inc(2, event="hit")
        counter.inc(event="miss")
        assert counter.value(event="hit") == 3
        assert counter.value(event="miss") == 1
        assert counter.value(event="absent") == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)

    def test_render_sorted_labels(self):
        counter = Counter("events_total", "some events")
        counter.inc(3, mode="pool", event="task")
        assert counter.render() == [
            "# HELP events_total some events",
            "# TYPE events_total counter",
            'events_total{event="task",mode="pool"} 3',
        ]


class TestHistogram:
    def test_observe_count_sum(self):
        hist = Histogram("latency_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05, phase="inject")
        hist.observe(0.5, phase="inject")
        hist.observe(3.0, phase="inject")
        assert hist.count(phase="inject") == 3
        assert hist.sum(phase="inject") == pytest.approx(3.55)
        assert hist.count(phase="other") == 0

    def test_cumulative_bucket_rendering(self):
        hist = Histogram("latency_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(3.0)
        lines = hist.render()
        assert 'latency_seconds_bucket{le="0.1"} 1' in lines
        assert 'latency_seconds_bucket{le="1"} 2' in lines
        assert 'latency_seconds_bucket{le="+Inf"} 3' in lines
        assert "latency_seconds_sum 3.55" in lines
        assert "latency_seconds_count 3" in lines

    def test_boundary_values_inclusive(self):
        """An observation exactly on a bucket boundary lands in that bucket."""
        hist = Histogram("h", buckets=(1.0,))
        hist.observe(1.0)
        assert 'h_bucket{le="1"} 1' in hist.render()

    def test_rejects_empty_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())

    def test_snapshot_shape(self):
        hist = Histogram("h", buckets=(1.0,))
        hist.observe(0.5, phase="a")
        snap = hist.snapshot()
        assert snap["type"] == "histogram"
        assert snap["buckets"] == [1.0]
        assert snap["values"]['{phase="a"}'] == {
            "counts": [1, 0],
            "sum": 0.5,
            "count": 1,
        }


class TestRegistry:
    def test_disabled_by_default(self):
        assert MetricsRegistry().active is False
        assert METRICS.active is False  # tier-1 runs without REPRO_METRICS

    def test_instruments_lazy_and_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("c")
        assert registry.counter("c") is first
        assert registry.histogram("h") is registry.histogram("h")

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("c")
        registry.histogram("h")
        with pytest.raises(TypeError):
            registry.histogram("c")
        with pytest.raises(TypeError):
            registry.counter("h")

    def test_reset_keeps_handles(self):
        registry = MetricsRegistry(active=True)
        counter = registry.counter("c")
        counter.inc(5)
        hist = registry.histogram("h")
        hist.observe(0.1)
        registry.reset()
        assert counter.value() == 0
        assert hist.count() == 0
        assert registry.counter("c") is counter

    def test_render_prometheus_orders_by_name(self):
        registry = MetricsRegistry(active=True)
        registry.counter("zzz").inc()
        registry.counter("aaa").inc()
        text = registry.render_prometheus()
        assert text.index("aaa") < text.index("zzz")
        assert text.endswith("\n")

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""

    def test_snapshot_plain_dicts(self):
        registry = MetricsRegistry(active=True)
        registry.counter("c").inc(2, event="hit")
        snap = registry.snapshot()
        assert snap["c"] == {"type": "counter", "values": {'{event="hit"}': 2.0}}


class TestEnvironmentConfig:
    @pytest.mark.parametrize("value", ["1", "on", "true", "yes", "prom"])
    def test_truthy_enables(self, value, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", value)
        monkeypatch.delenv("REPRO_TRACE_DIR", raising=False)
        registry = configure_metrics_from_environment(MetricsRegistry())
        assert registry.active is True

    @pytest.mark.parametrize("value", ["", "0", "off", "false"])
    def test_falsy_disables(self, value, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", value)
        registry = configure_metrics_from_environment(MetricsRegistry(active=True))
        assert registry.active is False


class TestHistogramSeries:
    def test_bound_series_matches_labelled_observe(self):
        from repro.obs.metrics import Histogram

        hist = Histogram("h", buckets=(0.1, 1.0))
        handle = hist.series(backend="soa", phase="inject")
        handle.observe(0.05)
        hist.observe(0.5, phase="inject", backend="soa")
        assert hist.count(backend="soa", phase="inject") == 2
        assert hist.sum(backend="soa", phase="inject") == pytest.approx(0.55)

    def test_handle_survives_registry_reset(self):
        registry = MetricsRegistry(active=True)
        hist = registry.histogram("h")
        handle = hist.series(phase="a")
        handle.observe(0.1)
        registry.reset()
        handle.observe(0.2)
        assert hist.count(phase="a") == 1
        assert hist.sum(phase="a") == pytest.approx(0.2)
