"""Metrics registry: counters and histograms with label support.

Wall-clock and throughput telemetry lives here — per-phase kernel timings
of both simulator backends, parallel-runner task latency/retries/timeouts,
artifact-cache hit/miss/evict/quarantine counts, NN forward-pass cost —
deliberately *outside* the trace bus: timings are non-deterministic, and
the trace stream must stay byte-identical across backends and runs.

The process-wide :data:`METRICS` registry is disabled by default; every
instrumentation site is behind a single ``METRICS.active`` check, so a
disabled registry adds one attribute load to the hot paths and allocates
nothing (the zero-cost-when-off property ``bench_obs_overhead.py`` gates).

Exports:

* :meth:`MetricsRegistry.render_prometheus` — the Prometheus text
  exposition format, deterministic ordering, ready for a scrape endpoint
  or an artifact file;
* :meth:`MetricsRegistry.snapshot` — plain nested dicts, merged into
  ``perf_summary.json`` by ``benchmarks/run_perf_suite.py`` so the perf
  trajectory carries phase-level attribution.

``REPRO_METRICS=1`` (or ``prom``/``on``/``true``) enables collection at
import.  When additionally ``REPRO_TRACE_DIR`` is set, the registry dumps
``metrics-<pid>.prom`` there at interpreter exit, which is how the nightly
matrix jobs collect metrics artifacts without per-bench plumbing.
"""

from __future__ import annotations

import atexit
import os
from bisect import bisect_left
from pathlib import Path

__all__ = [
    "METRICS",
    "Counter",
    "Histogram",
    "HistogramSeries",
    "MetricsRegistry",
    "configure_metrics_from_environment",
]

#: Default histogram buckets for timings in seconds: 1 µs .. 10 s.
DEFAULT_TIME_BUCKETS = (
    1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 10.0,
)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(key: tuple) -> str:
    if not key:
        return ""
    inner = ",".join(f'{name}="{value}"' for name, value in key)
    return "{" + inner + "}"


class _Metric:
    """Shared name/help bookkeeping of the three instrument types."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help

    def _header(self) -> list[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        return lines


class Counter(_Metric):
    """Monotonically increasing value, optionally per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[tuple, float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def render(self) -> list[str]:
        lines = self._header()
        for key in sorted(self._values):
            lines.append(f"{self.name}{_format_labels(key)} {self._values[key]:g}")
        return lines

    def snapshot(self) -> dict:
        return {
            "type": self.kind,
            "values": {
                _format_labels(key) or "": value
                for key, value in sorted(self._values.items())
            },
        }


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus semantics) per label set."""

    kind = "histogram"

    def __init__(
        self, name: str, help: str = "", buckets: tuple = DEFAULT_TIME_BUCKETS
    ) -> None:
        super().__init__(name, help)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket")
        # Per label set: [per-bucket counts..., +Inf count], sum, count.
        self._series: dict[tuple, list] = {}

    def _row(self, key: tuple) -> list:
        row = self._series.get(key)
        if row is None:
            row = [[0] * (len(self.buckets) + 1), 0.0, 0]
            self._series[key] = row
        return row

    def observe(self, value: float, **labels) -> None:
        row = self._row(_label_key(labels))
        row[0][bisect_left(self.buckets, value)] += 1
        row[1] += value
        row[2] += 1

    def series(self, **labels) -> "HistogramSeries":
        """A label-bound observe handle for per-cycle hot paths.

        Pre-computes the label key once so each observation is a dict
        lookup plus a bisect — the per-cycle kernel timings rely on this
        to stay inside the <5% enabled-overhead budget.  Safe across
        :meth:`MetricsRegistry.reset`: the handle re-resolves its row on
        every observation.
        """
        return HistogramSeries(self, _label_key(labels))

    def count(self, **labels) -> int:
        row = self._series.get(_label_key(labels))
        return row[2] if row is not None else 0

    def sum(self, **labels) -> float:
        row = self._series.get(_label_key(labels))
        return row[1] if row is not None else 0.0

    def render(self) -> list[str]:
        lines = self._header()
        for key in sorted(self._series):
            counts, total, count = self._series[key]
            cumulative = 0
            for bucket, bucket_count in zip(self.buckets, counts):
                cumulative += bucket_count
                labels = key + (("le", f"{bucket:g}"),)
                lines.append(
                    f"{self.name}_bucket{_format_labels(tuple(sorted(labels)))} "
                    f"{cumulative}"
                )
            labels = key + (("le", "+Inf"),)
            lines.append(
                f"{self.name}_bucket{_format_labels(tuple(sorted(labels)))} {count}"
            )
            lines.append(f"{self.name}_sum{_format_labels(key)} {total:g}")
            lines.append(f"{self.name}_count{_format_labels(key)} {count}")
        return lines

    def snapshot(self) -> dict:
        return {
            "type": self.kind,
            "buckets": list(self.buckets),
            "values": {
                _format_labels(key)
                or "": {"counts": list(row[0]), "sum": row[1], "count": row[2]}
                for key, row in sorted(self._series.items())
            },
        }


class HistogramSeries:
    """One histogram label set, bound for allocation-free observation."""

    __slots__ = ("_histogram", "_key")

    def __init__(self, histogram: Histogram, key: tuple) -> None:
        self._histogram = histogram
        self._key = key

    def observe(self, value: float) -> None:
        histogram = self._histogram
        row = histogram._row(self._key)
        row[0][bisect_left(histogram.buckets, value)] += 1
        row[1] += value
        row[2] += 1


class MetricsRegistry:
    """Named instruments behind one ``active`` switch.

    Instruments are created lazily and idempotently (``counter("x")``
    twice returns the same object), so instrumentation sites can fetch
    their handles without import-order coupling.  ``active`` gates
    *collection only* — handles exist either way, which keeps the
    disabled branch a plain boolean check.
    """

    def __init__(self, active: bool = False) -> None:
        self.active = bool(active)
        self._metrics: dict[str, _Metric] = {}

    # -- switches ------------------------------------------------------------
    def enable(self) -> None:
        self.active = True

    def disable(self) -> None:
        self.active = False

    # -- instruments ---------------------------------------------------------
    def _get(self, cls, name: str, help: str, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: tuple = DEFAULT_TIME_BUCKETS
    ) -> Histogram:
        return self._get(Histogram, name, help, buckets=buckets)

    # -- views ---------------------------------------------------------------
    def reset(self) -> None:
        """Drop all recorded values (instrument handles stay valid)."""
        for metric in self._metrics.values():
            if isinstance(metric, Histogram):
                metric._series.clear()
            else:
                metric._values.clear()

    def render_prometheus(self) -> str:
        """All instruments in the Prometheus text exposition format."""
        lines: list[str] = []
        for name in sorted(self._metrics):
            lines.extend(self._metrics[name].render())
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict:
        """Plain-dict view (merged into ``perf_summary.json``)."""
        return {
            name: self._metrics[name].snapshot() for name in sorted(self._metrics)
        }


#: The process-wide registry every instrumentation site records into.
METRICS = MetricsRegistry()


# -- shared instrumentation helpers ------------------------------------------
# Call sites in hot paths use these tiny wrappers so the handles are created
# once and the call reads as one line.  Every helper assumes the caller
# already checked ``METRICS.active`` (they do not re-check).

def sim_phase_histogram() -> Histogram:
    """Per-phase kernel dispatch cost of the simulator backends."""
    return METRICS.histogram(
        "repro_sim_phase_seconds",
        "per-cycle kernel phase cost by backend and phase",
    )


def runner_task_histogram() -> Histogram:
    return METRICS.histogram(
        "repro_runner_task_seconds",
        "parallel-runner per-task wall clock by dispatch mode",
    )


def runner_events_counter() -> Counter:
    return METRICS.counter(
        "repro_runner_events_total",
        "parallel-runner dispatch events (tasks, retries, timeouts, fallbacks)",
    )


def cache_events_counter() -> Counter:
    return METRICS.counter(
        "repro_cache_events_total",
        "artifact-cache events (hit, miss, store, invalid, evict, quarantine)",
    )


def nn_forward_histogram() -> Histogram:
    return METRICS.histogram(
        "repro_nn_forward_seconds",
        "NN forward-pass wall clock by mode (train/infer)",
    )


def guard_events_counter() -> Counter:
    return METRICS.counter(
        "repro_guard_events_total",
        "guard decision events by kind (node-counted where node-scoped)",
    )


def configure_metrics_from_environment(
    registry: MetricsRegistry | None = None,
) -> MetricsRegistry:
    """Enable/disable the registry from ``REPRO_METRICS``.

    Truthy values (``1``, ``on``, ``true``, ``prom``) enable collection.
    With ``REPRO_TRACE_DIR`` also set, a Prometheus text dump is written
    there at interpreter exit (``metrics-<pid>.prom``) so batch jobs get a
    metrics artifact per process with zero per-bench plumbing.
    """
    registry = METRICS if registry is None else registry
    raw = os.environ.get("REPRO_METRICS", "").strip().lower()
    registry.active = raw in ("1", "on", "true", "yes", "prom")
    if registry.active and os.environ.get("REPRO_TRACE_DIR", "").strip():
        _register_exit_dump(registry)
    return registry


_EXIT_DUMP_REGISTERED = False


def _register_exit_dump(registry: MetricsRegistry) -> None:
    global _EXIT_DUMP_REGISTERED
    if _EXIT_DUMP_REGISTERED:
        return
    _EXIT_DUMP_REGISTERED = True

    def _dump() -> None:  # pragma: no cover - exercised at interpreter exit
        directory = os.environ.get("REPRO_TRACE_DIR", "").strip()
        if not directory or not registry._metrics:
            return
        try:
            path = Path(directory)
            path.mkdir(parents=True, exist_ok=True)
            (path / f"metrics-{os.getpid()}.prom").write_text(
                registry.render_prometheus()
            )
        except OSError:
            pass

    atexit.register(_dump)


configure_metrics_from_environment()
