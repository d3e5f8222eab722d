"""Flight-recorder observability: structured tracing + a metrics registry.

The guard makes hundreds of consequential decisions per episode — evidence
accrual, convictions, engage/release probes, sanitizer clamps, fault
activations, detour discounting — and until this package the only record
was the terminal :class:`~repro.defense.report.DefenseReport`.  ``repro.obs``
adds the always-on telemetry substrate a runtime defense needs:

* :mod:`repro.obs.bus` — a structured **event-trace bus**: typed,
  schema-versioned events carrying (episode, cycle, window, node)
  coordinates, emitted from the guard (one stream per window, which also
  carries the evidence accumulator's and sanitizer's findings), fault
  activation and the monitor capture path, into a pluggable sink.
  Selected via ``REPRO_TRACE`` / ``REPRO_TRACE_DIR``.
* :mod:`repro.obs.metrics` — a **metrics registry** (counters and
  histograms with label support) fed by both simulator backends (per-phase
  kernel timings), the parallel runner, the artifact cache and the NN
  forward path; exportable as Prometheus text format and merged into
  ``perf_summary.json``.  Selected via ``REPRO_METRICS``.
* :mod:`repro.obs.summarize` — a trace-summary CLI
  (``python -m repro.obs.summarize``) rendering per-episode decision
  timelines and cross-checking event counts against a ``DefenseReport``.

Two hard properties, pinned by tests:

* **zero-cost when off** — every emission site is behind a single
  attribute check (``BUS.active`` / ``METRICS.active``); nothing is
  allocated, formatted or timed while tracing/metrics are disabled;
* **determinism-neutral when on** — events are derived purely from the
  observed (fingerprint-identical) window stream, carry no wall-clock
  timestamps and touch no RNG, so behavior fingerprints and RNG streams
  are bit-identical with tracing enabled, and the JSONL event stream
  itself is byte-identical across the object, solo-SoA and batched-SoA
  backends.  Wall-clock *timings* therefore live exclusively in the
  metrics registry, never in the trace.
"""

from repro.obs.bus import (
    BUS,
    TRACE_SCHEMA_VERSION,
    JsonlSink,
    NullSink,
    RingBufferSink,
    TraceBus,
    configure_tracing_from_environment,
    trace_session,
)
from repro.obs.metrics import (
    METRICS,
    Counter,
    Histogram,
    MetricsRegistry,
    configure_metrics_from_environment,
)

__all__ = [
    "BUS",
    "METRICS",
    "TRACE_SCHEMA_VERSION",
    "Counter",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "NullSink",
    "RingBufferSink",
    "TraceBus",
    "configure_metrics_from_environment",
    "configure_tracing_from_environment",
    "trace_session",
]
