"""Observability overhead gate: tracing must be ~free off, cheap on.

Measures the per-cycle step cost of the monitored 16x16 flood workload in
three interleaved configurations:

* ``baseline`` — observability off (the tier-1 default);
* ``disabled`` — observability explicitly configured off through the env
  path (``REPRO_TRACE=off`` semantics).  Identical code path to baseline by
  design; the <1% gate is the regression tripwire that keeps it that way
  (an "off" mode that starts allocating, formatting or timing fails here);
* ``enabled`` — ring-buffer tracing plus the metrics registry, the nightly
  matrix configuration.  Gate: <5% overhead over baseline.

Rounds are interleaved and each mode keeps its best (min) per-cycle cost,
so machine noise hits all modes equally.  Results land in
``benchmarks/results/obs_overhead.{txt,json}`` and the repo-root
``BENCH_PR10.json`` trajectory.
"""

import json
import platform
import time
from os import cpu_count
from pathlib import Path

from bench_utils import write_json_result, write_result

from repro.monitor.sampler import GlobalPerformanceMonitor, MonitorConfig
from repro.noc.simulator import NoCSimulator, SimulationConfig
from repro.obs.bus import BUS, RingBufferSink, trace_session
from repro.obs.metrics import METRICS
from repro.traffic.scenario import AttackScenario
from repro.traffic.synthetic import UniformRandomTraffic

ROWS = 16
CYCLES = 512
REPEATS = 7
ENABLED_GATE = 0.05
DISABLED_GATE = 0.01


def _monitored_simulator(rows=ROWS):
    sim = NoCSimulator(
        SimulationConfig(rows=rows, warmup_cycles=0, seed=0, backend="soa")
    )
    sim.add_source(UniformRandomTraffic(sim.topology, injection_rate=0.02, seed=0))
    sim.add_source(
        AttackScenario(attackers=(rows * rows - 1,), victim=0, fir=0.8).build_source(
            sim.topology,
            seed=1,
        )
    )
    GlobalPerformanceMonitor(MonitorConfig(sample_period=64)).attach(sim)
    sim.run(64)
    return sim


def _timed_run(cycles=CYCLES):
    sim = _monitored_simulator()
    start = time.perf_counter()
    sim.run(cycles)
    return (time.perf_counter() - start) * 1e3 / cycles


def _measure_modes():
    """Best-of per-cycle ms per mode, interleaved round-robin."""
    best = {"baseline": float("inf"), "disabled": float("inf"), "enabled": float("inf")}
    for _ in range(REPEATS):
        assert not BUS.active and not METRICS.active
        best["baseline"] = min(best["baseline"], _timed_run())

        BUS.disable()
        METRICS.disable()
        best["disabled"] = min(best["disabled"], _timed_run())

        with trace_session(RingBufferSink()):
            METRICS.enable()
            try:
                best["enabled"] = min(best["enabled"], _timed_run())
            finally:
                METRICS.disable()
                METRICS.reset()
    return best


def _write_bench_pr10(payload: dict) -> None:
    path = Path(__file__).resolve().parents[1] / "BENCH_PR10.json"
    document = {
        "pr": 10,
        "title": (
            "Flight-recorder observability: event-trace bus, metrics "
            "registry, and profiling hooks"
        ),
        "machine": {
            "cpu_count": cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "trajectory": {"obs_overhead_16x16_flood": payload},
    }
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


def test_observability_overhead_gates():
    costs = _measure_modes()
    enabled_overhead = costs["enabled"] / costs["baseline"] - 1.0
    disabled_overhead = costs["disabled"] / costs["baseline"] - 1.0
    payload = {
        "baseline_ms_per_cycle": costs["baseline"],
        "disabled_ms_per_cycle": costs["disabled"],
        "enabled_ms_per_cycle": costs["enabled"],
        "disabled_overhead": disabled_overhead,
        "enabled_overhead": enabled_overhead,
        "gates": {"enabled_max": ENABLED_GATE, "disabled_max": DISABLED_GATE},
        "note": (
            f"{ROWS}x{ROWS} mesh, uniform_random 0.02 + FIR-0.8 flood, "
            f"sampled every 64 cycles, {CYCLES} cycles, best of {REPEATS} "
            "interleaved rounds.  'enabled' = ring tracing + metrics "
            "registry (the nightly matrix config); 'disabled' = explicit "
            "off, pinned identical to the untouched baseline."
        ),
    }
    write_json_result("obs_overhead", payload)
    write_result(
        "obs_overhead",
        f"{ROWS}x{ROWS} flood step cost, best of {REPEATS} (ms/cycle)\n"
        f"baseline (obs off) : {costs['baseline']:8.4f}\n"
        f"disabled (explicit): {costs['disabled']:8.4f}  "
        f"({disabled_overhead * 100:+5.2f}% vs baseline, gate <"
        f"{DISABLED_GATE * 100:.0f}%)\n"
        f"enabled (ring+prom): {costs['enabled']:8.4f}  "
        f"({enabled_overhead * 100:+5.2f}% vs baseline, gate <"
        f"{ENABLED_GATE * 100:.0f}%)",
    )
    _write_bench_pr10(payload)
    assert enabled_overhead < ENABLED_GATE, costs
    assert disabled_overhead < DISABLED_GATE, costs
