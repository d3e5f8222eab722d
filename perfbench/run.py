"""Guarded-episode benchmark: the robustness and chaos matrices, timed.

Run from the root of a checkout::

    python3 perfbench/run.py --workload chaos-8x8 --seed 0 --seconds 45 --trace 0

``--trace 0`` reports the end-to-end metrics: the median of three cold
set-ups (``train_defense_pipeline`` into an empty cache), then as many
matrix-driver calls as fit in ``--seconds`` (at least one), each from a copy
of the trained cache.  ``--trace 1`` reports per-layer metrics instead: one
untraced set-up and driver call, then the same again with span wrappers
installed (see ``spans.py``), whose rows must equal the untraced rows.

Every driver call's rows are compared field by field with the recorded rows
of the training seed in ``reference.json``.  The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed`` (driver
rows) and ``metrics``.  The exit code is 0 whenever that line is printed,
and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, process_time

#: Cold set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Traced runs must attribute at least this share of the driver call.
MIN_COVERAGE = 0.95
#: Every REPRO_* knob changes the workload or its measurement.
KNOB_PREFIX = "REPRO_"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def percentile_ms(durations: list[float], quantile: int) -> float:
    """Percentile (``quantile`` of 10) of per-call durations, in ms."""
    if len(durations) < 2:
        return 1000.0 * durations[0]
    return 1000.0 * statistics.quantiles(durations, n=10)[quantile - 1]


class Run:
    """One benchmark process: a workload at one seed, in a scratch cache root."""

    def __init__(self, workload, seed: int, work: Path) -> None:
        import workloads

        self.lib = workloads
        self.workload = workload
        self.config = workload.config(seed)
        reference = workloads.load_reference().get(workload.name, {})
        self.expected = reference.get(str(self.config.seed))
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.fingerprints: set[str] = set()
        self._dirs = 0

    def _fresh_dir(self) -> Path:
        self._dirs += 1
        return self.work / f"cache-{self._dirs}"

    def setup(self) -> tuple[float, Path]:
        """One cold set-up into an empty cache; (seconds, cache directory)."""
        cache_dir = self._fresh_dir()
        engine = self.lib.make_engine(cache_dir)
        start = perf_counter()
        self.workload.setup(self.config, engine)
        return perf_counter() - start, cache_dir

    def call(self, trained: Path):
        """One timed driver call from a copy of a trained cache.

        Returns (wall s, cpu s, points or None, engine).  An exception
        counts every row of the call as failed.
        """
        cache_dir = self._fresh_dir()
        shutil.copytree(trained, cache_dir)
        engine = self.lib.make_engine(cache_dir)
        wall_start, cpu_start = perf_counter(), process_time()
        try:
            points = self.workload.run(self.config, engine)
        except Exception:
            traceback.print_exc()
            points = None
        wall = perf_counter() - wall_start
        cpu = process_time() - cpu_start
        shutil.rmtree(cache_dir, ignore_errors=True)
        if points is None:
            self.attempted += self.workload.rows_per_call
            self.failed += self.workload.rows_per_call
        else:
            self.check(points)
        return wall, cpu, points, engine

    def check(self, points: list) -> list[dict]:
        rows = self.lib.table_rows(points)
        self.attempted += len(rows)
        self.fingerprints.add(self.lib.fingerprint(rows))
        if self.expected is None:
            return rows
        problems = self.lib.row_differences(rows, self.expected["rows"])
        if problems:
            bad_rows = {line.split()[1] for line in problems if line.startswith("row ")}
            self.failed += max(len(bad_rows), 1)
            print(f"row mismatch against reference seed {self.config.seed}:")
            for line in problems:
                print(f"  {line}")
        return rows

    def report_environment(self) -> None:
        import numpy

        print(
            f"workload {self.workload.name} training_seed={self.config.seed} "
            f"reference={'yes' if self.expected else 'no (exception check only)'} "
            f"cpu_count={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__}"
        )

    def end_to_end(self, seconds: float) -> dict:
        setups = [self.setup() for _ in range(SETUP_REPEATS)]
        trained = setups[0][1]
        setup_times = [elapsed for elapsed, _ in setups]
        walls, cpus = [], []
        last_points = None
        start = perf_counter()
        while True:
            wall, cpu, points, _ = self.call(trained)
            walls.append(wall)
            cpus.append(cpu)
            last_points = points or last_points
            if perf_counter() - start + wall > seconds:
                break
        wall = statistics.median(walls)
        cycles = self.workload.cycles(self.config)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(
            f"setup_s samples={[round(t, 3) for t in setup_times]} "
            f"wall_s samples={[round(t, 3) for t in walls]} "
            f"cpu_s samples={[round(t, 3) for t in cpus]} cycles/call={cycles}"
        )
        if last_points is not None:
            outcomes = self.lib.outcome_metrics(last_points, self.config)
            print("simulated outcomes: " + json.dumps(outcomes))
        return {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (wall, "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "sim_cycles_per_s": (cycles / wall, "cycles/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_frac": (1.0 - self.failed / max(self.attempted, 1), "fraction"),
        }

    def per_layer(self) -> tuple[dict, bool]:
        import spans

        # Untraced reference first, before any wrapper exists.
        _, trained = self.setup()
        plain_wall, _, plain_points, _ = self.call(trained)
        tracer = spans.Tracer()
        restore = spans.install(tracer)
        try:
            tracer.active = True
            self.setup()
            tracer.active = False
            setup_self = dict(tracer.self_s)
            tracer.reset()
            tracer.active = True
            wall, _, points, engine = self.call(trained)
            tracer.active = False
        finally:
            restore()
        ok = plain_points is not None and points is not None
        if not ok:
            return {}, False
        rows = self.lib.table_rows(points)
        plain_rows = self.lib.table_rows(plain_points)
        if rows != plain_rows:
            print("traced rows differ from untraced rows:")
            for line in self.lib.row_differences(rows, plain_rows):
                print(f"  {line}")
            ok = False
        s, calls, durations = tracer.self_s, tracer.calls, tracer.durations
        attributed = sum(s.values())
        coverage = attributed / wall
        cycles = self.workload.cycles(self.config)
        if calls["sim.step"] != cycles:
            print(f"traced NoCSimulator.step calls {calls['sim.step']} != {cycles}")
            ok = False
        if coverage < MIN_COVERAGE:
            print(f"attributed self time covers {coverage:.3f} of wall_s < {MIN_COVERAGE}")
            ok = False
        comparators = durations["experiments.unmitigated"] + durations["experiments.baseline"]
        stats = engine.cache.stats
        metrics = {
            "noc.step_s": (s["noc.step"], "s"),
            "noc.step_calls": (calls["noc.step"], "count"),
            "noc.step_us_per_cycle": (1e6 * s["noc.step"] / max(calls["noc.step"], 1), "us"),
            "noc.enqueue_s": (s["noc.enqueue_packet"] + s["noc.enqueue_batch"], "s"),
            "noc.enqueue_packet_calls": (calls["noc.enqueue_packet"], "count"),
            "noc.enqueue_batch_calls": (calls["noc.enqueue_batch"], "count"),
            "traffic.draw_s": (s["traffic.draw"], "s"),
            "attacks.draw_s": (s["attacks.draw"], "s"),
            "sim.step_self_s": (s["sim.step"], "s"),
            "monitor.sample_self_s": (s["monitor.sample"], "s"),
            "faults.plane_calls": (calls["faults.plane_calls"], "count"),
            "faults.data_fault_calls": (calls["faults.data_fault_calls"], "count"),
            "defense.on_sample_self_s": (s["defense.on_sample"], "s"),
            "defense.decision_ms.p50": (percentile_ms(durations["defense.on_sample"], 5), "ms"),
            "defense.decision_ms.p90": (percentile_ms(durations["defense.on_sample"], 9), "ms"),
            "defense.windows": (calls["defense.on_sample"], "count"),
            "defense.sanitize_s": (s["defense.sanitize"], "s"),
            "defense.evidence_s": (s["defense.evidence"], "s"),
            "core.process_sample_self_s": (s["core.process_sample"], "s"),
            "core.detect_s": (s["core.detect"], "s"),
            "core.segment_s": (s["core.segment"], "s"),
            "core.fusion_s": (s["core.fusion"], "s"),
            "core.tlm_s": (s["core.tlm"], "s"),
            "core.forced_localizations": (calls["core.forced_localizations"], "count"),
            "core.fit_s": (setup_self.get("core.fit", 0.0), "s"),
            "runtime.build_runs_s": (setup_self.get("runtime.build_runs", 0.0), "s"),
            "noc.step_batched_s": (setup_self.get("noc.step_batched", 0.0), "s"),
            "experiments.guarded_episode_s.p50": (
                statistics.median(durations["experiments.guarded_episode"]),
                "s",
            ),
            "experiments.comparators_s": (sum(comparators), "s"),
            "experiments.episodes_self_s": (
                s["experiments.guarded_episode"]
                + s["experiments.unmitigated"]
                + s["experiments.baseline"],
                "s",
            ),
            "runtime.cache_fetch_s": (s["runtime.cache_fetch"], "s"),
            "runtime.cache_store_s": (s["runtime.cache_store"], "s"),
            "runtime.cache_hits": (stats.hits, "count"),
            "runtime.cache_misses": (stats.misses, "count"),
            "unattributed_s": (wall - attributed, "s"),
            "trace.coverage": (coverage, "fraction"),
            "trace.overhead_s": (wall - plain_wall, "s"),
        }
        for name, value in self.lib.outcome_metrics(points, self.config).items():
            metrics[f"outcome.{name}"] = (value, self.lib.OUTCOME_UNITS[name])
        print(f"traced wall_s={wall:.3f} untraced wall_s={plain_wall:.3f} coverage={coverage:.4f}")
        return metrics, ok


def main(argv=None) -> int:
    args = parse_args(argv)
    knobs = sorted(name for name, value in os.environ.items() if name.startswith(KNOB_PREFIX) and value)
    if knobs:
        return fail(f"refusing to run with workload knobs set: {', '.join(knobs)}")
    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        return fail(f"no repro sources under {root / 'src'}; run from a checkout root")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    # Single-threaded BLAS: set before NumPy loads, so every run uses one core
    # for the CNNs whatever the host size.
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    sys.path.insert(0, str(root / "src"))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        run = Run(workload, args.seed, work)
        run.report_environment()
        if args.trace:
            measured, ok = run.per_layer()
        else:
            measured, ok = run.end_to_end(args.seconds), True
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    print(f"fingerprint {' '.join(sorted(run.fingerprints)) or 'none'}")
    result = {
        "correct": ok and run.failed == 0 and run.attempted > 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in measured.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
