"""The benchmark's workloads: the user-facing matrix drivers, set up cold.

Each workload is one call of :func:`run_robustness_matrix` or
:func:`run_chaos_matrix` on a serial engine.  Set-up trains the defense
pipeline into an empty artifact cache; each timed driver call then starts
from a copy of that cache, so it finds the trained pipeline and simulates
every episode.

The ``--seed`` of a run picks the training seed (``ExperimentConfig.seed``:
training curriculum and model init) from the workload's pool.  The pools
hold the training seeds whose pipeline contains every attack variant of
the workload with zero collateral, so every seed runs the same kind of
episodes; ``reference.json`` holds the expected rows of every pool seed.
Seed 0 maps to the library default (7).
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass
from pathlib import Path

from repro.experiments.config import ExperimentConfig
from repro.experiments.mitigation import EpisodeShape, train_defense_pipeline
from repro.experiments.robustness import (
    DEFAULT_ATTACK_WINDOWS,
    run_chaos_matrix,
    run_robustness_matrix,
)
from repro.monitor.dataset import DatasetBuilder
from repro.runtime.cache import ArtifactCache
from repro.runtime.engine import ExperimentEngine
from repro.runtime.parallel import ParallelRunner

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Pre-attack / post-attack windows of every matrix episode (driver defaults).
PRE_WINDOWS = POST_WINDOWS = 4

CHAOS_SCENARIOS = ("dropout_silent", "link_faults")


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    chaos: bool
    #: Training seeds a run's ``--seed`` maps onto (index ``seed % len``).
    pool: tuple[int, ...]

    @property
    def rows_per_call(self) -> int:
        """Rows one driver call returns: 5 variants, x2 fault scenarios."""
        return 10 if self.chaos else 5

    def training_seed(self, seed: int) -> int:
        return self.pool[seed % len(self.pool)]

    def config(self, seed: int) -> ExperimentConfig:
        return ExperimentConfig.for_mesh(self.rows, seed=self.training_seed(seed))

    def setup(self, config: ExperimentConfig, engine: ExperimentEngine) -> None:
        """Cold training of the pipeline the driver call will fetch."""
        train_defense_pipeline(config, engine=engine)

    def run(self, config: ExperimentConfig, engine: ExperimentEngine) -> list:
        """One call of the user-facing matrix driver."""
        if self.chaos:
            return run_chaos_matrix(
                rows_values=(self.rows,),
                fault_scenarios=CHAOS_SCENARIOS,
                config=config,
                engine=engine,
            )
        return run_robustness_matrix(
            rows_values=(self.rows,), config=config, engine=engine
        )

    def cycles(self, config: ExperimentConfig) -> int:
        """Simulated cycles one driver call advances (fixed per workload).

        The matrix runs 5 guarded episodes, 5 unmitigated comparators and
        one no-attack baseline; the chaos matrix runs 10 guarded episodes
        (5 variants x 2 fault scenarios) and the baseline.  All of them
        share one episode shape.
        """
        shape = EpisodeShape.from_windows(
            DatasetBuilder(config.dataset_config()),
            PRE_WINDOWS,
            DEFAULT_ATTACK_WINDOWS,
            POST_WINDOWS,
        )
        return 11 * shape.total_cycles


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("matrix-16x16", rows=16, chaos=False, pool=(7, 2, 3, 4, 6, 8, 9, 11, 13)),
        Workload("chaos-8x8", rows=8, chaos=True, pool=(7, 2, 3, 6, 17, 18)),
    )
}


def make_engine(cache_dir: Path) -> ExperimentEngine:
    """Serial engine over an explicit, enabled, uncapped cache directory."""
    return ExperimentEngine(
        cache=ArtifactCache(root=cache_dir, enabled=True, max_bytes=None),
        runner=ParallelRunner(workers=1),
    )


def table_rows(points: list) -> list[dict]:
    """The driver's table rows, normalised through JSON like the reference."""
    return json.loads(json.dumps([point.as_dict() for point in points]))


def fingerprint(rows: list[dict]) -> str:
    canonical = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def load_reference() -> dict:
    if not REFERENCE_PATH.exists():
        return {}
    return json.loads(REFERENCE_PATH.read_text())


def row_differences(rows: list[dict], expected: list[dict]) -> list[str]:
    """Field-by-field differences, one line per differing field or row."""
    problems = []
    if len(rows) != len(expected):
        problems.append(f"{len(rows)} rows, expected {len(expected)}")
    for index, (row, reference) in enumerate(zip(rows, expected)):
        for key in sorted(set(row) | set(reference)):
            got = json.dumps(row.get(key))
            want = json.dumps(reference.get(key))
            if got != want:
                problems.append(f"row {index} {key}: {got} != {want}")
    return problems


#: Unit of each simulated outcome (simulated cycles, not host time).
OUTCOME_UNITS = {
    "detection_latency_cycles": "cycles",
    "containment_cycles": "cycles",
    "collateral_node_windows": "count",
    "recovery_ratio": "ratio",
}


def outcome_metrics(points: list, config: ExperimentConfig) -> dict[str, float]:
    """Simulated outcomes of one driver call (see ``OUTCOME_UNITS``).

    An undetected or uncontained row counts as the full attack span.  The
    recovery ratio (mitigated / no-attack benign latency) is averaged over
    the rows where it is defined.
    """
    span = DEFAULT_ATTACK_WINDOWS * config.sample_period

    def cycles(value):
        return span if value is None else value

    ratios = [p.recovery_ratio for p in points if p.recovery_ratio == p.recovery_ratio]
    return {
        "detection_latency_cycles": statistics.fmean(
            cycles(p.detection_latency) for p in points
        ),
        "containment_cycles": statistics.fmean(
            cycles(p.time_to_full_containment) for p in points
        ),
        "collateral_node_windows": sum(p.collateral_node_windows for p in points),
        "recovery_ratio": statistics.fmean(ratios) if ratios else 0.0,
    }
