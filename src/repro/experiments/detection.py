"""Tables 1-3: detection and localization per benchmark and feature set.

The paper reports, for every benchmark (6 synthetic traffic patterns and 3
PARSEC workloads), the frame-level detection metrics and the node-level
localization metrics of DL2Fence under three feature assignments:

* Table 1 — VCO for both detection and localization;
* Table 2 — BOC for both;
* Table 3 — the chosen configuration: VCO detection, BOC localization.

:func:`run_feature_experiment` reproduces one such table: it simulates
training and evaluation runs with disjoint seeds, trains the two CNNs on the
training runs, and evaluates per benchmark on the evaluation runs.

All expensive stages route through the
:class:`~repro.runtime.engine.ExperimentEngine`: scenario runs are simulated
in parallel and cached on disk (they are shared verbatim between Tables 1, 2
and 3 — the monitor captures both VCO and BOC frames in one pass), trained
pipelines are cached per feature assignment, and the finished table is
memoised as a record artifact so a re-run at the same scale is pure I/O.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import DL2FenceConfig
from repro.experiments.config import ExperimentConfig
from repro.monitor.dataset import DatasetBuilder, ScenarioRun
from repro.monitor.features import FeatureKind
from repro.nn.dtype import default_dtype
from repro.nn.metrics import ClassificationReport
from repro.runtime.engine import ExperimentEngine
from repro.traffic.scenario import benchmark_names
from repro.traffic.synthetic import SYNTHETIC_PATTERNS

__all__ = ["BenchmarkResult", "FeatureExperimentResult", "run_feature_experiment"]


def _report_to_json(report: ClassificationReport | None) -> dict | None:
    if report is None:
        return None
    return {
        "accuracy": report.accuracy,
        "precision": report.precision,
        "recall": report.recall,
        "f1": report.f1,
        "support": report.support,
        "extras": dict(report.extras),
    }


def _report_from_json(data: dict | None) -> ClassificationReport | None:
    if data is None:
        return None
    return ClassificationReport(
        accuracy=float(data["accuracy"]),
        precision=float(data["precision"]),
        recall=float(data["recall"]),
        f1=float(data["f1"]),
        support=int(data["support"]),
        extras=dict(data.get("extras", {})),
    )


@dataclass
class BenchmarkResult:
    """Detection + localization metrics for one benchmark."""

    benchmark: str
    detection: ClassificationReport
    localization: ClassificationReport | None

    @property
    def is_synthetic(self) -> bool:
        return self.benchmark in SYNTHETIC_PATTERNS


def _average_reports(reports: list[ClassificationReport]) -> ClassificationReport:
    """Unweighted average of several reports (how the paper averages columns)."""
    if not reports:
        raise ValueError("cannot average an empty list of reports")
    return ClassificationReport(
        accuracy=float(np.mean([r.accuracy for r in reports])),
        precision=float(np.mean([r.precision for r in reports])),
        recall=float(np.mean([r.recall for r in reports])),
        f1=float(np.mean([r.f1 for r in reports])),
        support=int(sum(r.support for r in reports)),
    )


@dataclass
class FeatureExperimentResult:
    """Everything produced by one table run (Table 1, 2 or 3)."""

    detection_feature: FeatureKind
    localization_feature: FeatureKind
    per_benchmark: list[BenchmarkResult] = field(default_factory=list)

    def result_for(self, benchmark: str) -> BenchmarkResult:
        for result in self.per_benchmark:
            if result.benchmark == benchmark:
                return result
        raise KeyError(f"no result for benchmark {benchmark!r}")

    def _group(self, synthetic: bool) -> list[BenchmarkResult]:
        return [r for r in self.per_benchmark if r.is_synthetic == synthetic]

    def average_detection(self, synthetic: bool | None = None) -> ClassificationReport:
        """Average detection metrics (optionally only STP or only PARSEC)."""
        results = (
            self.per_benchmark if synthetic is None else self._group(synthetic)
        )
        return _average_reports([r.detection for r in results])

    def average_localization(self, synthetic: bool | None = None) -> ClassificationReport:
        """Average localization metrics (optionally only STP or only PARSEC)."""
        results = (
            self.per_benchmark if synthetic is None else self._group(synthetic)
        )
        reports = [r.localization for r in results if r.localization is not None]
        return _average_reports(reports)


def _runs_by_benchmark(runs: list[ScenarioRun]) -> dict[str, list[ScenarioRun]]:
    grouped: dict[str, list[ScenarioRun]] = {}
    for run in runs:
        grouped.setdefault(run.benchmark, []).append(run)
    return grouped


def run_feature_experiment(
    detection_feature: FeatureKind = FeatureKind.VCO,
    localization_feature: FeatureKind = FeatureKind.BOC,
    benchmarks: list[str] | None = None,
    config: ExperimentConfig | None = None,
    enable_vce: bool = False,
    engine: ExperimentEngine | None = None,
) -> FeatureExperimentResult:
    """Train DL2Fence on one feature assignment and evaluate per benchmark."""
    config = config or ExperimentConfig()
    engine = engine or ExperimentEngine()
    if benchmarks is None:
        benchmarks = benchmark_names()

    fence_config = DL2FenceConfig(seed=config.seed, enable_vce=enable_vce).with_features(
        detection_feature, localization_feature
    )

    table_payload = {
        "experiment": config,
        "fence": fence_config,
        "benchmarks": list(benchmarks),
        "dtype": default_dtype(),
    }
    records = engine.cached_records(
        "feature-experiment",
        table_payload,
        lambda: _compute_feature_records(
            benchmarks, config, fence_config, engine
        ),
    )
    result = FeatureExperimentResult(
        detection_feature=detection_feature,
        localization_feature=localization_feature,
    )
    for record in records:
        result.per_benchmark.append(
            BenchmarkResult(
                benchmark=record["benchmark"],
                detection=_report_from_json(record["detection"]),
                localization=_report_from_json(record["localization"]),
            )
        )
    return result


def _compute_feature_records(
    benchmarks: list[str],
    config: ExperimentConfig,
    fence_config: DL2FenceConfig,
    engine: ExperimentEngine,
) -> list[dict]:
    """One table's per-benchmark reports (cache-miss path of the table)."""
    eval_builder = DatasetBuilder(config.dataset_config(seed_offset=1000))
    fence, _ = engine.trained_fence(
        config.dataset_config(seed_offset=0),
        fence_config,
        benchmarks=benchmarks,
        scenarios_per_benchmark=config.scenarios_per_benchmark,
        seed=config.seed,
        detector_epochs=config.detector_epochs,
        localizer_epochs=config.localizer_epochs,
    )
    eval_runs = engine.build_runs(
        config.dataset_config(seed_offset=1000),
        benchmarks=benchmarks,
        scenarios_per_benchmark=config.scenarios_per_benchmark,
        seed=config.seed + 5000,
    )

    records: list[dict] = []
    eval_by_benchmark = _runs_by_benchmark(eval_runs)
    for benchmark in benchmarks:
        runs = eval_by_benchmark.get(benchmark, [])
        if not runs:
            continue
        detection_dataset = eval_builder.detection_dataset(
            runs,
            feature=fence_config.detection_feature,
            normalize=fence_config.detection_normalization,
        )
        detection_report = fence.evaluate_detection(detection_dataset)
        attacked = [run for run in runs if run.is_attack]
        localization_report = (
            fence.evaluate_localization(attacked) if attacked else None
        )
        records.append(
            {
                "benchmark": benchmark,
                "detection": _report_to_json(detection_report),
                "localization": _report_to_json(localization_report),
            }
        )
    return records
