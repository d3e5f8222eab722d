"""Table 4: comparison of DL2Fence against related-work detectors.

Two kinds of rows are produced:

* **published** rows quoting the numbers the paper itself cites for the
  comparator schemes (and for DL2Fence at 16x16);
* **measured** rows obtained by training the reimplemented baselines
  (perceptron / SVM / gradient boosting / threshold) and the DL2Fence
  detector on identical frame datasets generated by this reproduction, so
  the model comparison is apples-to-apples on our simulator.

Hardware overhead for the measured rows comes from :mod:`repro.hardware`:
DL2Fence and the global baselines are single-instance costs, while the
distributed schemes replicate their model in every router.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines import (
    BaselineDetector,
    GradientBoostingDetector,
    LinearSVMDetector,
    PerceptronDetector,
    ThresholdDetector,
)
from repro.core.config import DL2FenceConfig
from repro.experiments.config import ExperimentConfig
from repro.hardware.overhead import dl2fence_overhead
from repro.hardware.related_works import RELATED_WORKS, comparison_table
from repro.monitor.dataset import DatasetBuilder
from repro.monitor.features import FeatureKind
from repro.nn.metrics import ClassificationReport
from repro.runtime.engine import ExperimentEngine
from repro.traffic.scenario import benchmark_names

__all__ = ["ComparisonRow", "run_comparison"]


@dataclass
class ComparisonRow:
    """One measured row of the comparison table."""

    name: str
    model: str
    report: ClassificationReport
    num_parameters: int
    overhead_percent: float | None = None

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "model": self.model,
            "accuracy": self.report.accuracy,
            "precision": self.report.precision,
            "recall": self.report.recall,
            "f1": self.report.f1,
            "parameters": self.num_parameters,
            "overhead_%": self.overhead_percent,
        }


def _baseline_suite(seed: int) -> list[BaselineDetector]:
    return [
        PerceptronDetector(seed=seed),
        LinearSVMDetector(seed=seed),
        GradientBoostingDetector(seed=seed),
        ThresholdDetector(),
    ]


def run_comparison(
    config: ExperimentConfig | None = None,
    benchmarks: list[str] | None = None,
    feature: FeatureKind = FeatureKind.VCO,
    engine: ExperimentEngine | None = None,
) -> dict:
    """Train all detectors on identical data and assemble the comparison.

    Returns a dict with ``published`` (the rows quoted from the literature)
    and ``measured`` (a :class:`ComparisonRow` per reimplemented detector).
    Scenario runs and the DL2Fence detector come from the experiment
    engine's artifact cache; the runs are shared with the Table-1/2/3
    drivers at the same scale.
    """
    config = config or ExperimentConfig()
    engine = engine or ExperimentEngine()
    if benchmarks is None:
        benchmarks = benchmark_names(include_parsec=False)

    train_builder = DatasetBuilder(config.dataset_config(seed_offset=0))
    eval_builder = DatasetBuilder(config.dataset_config(seed_offset=1000))
    train_runs = engine.build_runs(
        config.dataset_config(seed_offset=0),
        benchmarks=benchmarks,
        scenarios_per_benchmark=config.scenarios_per_benchmark,
        seed=config.seed,
    )
    eval_runs = engine.build_runs(
        config.dataset_config(seed_offset=1000),
        benchmarks=benchmarks,
        scenarios_per_benchmark=config.scenarios_per_benchmark,
        seed=config.seed + 5000,
    )
    train_set = train_builder.detection_dataset(train_runs, feature=feature)
    eval_set = eval_builder.detection_dataset(eval_runs, feature=feature)

    measured: list[ComparisonRow] = []

    fence_config = DL2FenceConfig(seed=config.seed)
    detector = engine.trained_detector(
        config.dataset_config(seed_offset=0),
        fence_config,
        benchmarks=benchmarks,
        scenarios_per_benchmark=config.scenarios_per_benchmark,
        seed=config.seed,
        feature=feature,
        epochs=config.detector_epochs,
        runs=train_runs,
    )
    overhead = dl2fence_overhead(config.rows, config=fence_config)
    measured.append(
        ComparisonRow(
            name="dl2fence (this reproduction)",
            model="CNN classifier + segmentor",
            report=detector.evaluate(eval_set),
            num_parameters=detector.num_parameters,
            overhead_percent=overhead.overhead_percent,
        )
    )

    sniffer_overhead = RELATED_WORKS["sniffer"].hardware_overhead_percent
    svm_overhead = RELATED_WORKS["svm_anomaly"].hardware_overhead_percent
    distributed_overheads = {
        "perceptron": sniffer_overhead,
        "svm": svm_overhead,
        "gradient_boosting": None,
        "threshold": None,
    }
    for baseline in _baseline_suite(config.seed):
        baseline.fit(train_set.inputs, train_set.labels)
        measured.append(
            ComparisonRow(
                name=baseline.name,
                model=type(baseline).__name__,
                report=baseline.evaluate(eval_set.inputs, eval_set.labels),
                num_parameters=baseline.num_parameters,
                overhead_percent=distributed_overheads.get(baseline.name),
            )
        )

    return {
        "published": comparison_table(),
        "measured": measured,
        "feature": feature,
        "rows": config.rows,
    }
