"""Experiment harness: drivers that regenerate the paper's tables and figures.

Every table and figure of the evaluation section has a driver here; the
``benchmarks/`` directory wraps these drivers in pytest-benchmark entries and
``EXPERIMENTS.md`` records the measured outputs next to the paper's values.

* Figure 1 — :mod:`repro.experiments.latency_sweep`
* Tables 1-3 — :mod:`repro.experiments.detection`
* Figure 4 — :mod:`repro.experiments.localization_examples`
* Figure 5 — :mod:`repro.experiments.overhead_sweep`
* Table 4 — :mod:`repro.experiments.comparison`
* Closed-loop mitigation, Fig. 6 (beyond the paper) —
  :mod:`repro.experiments.mitigation`
* Refined-DoS robustness and chaos matrices (beyond the paper) —
  :mod:`repro.experiments.robustness`

Every closed-loop driver is a generator of :class:`EpisodeSpec` run by the
one cached, parallel episode harness :func:`run_episodes`.
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.detection import (
    BenchmarkResult,
    FeatureExperimentResult,
    run_feature_experiment,
)
from repro.experiments.latency_sweep import LatencyPoint, run_latency_sweep
from repro.experiments.mitigation import (
    MitigationPoint,
    default_multi_scenario,
    run_mitigation_sweep,
)
from repro.experiments.localization_examples import (
    LocalizationExample,
    run_localization_examples,
)
from repro.experiments.overhead_sweep import run_overhead_sweep
from repro.experiments.comparison import ComparisonRow, run_comparison
from repro.experiments.robustness import (
    ChaosPoint,
    EpisodeSpec,
    RobustnessPoint,
    baseline_benign_latency,
    run_attack_episode,
    run_chaos_matrix,
    run_episodes,
    run_robustness_matrix,
    train_defense_pipeline,
    unmitigated_attack_episode_latency,
)
from repro.experiments.tables import format_feature_table, format_rows

__all__ = [
    "BenchmarkResult",
    "ChaosPoint",
    "ComparisonRow",
    "EpisodeSpec",
    "ExperimentConfig",
    "FeatureExperimentResult",
    "LatencyPoint",
    "LocalizationExample",
    "MitigationPoint",
    "RobustnessPoint",
    "format_feature_table",
    "format_rows",
    "baseline_benign_latency",
    "run_attack_episode",
    "run_chaos_matrix",
    "run_episodes",
    "run_robustness_matrix",
    "run_comparison",
    "run_feature_experiment",
    "run_latency_sweep",
    "run_localization_examples",
    "default_multi_scenario",
    "run_mitigation_sweep",
    "run_overhead_sweep",
    "train_defense_pipeline",
    "unmitigated_attack_episode_latency",
]
