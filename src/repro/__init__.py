"""DL2Fence reproduction library.

A production-quality, pure-Python reproduction of *DL2Fence: Integrating Deep
Learning and Frame Fusion for Enhanced Detection and Localization of Refined
Denial-of-Service in Large-Scale NoCs* (DAC 2024), including every substrate
the paper's evaluation depends on:

* :mod:`repro.noc` — a Garnet-like cycle-driven 2-D mesh NoC simulator;
* :mod:`repro.traffic` — synthetic traffic patterns, PARSEC-like workloads
  and the refined FIR-adjustable Flooding-DoS threat model;
* :mod:`repro.monitor` — VCO/BOC feature-frame extraction and dataset
  generation;
* :mod:`repro.nn` — a NumPy deep-learning framework for the two CNNs;
* :mod:`repro.core` — the DL2Fence detector, localizer, Multi-Frame Fusion,
  Victim Completing Enhancement and Table-Like Method;
* :mod:`repro.defense` — the closed-loop runtime guard that throttles or
  quarantines localized attackers and measures recovery;
* :mod:`repro.baselines` — comparator detectors (perceptron, SVM, gradient
  boosting, threshold);
* :mod:`repro.hardware` — the analytical hardware-overhead model;
* :mod:`repro.experiments` — drivers that regenerate every table and figure
  of the paper's evaluation.

Quickstart::

    from repro import DL2Fence, DL2FenceConfig, DatasetBuilder, DatasetConfig

    builder = DatasetBuilder(DatasetConfig(rows=8))
    runs = builder.build_runs(benchmarks=["uniform_random"], scenarios_per_benchmark=1)
    fence = DL2Fence(builder.topology, DL2FenceConfig.paper_default())
    fence.fit_from_runs(builder, runs)
    report = fence.evaluate_detection(builder.detection_dataset(runs))
"""

from repro.core import (
    DL2Fence,
    DL2FenceConfig,
    DoSDetector,
    DoSProfileLocalizer,
    LocalizationResult,
    TableLikeMethod,
)
from repro.defense import DL2FenceGuard, DefenseReport, MitigationPolicy
from repro.monitor import (
    DatasetBuilder,
    DatasetConfig,
    FeatureKind,
    GlobalPerformanceMonitor,
    MonitorConfig,
)
from repro.noc import Direction, MeshTopology, NoCSimulator, SimulationConfig
from repro.traffic import (
    AttackScenario,
    MultiAttackScenario,
    ScenarioGenerator,
    make_parsec_workload,
    make_synthetic_traffic,
)

__version__ = "1.0.0"

__all__ = [
    "AttackScenario",
    "MultiAttackScenario",
    "DL2Fence",
    "DL2FenceConfig",
    "DL2FenceGuard",
    "DatasetBuilder",
    "DatasetConfig",
    "DefenseReport",
    "Direction",
    "MitigationPolicy",
    "DoSDetector",
    "DoSProfileLocalizer",
    "FeatureKind",
    "GlobalPerformanceMonitor",
    "LocalizationResult",
    "MeshTopology",
    "MonitorConfig",
    "NoCSimulator",
    "ScenarioGenerator",
    "SimulationConfig",
    "TableLikeMethod",
    "make_parsec_workload",
    "make_synthetic_traffic",
    "__version__",
]
