"""Dataset generation across benchmarks and attack scenarios.

The paper collects its training/evaluation data by simulating 18 attack
scenarios at FIR 0.8 over 6 synthetic + 3 PARSEC benchmarks and extracting
directional VCO/BOC feature frames with the global performance monitor.  The
:class:`DatasetBuilder` reproduces that flow end to end:

1. for every benchmark, run a benign simulation and one or more attacked
   simulations (1- and 2-attacker scenarios);
2. sample frames periodically with :class:`GlobalPerformanceMonitor`;
3. assemble a frame-level **detection dataset** (four-direction stacks with a
   binary attack label) and a per-direction **localization dataset**
   (directional frames with segmentation ground-truth masks).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.monitor.features import FeatureKind, normalize_frame
from repro.monitor.frames import FrameSample, to_canonical
from repro.monitor.labeling import attack_direction_masks
from repro.monitor.sampler import GlobalPerformanceMonitor, MonitorConfig
from repro.noc.simulator import NoCSimulator, SimulationConfig
from repro.noc.topology import Direction, MeshTopology
from repro.traffic.parsec import PARSEC_WORKLOADS, make_parsec_workload
from repro.traffic.scenario import AttackScenario, ScenarioGenerator, benchmark_names
from repro.traffic.synthetic import SYNTHETIC_PATTERNS, make_synthetic_traffic

__all__ = [
    "DatasetConfig",
    "ScenarioRun",
    "DetectionDataset",
    "LocalizationDataset",
    "DatasetBuilder",
]


@dataclass(frozen=True)
class DatasetConfig:
    """Parameters of the dataset-generation pipeline.

    The defaults are scaled down from the paper's 16x16 / 1000-cycle setup so
    dataset generation completes quickly inside tests; the benchmark harness
    raises them via its own configuration.
    """

    rows: int = 8
    benign_injection_rate: float = 0.02
    fir: float = 0.8
    sample_period: int = 192
    samples_per_run: int = 6
    warmup_cycles: int = 64
    packet_size_flits: int = 4
    num_vcs: int = 4
    vc_depth: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rows < 3:
            raise ValueError("rows must be >= 3 for meaningful frames")
        if self.samples_per_run < 1:
            raise ValueError("samples_per_run must be >= 1")
        if not 0.0 <= self.fir <= 1.0:
            raise ValueError("fir must be in [0, 1]")

    def simulation_config(self) -> SimulationConfig:
        return SimulationConfig(
            rows=self.rows,
            num_vcs=self.num_vcs,
            vc_depth=self.vc_depth,
            warmup_cycles=self.warmup_cycles,
            seed=self.seed,
        )

    def topology(self) -> MeshTopology:
        return MeshTopology(rows=self.rows)

    @property
    def run_cycles(self) -> int:
        """Simulated cycles per run: warmup plus all sampling windows."""
        return self.warmup_cycles + self.sample_period * self.samples_per_run + 1


@dataclass
class ScenarioRun:
    """The monitor output of one simulated run (benign or attacked)."""

    benchmark: str
    scenario: AttackScenario | None
    samples: list[FrameSample]
    topology: MeshTopology

    @property
    def is_attack(self) -> bool:
        return self.scenario is not None

    @property
    def num_samples(self) -> int:
        return len(self.samples)


@dataclass
class DetectionDataset:
    """Frame-level classification dataset: (N, H, W, 4) inputs, (N, 1) labels."""

    inputs: np.ndarray
    labels: np.ndarray
    benchmarks: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise ValueError("inputs and labels must align")

    @property
    def num_samples(self) -> int:
        return int(self.inputs.shape[0])

    @property
    def positive_fraction(self) -> float:
        """Fraction of samples captured during an active attack."""
        if self.labels.size == 0:
            return 0.0
        return float(self.labels.mean())

    def subset(self, indices: np.ndarray) -> "DetectionDataset":
        """Select a subset of samples by index."""
        benchmarks = [self.benchmarks[i] for i in indices] if self.benchmarks else []
        return DetectionDataset(self.inputs[indices], self.labels[indices], benchmarks)


@dataclass
class LocalizationDataset:
    """Per-direction segmentation dataset: (M, H, W, 1) inputs and masks."""

    inputs: np.ndarray
    masks: np.ndarray
    directions: list[Direction] = field(default_factory=list)
    benchmarks: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.inputs.shape[0] != self.masks.shape[0]:
            raise ValueError("inputs and masks must align")

    @property
    def num_samples(self) -> int:
        return int(self.inputs.shape[0])

    def subset(self, indices: np.ndarray) -> "LocalizationDataset":
        """Select a subset of samples by index."""
        directions = [self.directions[i] for i in indices] if self.directions else []
        benchmarks = [self.benchmarks[i] for i in indices] if self.benchmarks else []
        return LocalizationDataset(
            self.inputs[indices], self.masks[indices], directions, benchmarks
        )


class DatasetBuilder:
    """Runs simulations and assembles DL2Fence training/evaluation datasets."""

    def __init__(self, config: DatasetConfig | None = None) -> None:
        self.config = config or DatasetConfig()
        self.topology = self.config.topology()

    # -- workloads -------------------------------------------------------------
    def make_workload(self, benchmark: str, seed: int | None = None):
        """Instantiate the benign traffic source for a benchmark name."""
        seed = self.config.seed if seed is None else seed
        key = benchmark.lower()
        if key in SYNTHETIC_PATTERNS:
            return make_synthetic_traffic(
                key,
                self.topology,
                injection_rate=self.config.benign_injection_rate,
                packet_size_flits=self.config.packet_size_flits,
                seed=seed,
            )
        if key in PARSEC_WORKLOADS:
            return make_parsec_workload(
                key,
                self.topology,
                total_cycles=self.config.run_cycles,
                packet_size_flits=self.config.packet_size_flits,
                seed=seed,
            )
        raise KeyError(f"unknown benchmark {benchmark!r}")

    # -- simulation -------------------------------------------------------------
    def run_benchmark(
        self,
        benchmark: str,
        scenario: AttackScenario | None = None,
        seed: int | None = None,
    ) -> ScenarioRun:
        """Simulate one benchmark, optionally overlaid with a flooding attack."""
        seed = self.config.seed if seed is None else seed
        simulator = NoCSimulator(self.config.simulation_config())
        simulator.add_source(self.make_workload(benchmark, seed=seed))
        if scenario is not None:
            attacker = scenario.build_source(
                self.topology,
                seed=seed + 1,
                packet_size_flits=self.config.packet_size_flits,
            )
            simulator.add_source(attacker)
        monitor = GlobalPerformanceMonitor(
            MonitorConfig(sample_period=self.config.sample_period)
        ).attach(simulator)
        simulator.run(self.config.run_cycles)
        samples = monitor.samples[: self.config.samples_per_run]
        return ScenarioRun(
            benchmark=benchmark,
            scenario=scenario,
            samples=samples,
            topology=self.topology,
        )

    def build_runs(
        self,
        benchmarks: list[str] | None = None,
        scenarios_per_benchmark: int = 1,
        attacker_counts: tuple[int, ...] = (1, 2),
        include_benign: bool = True,
        seed: int | None = None,
    ) -> list[ScenarioRun]:
        """Simulate benign and attacked runs for every benchmark."""
        seed = self.config.seed if seed is None else seed
        if benchmarks is None:
            benchmarks = benchmark_names()
        generator = ScenarioGenerator(self.topology, seed=seed)
        runs: list[ScenarioRun] = []
        for b_index, benchmark in enumerate(benchmarks):
            run_seed = seed + 101 * (b_index + 1)
            if include_benign:
                runs.append(self.run_benchmark(benchmark, scenario=None, seed=run_seed))
            for s_index in range(scenarios_per_benchmark):
                count = attacker_counts[s_index % len(attacker_counts)]
                scenario = generator.random_scenario(
                    num_attackers=count, fir=self.config.fir, benchmark=benchmark
                )
                runs.append(
                    self.run_benchmark(
                        benchmark, scenario=scenario, seed=run_seed + s_index + 1
                    )
                )
        return runs

    # -- dataset assembly ---------------------------------------------------------
    def detection_dataset(
        self,
        runs: list[ScenarioRun],
        feature: FeatureKind = FeatureKind.VCO,
        normalize: str | None = None,
    ) -> DetectionDataset:
        """Stack four-direction frames into the detector's training data.

        ``normalize`` defaults to ``"none"`` for VCO (the paper feeds raw VCO
        to the detector) and ``"max"`` for BOC.
        """
        if normalize is None:
            normalize = "none" if feature is FeatureKind.VCO else "max"
        inputs = []
        labels = []
        benchmarks = []
        for run in runs:
            for sample in run.samples:
                frame_set = sample.feature(feature)
                inputs.append(frame_set.as_detector_input(normalize=normalize))
                labels.append([1.0 if sample.attack_active else 0.0])
                benchmarks.append(run.benchmark)
        if not inputs:
            raise ValueError("no samples available to build a detection dataset")
        return DetectionDataset(
            inputs=np.stack(inputs, axis=0),
            labels=np.asarray(labels, dtype=np.float64),
            benchmarks=benchmarks,
        )

    def localization_dataset(
        self,
        runs: list[ScenarioRun],
        feature: FeatureKind = FeatureKind.BOC,
        normalize: str | None = None,
        include_normal_fraction: float = 0.25,
        seed: int | None = None,
    ) -> LocalizationDataset:
        """Per-direction segmentation dataset from attacked runs.

        Each sample is one directional frame (canonical orientation, single
        channel) paired with the binary mask of routers whose input port of
        that direction carries attack traffic.  Directions that carry no
        attack traffic are included with all-zero masks at a configurable
        fraction so the model also learns to stay silent on clean frames.
        """
        if normalize is None:
            normalize = "max" if feature is FeatureKind.BOC else "none"
        if not 0.0 <= include_normal_fraction <= 1.0:
            raise ValueError("include_normal_fraction must be in [0, 1]")
        rng = np.random.default_rng(self.config.seed if seed is None else seed)
        inputs = []
        masks = []
        directions = []
        benchmarks = []
        for run in runs:
            if run.scenario is None:
                continue
            truth = attack_direction_masks(run.topology, run.scenario)
            for sample in run.samples:
                if not sample.attack_active:
                    continue
                frame_set = sample.feature(feature)
                for direction in Direction.cardinal():
                    mask = truth[direction]
                    is_abnormal = bool(mask.any())
                    if not is_abnormal and rng.random() > include_normal_fraction:
                        continue
                    values = frame_set[direction].values
                    if normalize != "none":
                        values = normalize_frame(values, method=normalize)
                    inputs.append(to_canonical(values, direction)[..., None])
                    masks.append(to_canonical(mask, direction)[..., None])
                    directions.append(direction)
                    benchmarks.append(run.benchmark)
        if not inputs:
            raise ValueError("no attacked samples available for localization dataset")
        return LocalizationDataset(
            inputs=np.stack(inputs, axis=0),
            masks=np.stack(masks, axis=0),
            directions=directions,
            benchmarks=benchmarks,
        )
