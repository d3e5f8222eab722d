"""Unit tests for dataset generation."""

import numpy as np
import pytest

from repro.monitor.dataset import DatasetBuilder, DatasetConfig
from repro.noc import shared_draws
from repro.monitor.features import FeatureKind
from repro.noc.topology import Direction
from repro.traffic.scenario import AttackScenario


class TestDatasetConfig:
    def test_defaults_valid(self):
        config = DatasetConfig()
        assert config.run_cycles > config.warmup_cycles

    def test_invalid(self):
        with pytest.raises(ValueError):
            DatasetConfig(rows=2)
        with pytest.raises(ValueError):
            DatasetConfig(samples_per_run=0)
        with pytest.raises(ValueError):
            DatasetConfig(fir=1.2)


class TestWorkloadFactory:
    def test_synthetic_and_parsec(self, small_builder):
        assert small_builder.make_workload("tornado").name == "tornado"
        assert small_builder.make_workload("x264").name == "x264"

    def test_unknown_benchmark(self, small_builder):
        with pytest.raises(KeyError):
            small_builder.make_workload("not_a_benchmark")


class RecordingLane:
    def __init__(self):
        self.sources = []

    def add_source(self, source):
        self.sources.append(source)


class TestAddSources:
    """The one place an episode's workload and attack flows meet a lane."""

    ATTACKS = (
        AttackScenario(attackers=(28,), victim=7, fir=0.8),
        AttackScenario(attackers=(33,), victim=2, fir=0.5),
    )

    def test_workload_then_attacks_at_consecutive_seeds(self, small_builder):
        lane = RecordingLane()
        small_builder.add_sources(
            lane, "uniform_random", 40, self.ATTACKS, start_cycle=96, end_cycle=480
        )
        workload, *attacks = lane.sources
        assert workload.name == "uniform_random" and workload.seed == 40
        assert [source.seed for source in attacks] == [41, 42]
        assert [source.model for source in attacks] == list(self.ATTACKS)
        assert all(
            (source.start_cycle, source.end_cycle) == (96, 480) for source in attacks
        )

    def test_only_a_shared_workload_joins_the_open_scope(self, small_builder):
        token = shared_draws.scope_token()
        shared_draws.enter_scope(token)
        try:
            shared, plain = RecordingLane(), RecordingLane()
            small_builder.add_sources(shared, "uniform_random", 5, self.ATTACKS, shared=True)
            small_builder.add_sources(plain, "uniform_random", 5, self.ATTACKS)
            assert shared.sources[0]._replay is not None
            assert plain.sources[0]._replay is None
            assert len(shared_draws._SCOPE.records) == 1
        finally:
            shared_draws.close_scope(token)


class TestRuns:
    def test_run_benchmark_benign(self, small_builder, small_dataset_config):
        run = small_builder.run_benchmark("uniform_random")
        assert not run.is_attack
        assert run.num_samples == small_dataset_config.samples_per_run
        assert all(not s.attack_active for s in run.samples)

    def test_run_benchmark_attacked(self, small_builder, example_scenario):
        run = small_builder.run_benchmark("uniform_random", scenario=example_scenario)
        assert run.is_attack
        assert all(s.attack_active for s in run.samples)

    def test_build_runs_structure(self, small_runs, small_dataset_config):
        # 2 benchmarks x (1 benign + 2 attacked).
        assert len(small_runs) == 6
        attack_runs = [r for r in small_runs if r.is_attack]
        assert len(attack_runs) == 4
        attacker_counts = sorted(r.scenario.num_attackers for r in attack_runs)
        assert attacker_counts == [1, 1, 2, 2]

    def test_simulate_rejects_a_foreign_config(self, small_builder):
        (task,) = small_builder.plan_runs(
            benchmarks=["uniform_random"], scenarios_per_benchmark=0
        )
        other = DatasetBuilder(DatasetConfig(rows=small_builder.config.rows + 1))
        with pytest.raises(ValueError):
            other.simulate([task])


class TestDetectionDataset:
    def test_shapes_and_labels(self, small_builder, small_runs, small_dataset_config):
        dataset = small_builder.detection_dataset(small_runs)
        rows = small_dataset_config.rows
        assert dataset.inputs.shape[1:] == (rows, rows - 1, 4)
        assert dataset.labels.shape == (dataset.num_samples, 1)
        assert set(np.unique(dataset.labels)) <= {0.0, 1.0}
        assert 0.0 < dataset.labels.mean() < 1.0

    def test_benchmark_metadata(self, small_builder, small_runs):
        dataset = small_builder.detection_dataset(small_runs)
        assert len(dataset.benchmarks) == dataset.num_samples
        assert set(dataset.benchmarks) == {"uniform_random", "blackscholes"}

    def test_boc_feature_is_normalized(self, small_builder, small_runs):
        dataset = small_builder.detection_dataset(small_runs, feature=FeatureKind.BOC)
        assert dataset.inputs.max() <= 1.0

    def test_subset(self, small_builder, small_runs):
        dataset = small_builder.detection_dataset(small_runs)
        subset = dataset.subset(np.array([0, 1, 2]))
        assert subset.num_samples == 3

    def test_empty_runs_rejected(self, small_builder):
        with pytest.raises(ValueError):
            small_builder.detection_dataset([])


class TestLocalizationDataset:
    def test_shapes(self, small_builder, small_runs, small_dataset_config):
        dataset = small_builder.localization_dataset(small_runs)
        rows = small_dataset_config.rows
        assert dataset.inputs.shape[1:] == (rows, rows - 1, 1)
        assert dataset.masks.shape == dataset.inputs.shape
        assert set(np.unique(dataset.masks)) <= {0.0, 1.0}

    def test_masks_match_directions(self, small_builder, small_runs):
        dataset = small_builder.localization_dataset(small_runs, include_normal_fraction=0.0)
        assert dataset.num_samples > 0
        assert all(isinstance(d, Direction) for d in dataset.directions)
        # With normal frames excluded, every mask has at least one victim pixel.
        assert all(dataset.masks[i].sum() > 0 for i in range(dataset.num_samples))

    def test_normal_fraction_adds_clean_frames(self, small_builder, small_runs):
        without = small_builder.localization_dataset(
            small_runs, include_normal_fraction=0.0
        )
        with_normals = small_builder.localization_dataset(
            small_runs, include_normal_fraction=1.0
        )
        assert with_normals.num_samples > without.num_samples

    def test_inputs_normalized_for_boc(self, small_builder, small_runs):
        dataset = small_builder.localization_dataset(small_runs, feature=FeatureKind.BOC)
        assert dataset.inputs.max() <= 1.0

    def test_benign_only_runs_rejected(self, small_builder):
        benign_run = small_builder.run_benchmark("uniform_random")
        with pytest.raises(ValueError):
            small_builder.localization_dataset([benign_run])

    def test_subset(self, small_builder, small_runs):
        dataset = small_builder.localization_dataset(small_runs)
        subset = dataset.subset(np.arange(min(4, dataset.num_samples)))
        assert subset.num_samples <= 4
