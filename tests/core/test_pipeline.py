"""Integration tests for the end-to-end DL2Fence pipeline."""

import numpy as np
import pytest

from repro.core.config import DL2FenceConfig
from repro.core.pipeline import DL2Fence
from repro.monitor.labeling import victim_mask
from repro.noc.topology import MeshTopology


class TestConstruction:
    def test_requires_square_mesh(self):
        with pytest.raises(ValueError):
            DL2Fence(MeshTopology(rows=4, columns=6))

    def test_default_models_match_mesh(self, small_topology):
        fence = DL2Fence(small_topology)
        assert fence.detector.input_shape == (6, 5, 4)
        assert fence.localizer.input_shape == (6, 5, 1)

    def test_repr_mentions_features(self, small_topology):
        text = repr(DL2Fence(small_topology))
        assert "vco" in text and "boc" in text


class TestTraining:
    def test_fit_from_runs_returns_summaries(self, small_builder, small_runs):
        fence = DL2Fence(small_builder.topology, DL2FenceConfig(seed=5))
        summaries = fence.fit_from_runs(
            small_builder, small_runs, detector_epochs=10, localizer_epochs=10
        )
        assert summaries["detector"].epochs == 10
        assert summaries["localizer"].epochs == 10


class TestProcessing:
    def test_benign_sample_usually_not_localized(self, trained_pipeline, small_runs):
        benign_run = next(run for run in small_runs if not run.is_attack)
        result = trained_pipeline.process_sample(benign_run.samples[-1])
        if not result.detected:
            assert result.victims == []
            assert result.attackers == []

    def test_attack_sample_produces_localization(self, trained_pipeline, small_runs):
        attack_run = next(run for run in small_runs if run.is_attack)
        result = trained_pipeline.process_sample(
            attack_run.samples[-1], force_localization=True
        )
        assert result.fused_mask is not None
        assert result.fused_mask.shape == (6, 6)
        assert len(result.direction_masks) == 4
        assert result.estimated_attacker_count >= 0

    def test_localization_overlaps_ground_truth(self, trained_pipeline, small_runs):
        attack_run = next(run for run in small_runs if run.is_attack)
        truth = set(attack_run.scenario.ground_truth_victims(attack_run.topology))
        found = set()
        for sample in attack_run.samples:
            result = trained_pipeline.process_sample(sample, force_localization=True)
            found.update(result.victims)
        assert len(found & truth) >= len(truth) // 2

    def test_result_counts_match_lists(self, trained_pipeline, small_runs):
        attack_run = next(run for run in small_runs if run.is_attack)
        result = trained_pipeline.process_sample(
            attack_run.samples[-1], force_localization=True
        )
        assert result.num_attackers == len(result.attackers)


class TestEvaluation:
    def test_detection_evaluation(self, trained_pipeline, small_builder, small_runs):
        dataset = small_builder.detection_dataset(small_runs)
        report = trained_pipeline.evaluate_detection(dataset)
        assert report.accuracy > 0.7
        assert report.support == dataset.num_samples

    def test_localization_evaluation(self, trained_pipeline, small_runs):
        attacked = [run for run in small_runs if run.is_attack]
        report = trained_pipeline.evaluate_localization(attacked)
        assert report.accuracy > 0.8
        assert report.support == sum(
            36 * sum(1 for s in run.samples if s.attack_active) for run in attacked
        )

    def test_localization_requires_attacked_runs(self, trained_pipeline, small_runs):
        benign = [run for run in small_runs if not run.is_attack]
        with pytest.raises(ValueError):
            trained_pipeline.evaluate_localization(benign)


class TestVCEIntegration:
    def test_vce_never_reduces_recall(self, small_builder, small_runs):
        """Enabling VCE can only add route nodes, so recall cannot drop."""
        config_off = DL2FenceConfig(seed=9, enable_vce=False)
        config_on = DL2FenceConfig(seed=9, enable_vce=True)
        fence_off = DL2Fence(small_builder.topology, config_off)
        fence_off.fit_from_runs(
            small_builder, small_runs, detector_epochs=15, localizer_epochs=30
        )
        fence_on = DL2Fence(small_builder.topology, config_on)
        fence_on.fit_from_runs(
            small_builder, small_runs, detector_epochs=15, localizer_epochs=30
        )
        attacked = [run for run in small_runs if run.is_attack]
        recall_off = fence_off.evaluate_localization(attacked).recall
        recall_on = fence_on.evaluate_localization(attacked).recall
        assert recall_on >= recall_off - 0.05
