"""End-to-end DL2Fence pipeline.

Wires the three stages of Figure 2 into the operational flow described in
Section 3: periodic detection on VCO frames, segmentation of the abnormal BOC
frames, Multi-Frame Fusion + (optional) Victim Completing Enhancement for
victim localization, and the Table-Like Method for attacker localization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import DL2FenceConfig
from repro.core.detector import DoSDetector
from repro.core.frame_fusion import (
    binarize_frame,
    fuse_direction_masks,
    victims_from_mask,
)
from repro.core.localizer import DoSProfileLocalizer
from repro.core.tlm import TableLikeMethod, estimate_attacker_count
from repro.core.vce import victim_completing_enhancement
from repro.monitor.dataset import (
    DatasetBuilder,
    DetectionDataset,
    LocalizationDataset,
    ScenarioRun,
)
from repro.monitor.features import FeatureKind, normalize_frame
from repro.monitor.frames import FrameSample, from_canonical, pad_to_full_mesh
from repro.monitor.labeling import victim_mask
from repro.nn import ClassificationReport
from repro.noc.topology import Direction, MeshTopology

__all__ = ["LocalizationResult", "DL2Fence"]


@dataclass
class LocalizationResult:
    """Outcome of processing one monitor sample through the full pipeline."""

    cycle: int
    detected: bool
    detection_probability: float
    victims: list[int] = field(default_factory=list)
    attackers: list[int] = field(default_factory=list)
    #: TLM candidates discarded for sitting inside the fused victim set —
    #: route turning points, or on-route attackers posing as one (consumed
    #: by the cross-window evidence accumulator).
    frontier: list[int] = field(default_factory=list)
    abnormal_directions: list[Direction] = field(default_factory=list)
    fused_mask: np.ndarray | None = None
    direction_masks: dict[Direction, np.ndarray] = field(default_factory=dict)
    estimated_attacker_count: int = 0

    @property
    def num_attackers(self) -> int:
        return len(self.attackers)


class DL2Fence:
    """The complete detection and localization framework."""

    def __init__(
        self,
        topology: MeshTopology,
        config: DL2FenceConfig | None = None,
        detector: DoSDetector | None = None,
        localizer: DoSProfileLocalizer | None = None,
    ) -> None:
        if topology.rows != topology.columns:
            raise ValueError("DL2Fence frame stacking requires a square mesh")
        self.topology = topology
        self.config = config or DL2FenceConfig()
        rows = topology.rows
        self.detector = detector or DoSDetector(
            (rows, rows - 1, 4), config=self.config
        )
        self.localizer = localizer or DoSProfileLocalizer(
            (rows, rows - 1, 1), config=self.config
        )
        self.tlm = TableLikeMethod(topology)
        #: Live fault-aware routing (``None`` = pristine XY mesh).  Set via
        #: :meth:`set_route_provider`; VCE route deduction and TLM candidate
        #: enumeration both follow it so localization stays topology-aware
        #: on a degrading mesh.
        self.route_provider = None

    def set_route_provider(self, provider) -> None:
        """Point the localization stages at the live routing function.

        ``provider`` is a :class:`repro.noc.route_provider.RouteProvider`
        (or ``None`` to restore pristine XY).  Idempotent and cheap, so the
        runtime guard can call it every sampling window.
        """
        self.route_provider = provider
        self.tlm.set_route_provider(provider)

    # -- training -----------------------------------------------------------
    def fit(
        self,
        detection_dataset: DetectionDataset,
        localization_dataset: LocalizationDataset,
        detector_epochs: int = 60,
        localizer_epochs: int = 80,
    ) -> dict:
        """Train both CNNs; returns the two training summaries."""
        det_summary = self.detector.fit(detection_dataset, epochs=detector_epochs)
        loc_summary = self.localizer.fit(localization_dataset, epochs=localizer_epochs)
        return {"detector": det_summary, "localizer": loc_summary}

    def fit_from_runs(
        self,
        builder: DatasetBuilder,
        runs: list[ScenarioRun],
        detector_epochs: int = 60,
        localizer_epochs: int = 80,
    ) -> dict:
        """Convenience: assemble datasets from runs (per config) and train."""
        detection = builder.detection_dataset(
            runs,
            feature=self.config.detection_feature,
            normalize=self.config.detection_normalization,
        )
        localization = builder.localization_dataset(
            runs,
            feature=self.config.localization_feature,
            normalize=self.config.localization_normalization,
        )
        return self.fit(
            detection,
            localization,
            detector_epochs=detector_epochs,
            localizer_epochs=localizer_epochs,
        )

    # -- online processing -------------------------------------------------------
    def process_sample(
        self,
        sample: FrameSample,
        force_localization: bool = False,
        detection: tuple[bool, float] | None = None,
    ) -> LocalizationResult:
        """Run one monitor sample through detection, segmentation and fusion.

        ``detection`` may carry an already-computed ``(detected,
        probability)`` pair for this sample so a caller re-running the
        localization stages (the guard's sub-threshold evidence path) does
        not pay the detector forward pass twice.
        """
        detection_frames = sample.feature(self.config.detection_feature)
        if detection is None:
            detection = self.detector.detect(detection_frames)
        detected, probability = detection
        result = LocalizationResult(
            cycle=sample.cycle, detected=detected, detection_probability=probability
        )
        if not detected and not force_localization:
            return result

        localization_frames = sample.feature(self.config.localization_feature)
        prepared: dict[Direction, np.ndarray] = {}
        for direction in Direction.cardinal():
            values = localization_frames[direction].values
            if self.config.localization_normalization != "none":
                values = normalize_frame(
                    values, method=self.config.localization_normalization
                )
            prepared[direction] = values
        # One batched CNN call for all four directions (the online fast path).
        direction_masks = self.localizer.segment_frames(prepared)
        abnormal: list[Direction] = []
        for direction in Direction.cardinal():
            probability_mask = direction_masks[direction]
            positives = int(
                (probability_mask >= self.config.segmentation_threshold).sum()
            )
            if positives >= self.config.abnormal_frame_threshold:
                abnormal.append(direction)

        result.direction_masks = direction_masks
        result.abnormal_directions = abnormal
        if not abnormal:
            result.fused_mask = np.zeros(
                (self.topology.rows, self.topology.columns), dtype=np.float64
            )
            return result

        fused = fuse_direction_masks(
            {direction: direction_masks[direction] for direction in abnormal},
            self.topology,
            threshold=self.config.binarization_threshold,
            mode=self.config.fusion_mode,
            canonical=True,
        )
        direction_victims = self._direction_victims(direction_masks, abnormal)
        victims = set(victims_from_mask(fused, self.topology))

        if self.config.enable_vce:
            victims = victim_completing_enhancement(
                self.topology,
                victims,
                direction_victims,
                route_provider=self.route_provider,
            )
            fused = self._mask_from_victims(victims)

        result.fused_mask = fused
        result.victims = sorted(victims)
        result.estimated_attacker_count = estimate_attacker_count(
            self.topology, direction_victims
        )
        tlm_results, frontier = self.tlm.localize_with_frontier(
            direction_victims, fused_victims=victims
        )
        result.attackers = sorted(r.attacker for r in tlm_results)
        result.frontier = frontier
        return result

    def _direction_victims(
        self,
        direction_masks: dict[Direction, np.ndarray],
        abnormal: list[Direction],
    ) -> dict[Direction, set[int]]:
        """Node ids flagged per abnormal direction (natural orientation)."""
        out: dict[Direction, set[int]] = {}
        for direction in abnormal:
            binary = binarize_frame(
                direction_masks[direction], self.config.binarization_threshold
            )
            natural = from_canonical(binary, direction)
            full = pad_to_full_mesh(natural, self.topology, direction)
            out[direction] = set(victims_from_mask(full, self.topology))
        return out

    def _mask_from_victims(self, victims: set[int]) -> np.ndarray:
        mask = np.zeros((self.topology.rows, self.topology.columns), dtype=np.float64)
        for node in victims:
            x, y = self.topology.coordinates(node)
            mask[y, x] = 1.0
        return mask

    # -- evaluation ------------------------------------------------------------
    def evaluate_detection(self, dataset: DetectionDataset) -> ClassificationReport:
        """Frame-level detection metrics on a detection dataset."""
        return self.detector.evaluate(dataset)

    def evaluate_localization(
        self, runs: list[ScenarioRun], force_localization: bool = True
    ) -> ClassificationReport:
        """Node-level localization metrics over attacked runs.

        For every attack-active sample the fused victim mask is compared
        against the ground-truth victim mask (target victim + all RPVs);
        per-node decisions are accumulated over all samples into one report,
        matching how Figure 4 reports localization accuracy/precision/recall.
        """
        y_true: list[np.ndarray] = []
        y_pred: list[np.ndarray] = []
        for run in runs:
            if run.scenario is None:
                continue
            truth = victim_mask(run.topology, run.scenario)
            for sample in run.samples:
                if not sample.attack_active:
                    continue
                result = self.process_sample(
                    sample, force_localization=force_localization
                )
                predicted = (
                    result.fused_mask
                    if result.fused_mask is not None
                    else np.zeros_like(truth)
                )
                y_true.append(truth.reshape(-1))
                y_pred.append(predicted.reshape(-1))
        if not y_true:
            raise ValueError("no attacked samples available for localization evaluation")
        return ClassificationReport.from_predictions(
            np.concatenate(y_true), np.concatenate(y_pred)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DL2Fence(mesh={self.topology.rows}x{self.topology.columns}, "
            f"det={self.config.detection_feature.value}, "
            f"loc={self.config.localization_feature.value})"
        )
