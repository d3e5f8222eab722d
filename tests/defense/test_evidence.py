"""Unit tests for the cross-window evidence accumulator."""

import pytest

from repro.core.pipeline import LocalizationResult
from repro.defense.evidence import EvidenceAccumulator, EvidenceConfig

from tests.defense.fakes import StubFence
from tests.faults.test_monitor_faults import make_sample


def result(attackers=(), frontier=(), estimated=None, detected=True, p=0.9):
    return LocalizationResult(
        cycle=0,
        detected=detected,
        detection_probability=p,
        attackers=list(attackers),
        frontier=list(frontier),
        estimated_attacker_count=(
            estimated if estimated is not None else len(attackers)
        ),
    )


class TestEvidenceConfig:
    def test_defaults_valid(self):
        config = EvidenceConfig()
        assert config.release_threshold < config.conviction_threshold

    def test_validation(self):
        with pytest.raises(ValueError):
            EvidenceConfig(decay=1.0)
        with pytest.raises(ValueError):
            EvidenceConfig(conviction_threshold=0.0)
        with pytest.raises(ValueError):
            EvidenceConfig(release_threshold=5.0)
        with pytest.raises(ValueError):
            EvidenceConfig(tlm_weight=0.0)
        with pytest.raises(ValueError):
            EvidenceConfig(probability_floor=1.5)
        with pytest.raises(ValueError):
            EvidenceConfig(calibration_margin=-0.1)

    def test_stealth_floor_uncalibrated_uses_static_floor(self):
        config = EvidenceConfig(probability_floor=0.25)
        assert config.stealth_floor(None) == 0.25

    def test_stealth_floor_tracks_detector_resting_point(self):
        """A detector humming at 0.35 must not testify at 0.3; one resting
        at 0.04 must."""
        config = EvidenceConfig(probability_floor=0.25, calibration_margin=0.04)
        assert config.stealth_floor(0.36) == pytest.approx(0.40)
        assert config.stealth_floor(0.03) == pytest.approx(0.07)


class TestWindowWeight:
    def test_detected_windows_always_testify(self):
        acc = EvidenceAccumulator(16)
        assert acc.window_weight(True, 0.0) == 1.0

    def test_floor_gates_not_scales(self):
        acc = EvidenceAccumulator(16, EvidenceConfig(probability_floor=0.25))
        assert acc.window_weight(False, 0.3) == 1.0
        assert acc.window_weight(False, 0.2) == 0.0

    def test_calibrated_floor(self):
        acc = EvidenceAccumulator(16, EvidenceConfig(calibration_margin=0.04))
        assert acc.window_weight(False, 0.3, benign_calibration=0.35) == 0.0
        assert acc.window_weight(False, 0.41, benign_calibration=0.35) == 1.0


class TestConvictionDynamics:
    CONFIG = EvidenceConfig(
        decay=0.9, conviction_threshold=3.4, release_threshold=0.75
    )

    def test_four_consecutive_namings_convict(self):
        acc = EvidenceAccumulator(64, self.CONFIG)
        fresh = []
        for _ in range(4):
            fresh, lapsed = acc.observe(result(attackers=[5]), 1.0)
        assert fresh == [5] and lapsed == []
        assert acc.convicted_nodes() == [5]

    def test_three_consecutive_do_not_convict(self):
        acc = EvidenceAccumulator(64, self.CONFIG)
        for _ in range(3):
            assert acc.observe(result(attackers=[5]), 1.0) == ([], [])
        assert acc.convicted_nodes() == []

    def test_gappy_phantom_trajectory_stays_below_bar(self):
        """The measured spillover-phantom pattern (4 namings in 6 windows)."""
        acc = EvidenceAccumulator(64, self.CONFIG)
        pattern = [True, False, True, True, False, True]
        for named in pattern:
            acc.observe(result(attackers=[7] if named else []), 1.0)
        assert acc.convicted_nodes() == []

    def test_cross_dwell_memory_carries_suspicion(self):
        """A silent dwell retains suspicion: after three namings and eight
        quiet windows, three further namings convict — one fewer than a
        fresh node needs.  This is the migrating-attacker shape a
        memoryless per-window localizer cannot pin."""
        acc = EvidenceAccumulator(64, self.CONFIG)
        for _ in range(3):
            acc.observe(result(attackers=[9]), 1.0)
        for _ in range(8):
            acc.observe(result(), 0.0)
        assert acc.suspicion_of(9) > 1.0  # memory survived the dwell
        for _ in range(2):
            acc.observe(result(attackers=[9]), 1.0)
        assert acc.convicted_nodes() == []
        acc.observe(result(attackers=[9]), 1.0)
        assert 9 in acc.convicted_nodes()

    def test_conviction_hysteresis_and_decay_release(self):
        acc = EvidenceAccumulator(64, self.CONFIG)
        for _ in range(5):
            acc.observe(result(attackers=[5]), 1.0)
        assert acc.convicted_nodes() == [5]
        # Decaying below the conviction threshold does not drop the
        # conviction; only crossing the release threshold does.
        while acc.suspicion_of(5) >= self.CONFIG.release_threshold:
            acc.observe(result(), 0.0)
            if acc.suspicion_of(5) >= self.CONFIG.release_threshold:
                assert acc.convicted_nodes() == [5]
        assert acc.convicted_nodes() == []

    def test_reset_node_wipes_stale_evidence(self):
        acc = EvidenceAccumulator(64, self.CONFIG)
        for _ in range(5):
            acc.observe(result(attackers=[5]), 1.0)
        acc.reset_node(5)
        assert acc.convicted_nodes() == []
        assert acc.suspicion_of(5) == 0.0

    def test_zero_weight_windows_only_decay(self):
        acc = EvidenceAccumulator(64, self.CONFIG)
        acc.observe(result(attackers=[5]), 1.0)
        before = acc.suspicion_of(5)
        acc.observe(result(attackers=[5]), 0.0)
        assert acc.suspicion_of(5) == pytest.approx(before * self.CONFIG.decay)

    def test_observe_returns_the_decay_lapse(self):
        acc = EvidenceAccumulator(64, self.CONFIG)
        for _ in range(5):
            acc.observe(result(attackers=[5]), 1.0)
        returned = []
        while acc.convicted_nodes():
            returned.append(acc.observe(result(), 0.0))
        assert returned[-1] == ([], [5])
        assert all(window == ([], []) for window in returned[:-1])

    def test_decay_gap_returns_lapsed_convictions(self):
        acc = EvidenceAccumulator(64, self.CONFIG)
        for _ in range(5):
            acc.observe(result(attackers=[5]), 1.0)
        assert acc.decay_gap(0) == []
        assert acc.decay_gap(40) == [5]
        assert acc.convicted_nodes() == []
        assert acc.decay_gap(40) == []


class TestFrontierEvidence:
    CONFIG = EvidenceConfig(decay=0.9, conviction_threshold=3.4, frontier_weight=0.3)

    def test_frontier_credited_only_when_under_localized(self):
        acc = EvidenceAccumulator(64, self.CONFIG)
        # Fully explained window: one attacker estimated, one named — the
        # turning point gets nothing.
        acc.observe(result(attackers=[5], frontier=[12], estimated=1), 1.0)
        assert acc.suspicion_of(12) == 0.0
        # Under-localized window: estimate exceeds the named set.
        acc.observe(result(attackers=[5], frontier=[12], estimated=2), 1.0)
        assert acc.suspicion_of(12) == pytest.approx(0.3)

    def test_frontier_alone_cannot_convict(self):
        """Corroborative only: steady frontier evidence plateaus below the bar."""
        acc = EvidenceAccumulator(64, self.CONFIG)
        for _ in range(200):
            acc.observe(result(attackers=[], frontier=[12], estimated=1), 1.0)
        assert acc.suspicion_of(12) < self.CONFIG.conviction_threshold
        assert acc.convicted_nodes() == []


class TestDetourDiscountsAndPromotions:
    """Carrier-aware evidence weighting of the degraded guard's stream."""

    CONFIG = EvidenceConfig(decay=0.9, conviction_threshold=3.4, frontier_weight=0.3)

    def test_discounts_scale_both_channels(self):
        """An uncorroborated carrier's direct naming AND frontier trace are
        both scaled: reroute-shifted phantoms name as densely as real weak
        colluders, so no channel is trustworthy on its own."""
        acc = EvidenceAccumulator(64, self.CONFIG)
        acc.observe(
            result(attackers=[3], frontier=[4], estimated=2),
            1.0,
            discounts={3: 0.5, 4: 0.5},
        )
        assert acc.suspicion_of(3) == pytest.approx(0.5)
        assert acc.suspicion_of(4) == pytest.approx(0.15)

    def test_promoted_frontier_counts_as_direct_naming(self):
        acc = EvidenceAccumulator(64, self.CONFIG)
        acc.observe(
            result(attackers=[], frontier=[7], estimated=1),
            1.0,
            promotions=frozenset({7}),
        )
        assert acc.suspicion_of(7) == pytest.approx(self.CONFIG.tlm_weight)

    def test_promotion_bypasses_under_localization_gate(self):
        """Phantoms filling the attacker estimate must not close the
        frontier channel on a corroborated carrier: the window is fully
        'explained' only because the phantom stole the naming."""
        acc = EvidenceAccumulator(64, self.CONFIG)
        acc.observe(
            result(attackers=[5], frontier=[7, 12], estimated=1),
            1.0,
            promotions=frozenset({7}),
        )
        assert acc.suspicion_of(7) == pytest.approx(self.CONFIG.tlm_weight)
        assert acc.suspicion_of(12) == 0.0  # ordinary frontier stays gated

    def test_promoted_trace_trajectory_convicts(self):
        """A corroborated colluder traced every window convicts on the same
        schedule as four consecutive direct namings."""
        acc = EvidenceAccumulator(64, self.CONFIG)
        fresh = []
        for _ in range(4):
            fresh += acc.observe(
                result(attackers=[9], frontier=[7], estimated=1),
                1.0,
                promotions=frozenset({7}),
            )[0]
        assert 7 in fresh
        # The same trajectory without corroboration stays un-convictable
        # even with the frontier channel open (under-localized windows).
        acc2 = EvidenceAccumulator(64, self.CONFIG)
        for _ in range(200):
            acc2.observe(
                result(attackers=[9], frontier=[7], estimated=2),
                1.0,
                discounts={7: 0.5},
            )
        assert 7 not in acc2.convicted_nodes()


class TestGuardEvidenceIntegration:
    """The guard acting on convictions with no detector support at all."""

    class SubThresholdFence(StubFence):
        """Stub pipeline: never detects, but persistently names one node.

        Idempotent per cycle, because the guard re-runs localization on
        evidence-bearing sub-threshold windows.
        """

        def __init__(self, attacker, probability=0.45):
            super().__init__()
            self.attacker = attacker
            self.probability = probability

        def process_sample(self, sample, force_localization=False, detection=None):
            return LocalizationResult(
                cycle=sample.cycle,
                detected=False,
                detection_probability=self.probability,
                attackers=[self.attacker],
            )

    def test_stealth_conviction_engages_without_any_detection(self):
        from repro.defense.guard import DL2FenceGuard
        from repro.defense.policy import MitigationPolicy
        from repro.noc.simulator import NoCSimulator, SimulationConfig

        simulator = NoCSimulator(SimulationConfig(rows=4, warmup_cycles=0))
        guard = DL2FenceGuard(
            self.SubThresholdFence(attacker=5),
            MitigationPolicy.quarantine(engage_after=2),
            evidence=EvidenceConfig(
                decay=0.9, conviction_threshold=3.4, probability_floor=0.25
            ),
        )
        for index in range(6):
            sample = make_sample(simulator.topology, 100 * (index + 1))
            guard.on_sample(sample, simulator)
        # Conviction lands on the 4th evidence-bearing window; two flagged
        # windows later the streak hysteresis engages the quarantine.
        assert guard.engaged_nodes == [5]
        assert simulator.network.injection_limit(5) == 0.0
        assert any(e.kind == "convicted" for e in guard.report.events)
        detected_event = next(e for e in guard.report.events if e.kind == "detected")
        assert "evidence" in detected_event.detail

    def test_evidence_disabled_guard_ignores_sub_threshold_windows(self):
        from repro.defense.guard import DL2FenceGuard
        from repro.defense.policy import MitigationPolicy
        from repro.noc.simulator import NoCSimulator, SimulationConfig

        simulator = NoCSimulator(SimulationConfig(rows=4, warmup_cycles=0))
        guard = DL2FenceGuard(
            self.SubThresholdFence(attacker=5),
            MitigationPolicy.quarantine(engage_after=2),
            evidence=False,
        )
        for index in range(10):
            sample = make_sample(simulator.topology, 100 * (index + 1))
            guard.on_sample(sample, simulator)
        assert guard.engaged_nodes == []
        assert guard.state.evidence is None
