"""Multi-attack closed-loop defense: iterative rounds, containment, backoff.

The guard mechanics are isolated from CNN quality with a *blind* oracle
pipeline whose evidence mirrors what congestion actually betrays: an
attacker that is fully quarantined leaves no signature, so the oracle stops
reporting it — exactly the detector-blindness that causes release probing,
and the loudest-first visibility that forces iterative localization rounds.
The full learned loop is exercised on the session's small trained pipeline.
"""

from __future__ import annotations

import math

import pytest

from repro.core.pipeline import LocalizationResult
from repro.defense.guard import DL2FenceGuard
from repro.defense.policy import MitigationPolicy
from repro.monitor.sampler import MonitorConfig
from repro.noc.simulator import NoCSimulator, SimulationConfig
from repro.noc.stats import LatencyStats
from repro.traffic.scenario import AttackScenario, MultiAttackScenario
from repro.traffic.synthetic import UniformRandomTraffic

ROWS = 6
PERIOD = 96
WARMUP = 32


class BlindOracle:
    """Evidence-faithful oracle: sees only attackers that can still inject.

    Detection mirrors observable congestion — active, non-quarantined
    attackers produce it; fenced attackers do not.  Localization reveals the
    loudest (lowest-id) visible attacker only, forcing the guard through one
    iterative round per attacker, as in the paper's multi-attacker procedure.
    """

    def __init__(self, attackers, simulator, reveal_all=False):
        self.attackers = list(attackers)
        self.simulator = simulator
        self.reveal_all = reveal_all

    def process_sample(self, sample, force_localization=False):
        visible = [
            node
            for node in self.attackers
            if self.simulator.network.injection_limit(node) > 0.0
        ]
        detected = bool(sample.attack_active and visible)
        revealed = visible if self.reveal_all else visible[:1]
        return LocalizationResult(
            cycle=sample.cycle,
            detected=detected,
            detection_probability=1.0 if detected else 0.0,
            attackers=revealed if detected else [],
        )


def two_flow_scenario(topology) -> MultiAttackScenario:
    """Two concurrent floods in disjoint rows of the 6x6 mesh."""
    return MultiAttackScenario(
        flows=(
            AttackScenario(
                attackers=(topology.node_id(4, 4),),
                victim=topology.node_id(1, 4),
                fir=0.8,
            ),
            AttackScenario(
                attackers=(topology.node_id(1, 1),),
                victim=topology.node_id(4, 1),
                fir=0.8,
            ),
        )
    )


def run_multi_attack_episode(
    policy,
    attack_windows=10,
    post_windows=4,
    reveal_all=False,
    attacked=True,
):
    """One live multi-attack episode under the blind oracle guard."""
    simulator = NoCSimulator(
        SimulationConfig(rows=ROWS, warmup_cycles=WARMUP, seed=3)
    )
    simulator.add_source(
        UniformRandomTraffic(simulator.topology, injection_rate=0.02, seed=42)
    )
    scenario = two_flow_scenario(simulator.topology)
    attack_start = WARMUP + 3 * PERIOD
    attack_end = attack_start + attack_windows * PERIOD
    if attacked:
        for source in scenario.attacker_sources(
            simulator.topology,
            seed=43,
            start_cycle=attack_start,
            end_cycle=attack_end,
        ):
            simulator.add_source(source)
    guard = DL2FenceGuard(
        BlindOracle(scenario.attackers, simulator, reveal_all=reveal_all),
        policy,
        attack_start=attack_start,
        attack_end=attack_end,
        true_attackers=scenario.attackers,
    )
    guard.attach(simulator, monitor_config=MonitorConfig(sample_period=PERIOD))
    total_windows = 3 + attack_windows + post_windows
    simulator.run(WARMUP + total_windows * PERIOD + 1)
    return guard.report, scenario, simulator


def no_attack_baseline(attack_windows=10, post_windows=4) -> float:
    """The same workload and horizon with no attacker and no guard."""
    simulator = NoCSimulator(
        SimulationConfig(rows=ROWS, warmup_cycles=WARMUP, seed=3)
    )
    simulator.add_source(
        UniformRandomTraffic(simulator.topology, injection_rate=0.02, seed=42)
    )
    total_windows = 3 + attack_windows + post_windows
    simulator.run(WARMUP + total_windows * PERIOD + 1)
    return simulator.latency(benign_only=True).packet_latency


class TestMultiAttackEndToEnd:
    """Tier-1 end-to-end: two attackers on disjoint victims, both fenced."""

    def test_both_attackers_fenced_and_latency_recovers(self):
        policy = MitigationPolicy.quarantine(
            engage_after=2, release_after=6, flush_queue=True
        )
        report, scenario, _ = run_multi_attack_episode(policy)
        truth = set(scenario.attackers)

        # Both attackers end up fenced, one iterative round each.
        assert truth.issubset(report.engaged_nodes)
        assert report.localization_rounds >= 2
        assert report.time_to_full_containment is not None

        per_attacker = report.per_attacker_time_to_mitigation()
        assert set(per_attacker) == truth
        assert all(value is not None for value in per_attacker.values())
        # The second round necessarily engages later than the first.
        assert report.time_to_full_containment == max(per_attacker.values())

        # Benign latency under full containment recovers near the no-attack
        # baseline (fixed multiple guards against regressions, not noise).
        baseline = no_attack_baseline()
        mitigated = report.post_mitigation_latency()
        assert not math.isnan(mitigated)
        assert mitigated <= 1.5 * baseline

    def test_iterative_rounds_reveal_quieter_attacker(self):
        """With loudest-only evidence the guard needs one round per attacker."""
        policy = MitigationPolicy.quarantine(engage_after=2, release_after=8)
        report, scenario, _ = run_multi_attack_episode(policy)
        engaged_events = [e for e in report.events if e.kind == "engaged"]
        assert len(engaged_events) >= 2
        assert engaged_events[0].round == 1
        # Each round fences exactly the one attacker the evidence revealed.
        assert all(len(e.nodes) == 1 for e in engaged_events[:2])
        first, second = engaged_events[0], engaged_events[1]
        assert second.cycle > first.cycle
        assert set(first.nodes) != set(second.nodes)

    def test_detection_latency_per_attacker_ordering(self):
        policy = MitigationPolicy.quarantine(engage_after=2, release_after=8)
        report, scenario, _ = run_multi_attack_episode(policy)
        latencies = report.per_attacker_detection_latency()
        values = [v for v in latencies.values() if v is not None]
        assert len(values) == 2
        # The quieter attacker surfaces strictly later.
        assert min(values) < max(values)


class TestQuarantineOscillationRegression:
    """Pins the fig6 quarantine release/re-engage oscillation below a bound.

    A fully fenced attacker leaves no evidence, so the guard inevitably
    probes by releasing; without the re-engage backoff the probe loop
    oscillates for the whole episode.  With backoff 2 the k-th hold lasts
    ``release_after * 2**(k-1)`` windows, so re-engagements over W attack
    windows are bounded by ~log2(W / release_after): K = 4 for W = 40 and
    release_after = 2 — versus ~W/3 (13) with fixed-threshold hysteresis.
    """

    K = 4
    ATTACK_WINDOWS = 40

    def _oscillation_policy(self, backoff):
        return MitigationPolicy.quarantine(
            engage_after=1, release_after=2, stale_after=2, reengage_backoff=backoff
        )

    def _single_attacker_report(self, backoff):
        simulator = NoCSimulator(
            SimulationConfig(rows=ROWS, warmup_cycles=WARMUP, seed=3)
        )
        attacker = simulator.topology.node_id(4, 4)
        scenario = AttackScenario(
            attackers=(attacker,), victim=simulator.topology.node_id(1, 1), fir=0.8
        )
        attack_start = WARMUP + 2 * PERIOD
        attack_end = attack_start + self.ATTACK_WINDOWS * PERIOD
        simulator.add_source(
            scenario.build_source(
                simulator.topology,
                seed=5,
                start_cycle=attack_start,
                end_cycle=attack_end,
            )
        )
        guard = DL2FenceGuard(
            BlindOracle([attacker], simulator),
            self._oscillation_policy(backoff),
            attack_start=attack_start,
            attack_end=attack_end,
            true_attackers=(attacker,),
        )
        guard.attach(simulator, monitor_config=MonitorConfig(sample_period=PERIOD))
        total_windows = 2 + self.ATTACK_WINDOWS + 4
        simulator.run(WARMUP + total_windows * PERIOD + 1)
        return guard.report, attacker

    def test_reengagements_bounded_by_backoff(self):
        report, attacker = self._single_attacker_report(backoff=2.0)
        counts = report.engage_counts()
        assert counts.get(attacker, 0) >= 1
        assert counts[attacker] - 1 <= self.K, (
            f"quarantined attacker oscillated {counts[attacker] - 1} times "
            f"(> K={self.K}) over {self.ATTACK_WINDOWS} attack windows"
        )

    def test_backoff_strictly_reduces_oscillation(self):
        """The exponential hold beats fixed-threshold hysteresis."""
        fixed, attacker = self._single_attacker_report(backoff=1.0)
        backed, _ = self._single_attacker_report(backoff=2.0)
        assert backed.engage_counts()[attacker] < fixed.engage_counts()[attacker]


class TestEngagementCap:
    """max_engaged_nodes bounds the blast radius of an over-approximation."""

    def test_cap_limits_simultaneous_engagements(self):
        from types import SimpleNamespace

        class SupersetFence:
            """Stub localizer always over-approximating to five candidates."""

            def process_sample(self, sample, force_localization=False):
                return LocalizationResult(
                    cycle=sample.cycle,
                    detected=True,
                    detection_probability=0.9,
                    attackers=[1, 2, 3, 4, 5],
                )

        simulator = NoCSimulator(SimulationConfig(rows=4, warmup_cycles=0))
        policy = MitigationPolicy.throttle(0.1, engage_after=1, max_engaged_nodes=2)
        guard = DL2FenceGuard(SupersetFence(), policy)
        guard.simulator = simulator
        for index in range(4):
            guard.on_sample(SimpleNamespace(cycle=100 * (index + 1)), simulator)
        assert len(guard.engaged_nodes) == 2
        assert len(simulator.restricted_nodes) == 2


class TestTrainedPipelineMultiAttack:
    """The full learned loop against a concurrent 2-flow flood."""

    def test_learned_guard_engages_on_multi_attack(
        self, trained_pipeline, small_builder
    ):
        from repro.experiments.mitigation import default_multi_scenario
        from repro.experiments.robustness import (
            baseline_benign_latency,
            run_attack_episode,
        )

        scenario = default_multi_scenario(small_builder, num_flows=2, fir=0.8)
        report = run_attack_episode(
            trained_pipeline,
            small_builder,
            MitigationPolicy.quarantine(engage_after=2, release_after=6),
            scenario.flows,
            attack_windows=10,
        )
        baseline = baseline_benign_latency(small_builder, attack_windows=10)
        assert baseline > 0.0
        assert report.first_detection_cycle is not None
        assert report.engagement_cycle is not None
        # The learned localizer fences at least one of the true attackers.
        assert set(scenario.attackers) & report.engaged_nodes
