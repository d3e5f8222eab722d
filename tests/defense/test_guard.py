"""Tests for the closed-loop defense guard.

Hysteresis and rollback mechanics are exercised with a scripted stub
pipeline (deterministic, no CNNs); the closed loop against live traffic is
exercised with an oracle pipeline (perfect detection/localization), and the
full learned pipeline is integrated via the session ``trained_pipeline``.
"""

from types import SimpleNamespace

import pytest

from repro.core.pipeline import LocalizationResult
from repro.defense.guard import DL2FenceGuard
from repro.defense.policy import MitigationPolicy
from repro.monitor.sampler import MonitorConfig
from repro.noc.packet import Packet
from repro.noc.simulator import NoCSimulator, SimulationConfig
from repro.traffic.scenario import AttackScenario


class ScriptedFence:
    """Stub pipeline replaying a fixed sequence of (detected, attackers)."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0

    def process_sample(self, sample, force_localization=False):
        detected, attackers = self.script[self.calls]
        self.calls += 1
        return LocalizationResult(
            cycle=sample.cycle,
            detected=detected,
            detection_probability=0.9 if detected else 0.1,
            attackers=list(attackers),
        )


class OracleFence:
    """Perfect pipeline: detects exactly while the attack window is active."""

    def __init__(self, attackers):
        self.attackers = list(attackers)

    def process_sample(self, sample, force_localization=False):
        return LocalizationResult(
            cycle=sample.cycle,
            detected=sample.attack_active,
            detection_probability=1.0 if sample.attack_active else 0.0,
            attackers=list(self.attackers) if sample.attack_active else [],
        )


def drive(script, policy, **guard_kwargs):
    """Run a scripted sequence through a guard on an idle 4x4 simulator."""
    simulator = NoCSimulator(SimulationConfig(rows=4, warmup_cycles=0))
    guard = DL2FenceGuard(ScriptedFence(script), policy, **guard_kwargs)
    guard.simulator = simulator
    for index in range(len(script)):
        guard.on_sample(SimpleNamespace(cycle=100 * (index + 1)), simulator)
    return guard, simulator


class TestEngagementHysteresis:
    def test_engages_after_consecutive_flagged_windows(self):
        policy = MitigationPolicy.throttle(0.1, engage_after=2)
        guard, simulator = drive(
            [(True, [5]), (True, [5])], policy
        )
        assert guard.engaged_nodes == [5]
        assert simulator.network.injection_limit(5) == 0.1

    def test_single_detection_does_not_engage(self):
        policy = MitigationPolicy.throttle(0.1, engage_after=2)
        guard, simulator = drive([(True, [5])], policy)
        assert guard.engaged_nodes == []
        assert simulator.network.injection_limit(5) == 1.0

    def test_one_off_flagged_node_not_engaged(self):
        """A node flagged in only one of the detection windows stays free."""
        policy = MitigationPolicy.throttle(0.1, engage_after=2)
        guard, simulator = drive(
            [(True, [5, 7]), (True, [5])], policy
        )
        assert guard.engaged_nodes == [5]
        assert simulator.network.injection_limit(7) == 1.0

    def test_clean_window_breaks_streak_before_engagement(self):
        policy = MitigationPolicy.throttle(0.1, engage_after=2)
        guard, _ = drive(
            [(True, [5]), (False, []), (True, [5])], policy
        )
        assert guard.engaged_nodes == []

    def test_quarantine_applies_zero_limit(self):
        policy = MitigationPolicy.quarantine(engage_after=1)
        guard, simulator = drive([(True, [3])], policy)
        assert guard.engaged_nodes == [3]
        assert simulator.network.injection_limit(3) == 0.0


class TestReleaseHysteresis:
    def test_releases_after_clean_windows(self):
        policy = MitigationPolicy.throttle(0.1, engage_after=1, release_after=2)
        guard, simulator = drive(
            [(True, [5]), (False, []), (False, [])], policy
        )
        assert guard.engaged_nodes == []
        assert simulator.network.injection_limit(5) == 1.0
        kinds = [event.kind for event in guard.report.events]
        assert kinds == ["detected", "engaged", "released"]

    def test_not_released_while_detections_continue(self):
        policy = MitigationPolicy.throttle(0.1, engage_after=1, release_after=2)
        guard, _ = drive(
            [(True, [5]), (False, []), (True, [5]), (False, [])], policy
        )
        assert guard.engaged_nodes == [5]

    def test_stale_node_rolled_back_individually(self):
        """An engaged node the localizer stops flagging is released early."""
        policy = MitigationPolicy.throttle(
            0.1, engage_after=1, release_after=10, stale_after=2
        )
        guard, simulator = drive(
            [(True, [5, 9]), (True, [5]), (True, [5])], policy
        )
        assert guard.engaged_nodes == [5]
        assert simulator.network.injection_limit(9) == 1.0
        assert any(
            event.kind == "rolled_back" and event.nodes == (9,)
            for event in guard.report.events
        )

    def test_full_disengage_via_stale_rollback_records_release(self):
        """When stale rollback lifts the last restriction, release_cycle is set."""
        policy = MitigationPolicy.throttle(
            0.1, engage_after=1, release_after=10, stale_after=2
        )
        guard, _ = drive(
            [(True, [5]), (True, [9]), (True, [9])], policy
        )
        assert 5 not in guard.engaged_nodes  # 5 rolled back as stale
        report = guard.report
        assert report.release_cycle is None or guard.engaged_nodes
        # drive node 9 out as well: everything disengaged -> full release
        guard2, _ = drive(
            [(True, [5]), (True, []), (True, [])], policy
        )
        assert guard2.engaged_nodes == []
        assert guard2.report.release_cycle is not None

    def test_release_restores_previous_limit(self):
        """Rollback restores the limit the node had before engagement."""
        policy = MitigationPolicy.throttle(0.5, engage_after=1, release_after=1)
        simulator = NoCSimulator(SimulationConfig(rows=4, warmup_cycles=0))
        simulator.network.set_injection_limit(5, 0.8)
        guard = DL2FenceGuard(ScriptedFence([(True, [5]), (False, [])]), policy)
        guard.simulator = simulator
        guard.on_sample(SimpleNamespace(cycle=100), simulator)
        assert simulator.network.injection_limit(5) == 0.5
        guard.on_sample(SimpleNamespace(cycle=200), simulator)
        assert simulator.network.injection_limit(5) == 0.8


class TestFlushQueue:
    def test_engage_flushes_backlog(self):
        policy = MitigationPolicy.quarantine(engage_after=1, flush_queue=True)
        simulator = NoCSimulator(SimulationConfig(rows=4, warmup_cycles=0))
        for _ in range(4):
            simulator.network.enqueue_packet(
                Packet(source=5, destination=0, size_flits=4, created_cycle=0)
            )
        guard = DL2FenceGuard(ScriptedFence([(True, [5])]), policy)
        guard.simulator = simulator
        guard.on_sample(SimpleNamespace(cycle=100), simulator)
        assert len(simulator.network.source_queues[5]) == 0
        assert simulator.network.dropped_packets == 4


class TestReportContents:
    def test_phases_and_latencies(self):
        policy = MitigationPolicy.throttle(0.1, engage_after=2)
        guard, _ = drive(
            [(False, []), (True, [5]), (True, [5]), (True, [5])],
            policy,
            attack_start=150,
            true_attackers=(5,),
        )
        report = guard.report
        assert [w.phase for w in report.windows] == [
            "benign",
            "attack",
            "attack",
            "mitigated",
        ]
        assert report.detection_latency == 200 - 150
        assert report.time_to_mitigation == 300 - 150
        assert report.collateral_nodes == set()

    def test_collateral_accounting(self):
        policy = MitigationPolicy.throttle(0.1, engage_after=1)
        guard, _ = drive(
            [(True, [5, 9]), (True, [5, 9])],
            policy,
            true_attackers=(5,),
        )
        assert guard.report.collateral_nodes == {9}
        assert guard.report.collateral_node_windows == 2

    def test_window_latency_accounting(self):
        simulator = NoCSimulator(SimulationConfig(rows=4, warmup_cycles=0))
        guard = DL2FenceGuard(ScriptedFence([(False, []), (False, [])]))
        guard.simulator = simulator

        benign = Packet(source=0, destination=1, created_cycle=0)
        benign.injected_cycle, benign.ejected_cycle = 2, 10
        malicious = Packet(source=2, destination=1, created_cycle=0, is_malicious=True)
        malicious.injected_cycle, malicious.ejected_cycle = 1, 21
        simulator.stats.delivered.extend([benign, malicious])
        guard.on_sample(SimpleNamespace(cycle=100), simulator)

        window = guard.report.windows[0]
        assert window.benign_latency == 10.0
        assert window.benign_delivered == 1
        assert window.malicious_delivered == 1

        # the second window only sees deliveries that happened after the first
        guard.on_sample(SimpleNamespace(cycle=200), simulator)
        assert guard.report.windows[1].benign_delivered == 0


class TestClosedLoopWithOracle:
    """The guard against live traffic, isolating mitigation from CNN quality."""

    ROWS = 8
    PERIOD = 256
    WARMUP = 64

    def _run(self, policy, attack_windows=10, post_windows=3):
        simulator = NoCSimulator(
            SimulationConfig(rows=self.ROWS, warmup_cycles=self.WARMUP, seed=3)
        )
        from repro.traffic.synthetic import UniformRandomTraffic

        simulator.add_source(
            UniformRandomTraffic(simulator.topology, injection_rate=0.02, seed=42)
        )
        attacker = simulator.topology.node_id(6, 6)
        victim = simulator.topology.node_id(1, 1)
        attack_start = self.WARMUP + 3 * self.PERIOD
        attack_end = attack_start + attack_windows * self.PERIOD
        simulator.add_source(
            AttackScenario(attackers=(attacker,), victim=victim, fir=0.8).build_source(
                simulator.topology,
                seed=43,
                start_cycle=attack_start,
                end_cycle=attack_end,
            )
        )
        guard = DL2FenceGuard(
            OracleFence([attacker]),
            policy,
            attack_start=attack_start,
            true_attackers=(attacker,),
        )
        guard.attach(simulator, monitor_config=MonitorConfig(sample_period=self.PERIOD))
        total_windows = 3 + attack_windows + post_windows
        simulator.run(self.WARMUP + total_windows * self.PERIOD + 1)
        return guard.report

    def test_throttling_restores_benign_latency(self):
        report = self._run(
            MitigationPolicy.quarantine(
                engage_after=2, release_after=6, flush_queue=True
            )
        )
        pre = report.pre_attack_latency()
        attacked = report.attack_latency()
        mitigated = report.post_mitigation_latency()
        assert attacked > pre  # the attack measurably hurt benign traffic
        assert mitigated < attacked  # mitigation clawed latency back
        assert mitigated <= pre * 1.25  # ... to near the no-attack level

    def test_hysteresis_releases_after_attack_stops(self):
        report = self._run(
            MitigationPolicy.throttle(
                0.1, engage_after=2, release_after=2, flush_queue=True
            ),
            attack_windows=6,
            post_windows=5,
        )
        assert report.engagement_cycle is not None
        assert report.release_cycle is not None
        assert report.release_cycle > report.engagement_cycle
        # nothing left restricted at the end of the run
        assert report.windows[-1].restricted == ()


class TestTrainedPipelineIntegration:
    """The full learned loop on the session's small trained pipeline."""

    def _simulator(self, builder, scenario=None, fir=0.8, windows=8):
        config = builder.config
        simulator = NoCSimulator(
            SimulationConfig(
                rows=config.rows, warmup_cycles=config.warmup_cycles, seed=5
            )
        )
        simulator.add_source(builder.make_workload("blackscholes", seed=77))
        attack_start = config.warmup_cycles + 2 * config.sample_period
        if scenario is not None:
            simulator.add_source(
                AttackScenario(
                    attackers=scenario.attackers,
                    victim=scenario.victim,
                    fir=fir,
                ).build_source(
                    builder.topology,
                    seed=78,
                    start_cycle=attack_start,
                )
            )
        cycles = config.warmup_cycles + windows * config.sample_period + 1
        return simulator, attack_start, cycles

    def test_engages_on_sustained_attack(
        self, trained_pipeline, small_builder, example_scenario
    ):
        simulator, attack_start, cycles = self._simulator(
            small_builder, scenario=example_scenario
        )
        guard = DL2FenceGuard(
            trained_pipeline,
            MitigationPolicy.throttle(0.1, engage_after=2),
            attack_start=attack_start,
            true_attackers=example_scenario.attackers,
        )
        guard.attach(
            simulator,
            monitor_config=MonitorConfig(
                sample_period=small_builder.config.sample_period
            ),
        )
        simulator.run(cycles)
        report = guard.report
        assert report.first_detection_cycle is not None
        assert report.engagement_cycle is not None
        assert report.engaged_nodes

    def test_does_not_engage_on_benign_traffic(
        self, trained_pipeline, small_builder
    ):
        simulator, _, cycles = self._simulator(small_builder, scenario=None)
        guard = DL2FenceGuard(
            trained_pipeline, MitigationPolicy.throttle(0.1, engage_after=2)
        )
        guard.attach(
            simulator,
            monitor_config=MonitorConfig(
                sample_period=small_builder.config.sample_period
            ),
        )
        simulator.run(cycles)
        assert guard.report.engagement_cycle is None
        assert guard.engaged_nodes == []
        assert simulator.restricted_nodes == []
