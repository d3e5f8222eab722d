"""Unit tests for the global performance monitor."""

import numpy as np
import pytest

from repro.monitor.sampler import GlobalPerformanceMonitor, MonitorConfig
from repro.noc.simulator import NoCSimulator, SimulationConfig
from repro.noc.topology import Direction, MeshTopology
from repro.traffic.scenario import AttackScenario
from repro.traffic.synthetic import UniformRandomTraffic


def make_simulator(with_attack=False, rows=6, warmup=16, seed=0):
    sim = NoCSimulator(SimulationConfig(rows=rows, warmup_cycles=warmup, seed=seed))
    sim.add_source(UniformRandomTraffic(sim.topology, injection_rate=0.03, seed=seed))
    if with_attack:
        attack = AttackScenario(attackers=(rows * rows - 1,), victim=0, fir=0.9)
        attacker = attack.build_source(sim.topology, seed=seed + 1)
        sim.add_source(attacker)
    return sim


class TestMonitorConfig:
    def test_invalid_period(self):
        with pytest.raises(ValueError):
            MonitorConfig(sample_period=0)


class TestStreaming:
    def test_listeners_receive_each_sample_live(self):
        sim = make_simulator()
        monitor = GlobalPerformanceMonitor(MonitorConfig(sample_period=50)).attach(sim)
        received = []
        monitor.add_listener(
            lambda sample, simulator: received.append((sample.cycle, simulator))
        )
        sim.run(16 + 50 * 3 + 1)
        assert [cycle for cycle, _ in received] == [s.cycle for s in monitor.samples]
        assert all(simulator is sim for _, simulator in received)

    def test_listener_sees_sample_after_it_is_recorded(self):
        """A listener can correlate the new sample with the monitor history."""
        sim = make_simulator()
        monitor = GlobalPerformanceMonitor(MonitorConfig(sample_period=50)).attach(sim)
        counts = []
        monitor.add_listener(lambda sample, _: counts.append(monitor.num_samples))
        sim.run(16 + 50 * 2 + 1)
        assert counts == [1, 2]


class TestListenerIsolation:
    def test_poison_listener_does_not_abort_capture(self):
        """A raising listener is isolated with a warning; sampling continues."""
        sim = make_simulator()
        monitor = GlobalPerformanceMonitor(MonitorConfig(sample_period=50)).attach(sim)
        received = []

        def poison(sample, simulator):
            raise RuntimeError("boom")

        monitor.add_listener(poison)
        monitor.add_listener(lambda sample, _: received.append(sample.cycle))
        with pytest.warns(RuntimeWarning, match="boom"):
            sim.run(16 + 50 * 3 + 1)
        # Every window was still captured and delivered to the healthy listener.
        assert monitor.num_samples == 3
        assert received == [s.cycle for s in monitor.samples]

    def test_critical_listener_still_fails_fast(self):
        """The guard's listener keeps its fail-fast contract via critical=True."""
        sim = make_simulator()
        monitor = GlobalPerformanceMonitor(MonitorConfig(sample_period=50)).attach(sim)

        def poison(sample, simulator):
            raise RuntimeError("guard failure must propagate")

        monitor.add_listener(poison, critical=True)
        with pytest.raises(RuntimeError, match="must propagate"):
            sim.run(16 + 50 + 1)


class TestSampling:
    def test_collects_expected_number_of_samples(self):
        sim = make_simulator()
        monitor = GlobalPerformanceMonitor(MonitorConfig(sample_period=50)).attach(sim)
        sim.run(16 + 50 * 3 + 1)
        assert monitor.num_samples == 3

    def test_sample_contains_both_features_and_all_directions(self):
        sim = make_simulator()
        monitor = GlobalPerformanceMonitor(MonitorConfig(sample_period=40)).attach(sim)
        sim.run(100)
        sample = monitor.samples[0]
        for direction in Direction.cardinal():
            assert sample.vco[direction].values.shape == (6, 5) or sample.vco[
                direction
            ].values.shape == (5, 6)
            assert sample.boc[direction].values.shape == sample.vco[direction].values.shape

    def test_boc_reset_between_windows(self):
        sim = make_simulator()
        monitor = GlobalPerformanceMonitor(MonitorConfig(sample_period=60)).attach(sim)
        sim.run(16 + 60 * 2 + 1)
        first, second = monitor.samples[:2]
        # BOC accumulates per window, so the second window's counts are not a
        # strict superset of the first (they were reset in between).
        total_first = sum(first.boc[d].values.sum() for d in Direction.cardinal())
        total_second = sum(second.boc[d].values.sum() for d in Direction.cardinal())
        assert total_first > 0
        assert total_second < 2.5 * total_first

    def test_no_reset_option_accumulates(self):
        sim = make_simulator()
        monitor = GlobalPerformanceMonitor(
            MonitorConfig(sample_period=60, reset_boc_after_sample=False)
        ).attach(sim)
        sim.run(16 + 60 * 2 + 1)
        first, second = monitor.samples[:2]
        total_first = sum(first.boc[d].values.sum() for d in Direction.cardinal())
        total_second = sum(second.boc[d].values.sum() for d in Direction.cardinal())
        assert total_second > total_first

    def test_attack_flag_tracks_attacker(self):
        sim = make_simulator(with_attack=True)
        monitor = GlobalPerformanceMonitor(MonitorConfig(sample_period=50)).attach(sim)
        sim.run(200)
        assert monitor.num_samples > 0
        assert all(s.attack_active for s in monitor.samples)

    def test_benign_simulation_flags_no_attack(self):
        sim = make_simulator(with_attack=False)
        monitor = GlobalPerformanceMonitor(MonitorConfig(sample_period=50)).attach(sim)
        sim.run(200)
        assert all(not s.attack_active for s in monitor.samples)

    def test_clear(self):
        sim = make_simulator()
        monitor = GlobalPerformanceMonitor(MonitorConfig(sample_period=50)).attach(sim)
        sim.run(120)
        monitor.clear()
        assert monitor.num_samples == 0

    def test_attack_frames_show_higher_route_activity(self):
        benign_sim = make_simulator(with_attack=False, seed=3)
        benign_monitor = GlobalPerformanceMonitor(MonitorConfig(sample_period=100)).attach(
            benign_sim
        )
        benign_sim.run(250)
        attack_sim = make_simulator(with_attack=True, seed=3)
        attack_monitor = GlobalPerformanceMonitor(MonitorConfig(sample_period=100)).attach(
            attack_sim
        )
        attack_sim.run(250)
        benign_boc = max(
            s.boc[d].values.max()
            for s in benign_monitor.samples
            for d in Direction.cardinal()
        )
        attack_boc = max(
            s.boc[d].values.max()
            for s in attack_monitor.samples
            for d in Direction.cardinal()
        )
        assert attack_boc > benign_boc
