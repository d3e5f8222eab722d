"""Fingerprint equivalence of the episode-batched SoA backend.

The batch axis is only allowed to buy *wall-clock*: a batched run of N
episodes must be observably indistinguishable, per episode, from N solo
SoA runs with the same seeds — feature frames (VCO floats included),
latency statistics, delivered-packet order, drop counts.  Two pins:

* ``batched(N=1)`` is fingerprint-identical to today's solo SoA path;
* ``batched(N=k)`` row ``i`` equals a solo run of episode ``i`` — episodes
  cannot bleed into each other through the shared state arrays, the
  grouped ingress, or the disjoint-union arbitration.

The matrix sweeps mesh sizes 4x4–16x16, benign/flood traffic, and all
five refined-DoS variants of :mod:`repro.attacks`.
"""

import numpy as np
import pytest

from repro.attacks import ATTACK_LIBRARY, default_attack_suite
from repro.monitor.features import FeatureKind
from repro.monitor.sampler import GlobalPerformanceMonitor, MonitorConfig
from repro.noc.batch_sim import BatchedNoCSimulator
from repro.noc.simulator import NoCSimulator, SimulationConfig
from repro.noc.topology import Direction
from repro.traffic.scenario import AttackScenario
from repro.traffic.synthetic import UniformRandomTraffic

SAMPLE_PERIOD = 64


def _packet_key(packet):
    return (
        packet.source,
        packet.destination,
        packet.size_flits,
        packet.created_cycle,
        packet.injected_cycle,
        packet.ejected_cycle,
        packet.is_malicious,
    )


def _wire_episode(simulator, rows, variant, seed):
    """Attach one episode's sources + monitor; identical for solo and lane."""
    topology = simulator.topology
    simulator.add_source(
        UniformRandomTraffic(topology, injection_rate=0.05, seed=seed + 1)
    )
    if variant == "flood":
        last = rows * rows - 1
        simulator.add_source(
            AttackScenario(attackers=(last, 3), victim=1, fir=0.8).build_source(
                topology,
                seed=seed + 2,
            )
        )
    elif variant != "benign":
        model = default_attack_suite(topology, SAMPLE_PERIOD)[variant]
        simulator.add_source(model.build_source(topology, seed=seed + 2))
    return GlobalPerformanceMonitor(MonitorConfig(sample_period=SAMPLE_PERIOD)).attach(
        simulator
    )


def _solo_run(rows, variant, seed, cycles):
    simulator = NoCSimulator(
        SimulationConfig(rows=rows, warmup_cycles=16, backend="soa", seed=seed)
    )
    monitor = _wire_episode(simulator, rows, variant, seed)
    simulator.run(cycles)
    return simulator, monitor


def _batched_run(rows, episodes, cycles):
    """One batched simulation; ``episodes`` is a list of (variant, seed)."""
    batched = BatchedNoCSimulator(
        SimulationConfig(rows=rows, warmup_cycles=16, backend="soa"),
        episodes=len(episodes),
    )
    monitors = [
        _wire_episode(batched.lane(index), rows, variant, seed)
        for index, (variant, seed) in enumerate(episodes)
    ]
    batched.run(cycles)
    return batched, monitors


def assert_same_samples(monitor_a, monitor_b):
    assert len(monitor_a.samples) == len(monitor_b.samples) > 0
    for sample_a, sample_b in zip(monitor_a.samples, monitor_b.samples):
        assert sample_a.cycle == sample_b.cycle
        assert sample_a.attack_active == sample_b.attack_active
        for kind in FeatureKind:
            for direction in Direction.cardinal():
                values_a = sample_a.feature(kind).frames[direction].values
                values_b = sample_b.feature(kind).frames[direction].values
                assert np.array_equal(values_a, values_b), (
                    sample_a.cycle,
                    kind,
                    direction,
                )


def assert_lane_matches_solo(lane, solo):
    """Full per-episode fingerprint: stats, delivery order, drops, latency."""
    stats_a, stats_b = lane.stats, solo.stats
    for field in (
        "cycles",
        "packets_created",
        "packets_injected",
        "packets_delivered",
        "flits_delivered",
        "malicious_packets_created",
        "malicious_packets_delivered",
    ):
        assert getattr(stats_a, field) == getattr(stats_b, field), field
    assert [_packet_key(p) for p in stats_a.delivered] == [
        _packet_key(p) for p in stats_b.delivered
    ]
    assert lane.network.dropped_packets == solo.network.dropped_packets
    for benign_only in (True, False):
        assert (
            lane.latency(benign_only=benign_only).as_dict()
            == solo.latency(benign_only=benign_only).as_dict()
        )


class TestSingleEpisodeIdentity:
    @pytest.mark.parametrize("rows", [4, 8, 16])
    def test_batched_n1_matches_solo(self, rows):
        """batched(N=1) is fingerprint-identical to the solo SoA path."""
        cycles = 400 if rows < 16 else 220
        batched, monitors = _batched_run(rows, [("flood", 7)], cycles)
        solo, solo_monitor = _solo_run(rows, "flood", 7, cycles)
        assert_same_samples(monitors[0], solo_monitor)
        assert_lane_matches_solo(batched.lane(0), solo)

    def test_batched_n1_benign(self):
        batched, monitors = _batched_run(6, [("benign", 3)], 400)
        solo, solo_monitor = _solo_run(6, "benign", 3, 400)
        assert_same_samples(monitors[0], solo_monitor)
        assert_lane_matches_solo(batched.lane(0), solo)


class TestEpisodeRowsMatchSoloRuns:
    @pytest.mark.parametrize("rows", [4, 8, 16])
    def test_mixed_lanes_match_solo_episodes(self, rows):
        """Row i of a mixed benign/flood batch equals solo episode i."""
        cycles = 400 if rows < 16 else 220
        episodes = [("benign", 11), ("flood", 22), ("flood", 33), ("benign", 44)]
        batched, monitors = _batched_run(rows, episodes, cycles)
        for index, (variant, seed) in enumerate(episodes):
            solo, solo_monitor = _solo_run(rows, variant, seed, cycles)
            assert_same_samples(monitors[index], solo_monitor)
            assert_lane_matches_solo(batched.lane(index), solo)

    @pytest.mark.parametrize("variant", sorted(ATTACK_LIBRARY))
    def test_refined_dos_variants(self, variant):
        """Every refined-DoS variant survives batching bit-identically.

        Each variant rides in a lane next to a benign episode, so the test
        also pins that an attacking episode cannot perturb a neighbour.
        """
        rows, cycles = 8, 400
        episodes = [(variant, 5), ("benign", 6), (variant, 7)]
        batched, monitors = _batched_run(rows, episodes, cycles)
        for index, (lane_variant, seed) in enumerate(episodes):
            solo, solo_monitor = _solo_run(rows, lane_variant, seed, cycles)
            assert_same_samples(monitors[index], solo_monitor)
            assert_lane_matches_solo(batched.lane(index), solo)


class TestLaneSurface:
    def test_direct_per_episode_calls_raise(self):
        batched, _ = _batched_run(4, [("benign", 1), ("benign", 2)], 10)
        with pytest.raises(TypeError):
            batched.network.enqueue_batch(
                np.array([0]), np.array([1]), 4, 0, False
            )
        with pytest.raises(TypeError):
            batched.network.feature_frames(FeatureKind.VCO)

    def test_lane_throttle_is_episode_local(self):
        """A quarantine on lane 0 must not restrict the same node of lane 1."""
        cycles = 300
        batched, _ = _batched_run(6, [("flood", 9), ("flood", 9)], 0)
        batched.lane(0).quarantine_node(2)
        batched.run(cycles)
        assert batched.lane(0).restricted_nodes == [2]
        assert batched.lane(1).restricted_nodes == []

        solo_restricted, _ = _solo_run(6, "flood", 9, 0)
        solo_restricted.quarantine_node(2)
        solo_restricted.run(cycles)
        assert_lane_matches_solo(batched.lane(0), solo_restricted)

        solo_free, _ = _solo_run(6, "flood", 9, 0)
        solo_free.run(cycles)
        assert_lane_matches_solo(batched.lane(1), solo_free)
