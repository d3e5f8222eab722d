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

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.attacks import ATTACK_LIBRARY, default_attack_suite
from repro.monitor.features import FeatureKind
from repro.monitor.sampler import GlobalPerformanceMonitor, MonitorConfig
from repro.noc.batch_sim import BatchedNoCSimulator
from repro.noc.simulator import NoCSimulator, SimulationConfig
from repro.noc.soa import _vc_tables
from repro.noc.soa_batch import batched_tables
from repro.noc.soa_step import KEY_PERIOD
from repro.noc.topology import Direction, MeshTopology
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
        batched.lane(1).quarantine_node(2)
        network = batched.network
        for read in (
            lambda: network.restricted_nodes,
            lambda: network.injection_limits,
            lambda: network.reset_injection_limits(),
            lambda: network.routers,
            lambda: network.source_queues,
            lambda: network.local_boc(),
            lambda: network.flush_source_queue(2),
            lambda: network.reset_boc_counters(),
            lambda: network.stats,
            lambda: batched.stats,
            lambda: batched.restricted_nodes,
            lambda: batched.add_source(None),
        ):
            with pytest.raises(TypeError):
                read()
        # The refused reset must not have lifted lane 1's quarantine.
        assert batched.lane(1).restricted_nodes == [2]
        # Whole-batch flit counts stay available as aggregates.
        lanes = [batched.lane(index).network for index in range(2)]
        for member in ("in_flight_flits", "queued_flits", "drainable_queued_flits"):
            assert getattr(network, member) == sum(
                getattr(lane, member) for lane in lanes
            )

    def test_finished_batch_is_freed_by_reference_counting(self):
        """No reference cycle keeps a dropped batch (and its arrays) alive.

        Dataset builds drop one batch per chunk; with a cycle each waited
        for the cycle collector, and peak memory depended on its timing.
        """
        gc.disable()
        try:
            batched, _ = _batched_run(4, [("flood", 1), ("benign", 2)], 120)
            assert batched.lane(0).stats.delivered
            refs = [
                weakref.ref(obj)
                for obj in (batched, batched.network, batched.lane(1))
            ]
            del batched
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()

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


def _surface_snapshot(network):
    """Every per-episode network member a lane re-exposes, read once."""
    topology = network.topology
    return {
        "dropped": network.dropped_packets,
        "in_flight": network.in_flight_flits,
        "queued": network.queued_flits,
        "drainable": network.drainable_queued_flits,
        "local_boc": network.local_boc(),
        "limits": network.injection_limits,
        "restricted": network.restricted_nodes,
        "queue_lengths": [
            len(network.source_queues[node]) for node in topology.nodes()
        ],
        "routers": [
            (
                [network.router(node).vco(d) for d in Direction],
                [network.router(node).boc(d) for d in Direction],
                network.router(node).flits_ejected,
                network.router(node).packets_ejected,
                network.router(node).buffered_flits,
            )
            for node in topology.nodes()
        ],
    }


class TestLaneSurfaceParity:
    def test_lane_members_match_solo_through_quarantine_and_flush(self):
        """A lane's per-episode members equal a solo run's, member by member.

        Lane 1 of a two-episode batch (a non-zero block offset) is driven
        through a mid-run quarantine + flush of the flood's attackers, a
        full rollback and more traffic; at every checkpoint the flush return
        values, drops, flit counts, LOCAL-port BOC, limits, queue lengths
        and per-router VCO/BOC views must equal the solo episode's.
        """
        rows = 6
        attackers = (rows * rows - 1, 3)
        batched, _ = _batched_run(rows, [("flood", 21), ("flood", 9)], 0)
        solo, _ = _solo_run(rows, "flood", 9, 0)
        lane = batched.lane(1)
        for simulator in (batched, solo):
            simulator.run(150)
        assert _surface_snapshot(lane.network) == _surface_snapshot(solo.network)

        flushed = []
        for episode in (lane, solo):
            for node in attackers:
                episode.quarantine_node(node)
            flushed.append(
                [episode.network.flush_source_queue(node) for node in attackers]
            )
        assert flushed[0] == flushed[1]
        assert sum(flushed[1]) > 0
        assert _surface_snapshot(lane.network) == _surface_snapshot(solo.network)

        for simulator in (batched, solo):
            simulator.run(100)
        lane_snapshot = _surface_snapshot(lane.network)
        assert lane_snapshot == _surface_snapshot(solo.network)
        assert lane_snapshot["restricted"] == sorted(attackers)

        for episode in (lane, solo):
            episode.network.reset_injection_limits()
        assert batched.lane(0).restricted_nodes == []
        assert _surface_snapshot(lane.network) == _surface_snapshot(solo.network)
        for simulator in (batched, solo):
            simulator.run(60)
        assert _surface_snapshot(lane.network) == _surface_snapshot(solo.network)
        assert_lane_matches_solo(lane, solo)


class TestSharedLookupTables:
    """Lanes read the solo arbitration-key table; nothing is tiled per lane."""

    def test_key_table_is_the_solo_table(self):
        topology = MeshTopology(rows=6, columns=6)
        _, tables = batched_tables(topology, 4, 3)
        assert tables.key_table is _vc_tables(topology, 4).key_table
        lane_vcs = topology.num_nodes * 5 * 4
        np.testing.assert_array_equal(
            tables.q_local, np.arange(3 * lane_vcs) % lane_vcs
        )

    def test_each_batch_builds_its_own_lane_columns(self):
        """No process-wide cache: a second build is a new table set."""
        topology = MeshTopology(rows=4, columns=4)
        first = batched_tables(topology, 4, 3)[1]
        second = batched_tables(topology, 4, 3)[1]
        assert first.q_node is not second.q_node
        np.testing.assert_array_equal(first.q_node, second.q_node)
        assert first.key_table is second.key_table

    def test_lane_columns_are_freed_with_the_batch(self):
        gc.disable()
        try:
            batched, _ = _batched_run(4, [("flood", 1), ("benign", 2)], 0)
            ref = weakref.ref(batched.network._q_node)
            del batched
            assert ref() is None
        finally:
            gc.enable()

    def test_training_batch_tables_stay_small(self):
        """Array bytes of the 14-lane 16x16 training build's tables."""
        mesh, tables = batched_tables(MeshTopology(rows=16, columns=16), 4, 14)
        total = sum(
            value.nbytes
            for table in (mesh, tables)
            for value in (getattr(table, f.name) for f in dataclasses.fields(table))
            if isinstance(value, np.ndarray)
        )
        # One key-table copy per lane would be 17.2 MB on its own.
        per_lane_keys = 14 * tables.key_table.nbytes
        assert tables.key_table.shape[0] == KEY_PERIOD
        assert total < 8_000_000 < per_lane_keys
