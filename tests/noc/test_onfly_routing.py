"""On-the-fly XY routing past the route-table cut-over (large-mesh path).

The SoA backend's precomputed next-hop table is O(nodes²); past 48x48 the
switch kernel derives output directions from coordinates instead.  These
tests force the on-the-fly path on small meshes (``REPRO_XY_TABLE_MAX_NODES=0``)
and pin it behavior-identical to both the table path and the object
reference model, then smoke-test a 64x64 mesh — the scale the table would
have needed ~85 MB for.
"""

import numpy as np
import pytest

from repro.monitor.sampler import GlobalPerformanceMonitor, MonitorConfig
from repro.noc.simulator import NoCSimulator, SimulationConfig
from repro.noc.soa import DEFAULT_XY_TABLE_MAX_NODES, mesh_tables
from repro.noc.topology import MeshTopology
from repro.traffic.scenario import AttackScenario
from repro.traffic.synthetic import UniformRandomTraffic

from .test_soa_equivalence import assert_same_samples, assert_same_stats


def _flooded(backend, rows=6, cycles=450, seed=0):
    simulator = NoCSimulator(
        SimulationConfig(rows=rows, warmup_cycles=16, seed=seed, backend=backend)
    )
    simulator.add_source(
        UniformRandomTraffic(simulator.topology, injection_rate=0.05, seed=seed + 1)
    )
    simulator.add_source(
        AttackScenario(attackers=(rows * rows - 1, 3), victim=1, fir=0.8).build_source(
            simulator.topology,
            seed=seed + 2,
        )
    )
    monitor = GlobalPerformanceMonitor(MonitorConfig(sample_period=64)).attach(
        simulator
    )
    simulator.run(cycles)
    return simulator, monitor


class TestOnTheFlyEquivalence:
    def test_forced_onfly_matches_table_path(self, monkeypatch):
        """REPRO_XY_TABLE_MAX_NODES=0 must not change a single observable."""
        monkeypatch.setenv("REPRO_XY_TABLE_MAX_NODES", "0")
        onfly, onfly_monitor = _flooded("soa")
        assert onfly.network._route_slot is None
        assert onfly.network._tables.route is None
        monkeypatch.delenv("REPRO_XY_TABLE_MAX_NODES")
        table, table_monitor = _flooded("soa")
        assert table.network._route_slot is not None
        assert_same_samples(onfly_monitor, table_monitor)
        assert_same_stats(onfly, table)

    def test_forced_onfly_matches_object_backend(self, monkeypatch):
        """The coordinate kernel is fingerprint-identical to the reference model."""
        monkeypatch.setenv("REPRO_XY_TABLE_MAX_NODES", "0")
        onfly, onfly_monitor = _flooded("soa")
        obj, obj_monitor = _flooded("object")
        assert_same_samples(onfly_monitor, obj_monitor)
        assert_same_stats(onfly, obj)

    def test_tables_cache_keyed_by_cutover(self, monkeypatch):
        """Flipping the cut-over must not serve a stale cached table set."""
        topology = MeshTopology(rows=5)
        monkeypatch.setenv("REPRO_XY_TABLE_MAX_NODES", "0")
        without = mesh_tables(topology)
        assert without.route is None
        monkeypatch.delenv("REPRO_XY_TABLE_MAX_NODES")
        with_table = mesh_tables(topology)
        assert with_table.route is not None
        assert np.array_equal(without.x, with_table.x)
        assert np.array_equal(without.y, with_table.y)


class TestLargeMeshSmoke:
    def test_cutover_default(self):
        assert DEFAULT_XY_TABLE_MAX_NODES == 48 * 48

    def test_64x64_routes_without_quadratic_table(self):
        """A 64x64 SoA mesh runs a flood without building the O(N²) table."""
        simulator = NoCSimulator(
            SimulationConfig(rows=64, warmup_cycles=0, seed=0, backend="soa")
        )
        assert simulator.network._route_slot is None
        assert simulator.network._tables.route is None
        victim = simulator.topology.node_id(1, 1)
        attacker = simulator.topology.node_id(62, 62)
        simulator.add_source(
            UniformRandomTraffic(simulator.topology, injection_rate=0.01, seed=1)
        )
        simulator.add_source(
            AttackScenario(attackers=(attacker,), victim=victim, fir=0.8).build_source(
                simulator.topology,
                seed=2,
            )
        )
        simulator.run(300)
        assert simulator.stats.packets_delivered > 0
        assert simulator.stats.malicious_packets_delivered > 0
        # XY delivery correctness: every delivered packet reached its target.
        for packet in simulator.stats.delivered:
            assert packet.ejected_cycle is not None
