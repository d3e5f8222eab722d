"""Unit tests for the simulator driver and latency statistics."""

import pytest

from repro.noc.packet import Packet
from repro.noc.simulator import NoCSimulator, SimulationConfig
from repro.noc.stats import LatencyStats
from repro.noc.topology import MeshTopology


class OneShotSource:
    """Injects a fixed list of packets at given cycles."""

    def __init__(self, schedule):
        self.schedule = schedule  # dict: cycle -> list[Packet]

    def packets_for_cycle(self, cycle):
        return self.schedule.get(cycle, [])


class TestSimulationConfig:
    def test_square_default(self):
        config = SimulationConfig(rows=4)
        assert config.columns == 4
        assert config.topology().num_nodes == 16

    def test_invalid(self):
        with pytest.raises(ValueError):
            SimulationConfig(rows=0)
        with pytest.raises(ValueError):
            SimulationConfig(rows=4, warmup_cycles=-1)


class TestSimulatorRun:
    def test_delivers_scheduled_packets(self):
        sim = NoCSimulator(SimulationConfig(rows=4, warmup_cycles=0))
        packet = Packet(source=0, destination=15, size_flits=2, created_cycle=0)
        sim.add_source(OneShotSource({0: [packet]}))
        sim.run(40)
        assert packet.is_delivered
        assert sim.stats.packets_delivered == 1
        assert sim.cycle == 40

    def test_run_negative_rejected(self):
        sim = NoCSimulator(SimulationConfig(rows=4))
        with pytest.raises(ValueError):
            sim.run(-1)

    def test_drain_empties_network(self):
        sim = NoCSimulator(SimulationConfig(rows=4, warmup_cycles=0))
        packets = [
            Packet(source=i, destination=15 - i, size_flits=4, created_cycle=0)
            for i in range(4)
        ]
        sim.add_source(OneShotSource({0: packets}))
        sim.run(2)
        extra = sim.drain()
        assert extra > 0
        assert sim.network.in_flight_flits == 0
        assert all(p.is_delivered for p in packets)

    def test_drain_restores_sources(self):
        sim = NoCSimulator(SimulationConfig(rows=4, warmup_cycles=0))
        source = OneShotSource({})
        sim.add_source(source)
        sim.drain()
        assert sim.sources == [source]

    def test_sources_attached_mid_run_and_after_drain_inject(self):
        """The driver's cached ingress order follows add_source and drain."""
        sim = NoCSimulator(SimulationConfig(rows=4, warmup_cycles=0))
        early = Packet(source=0, destination=15, size_flits=2, created_cycle=0)
        sim.add_source(OneShotSource({0: [early]}))
        sim.run(5)
        late = Packet(source=3, destination=12, size_flits=2, created_cycle=10)
        sim.add_source(OneShotSource({10: [late]}))
        sim.run(40)
        sim.drain()
        cycle = sim.cycle
        after = Packet(source=5, destination=6, size_flits=2, created_cycle=cycle)
        sim.add_source(OneShotSource({cycle: [after]}))
        sim.run(30)
        assert early.is_delivered and late.is_delivered and after.is_delivered
        assert sim.stats.packets_delivered == 3


class TestObservers:
    def test_observer_called_at_period(self):
        sim = NoCSimulator(SimulationConfig(rows=4, warmup_cycles=0))
        calls = []
        sim.add_observer(10, lambda s: calls.append(s.cycle))
        sim.run(35)
        assert calls == [10, 20, 30]

    def test_observer_respects_warmup(self):
        sim = NoCSimulator(SimulationConfig(rows=4, warmup_cycles=20))
        calls = []
        sim.add_observer(10, lambda s: calls.append(s.cycle))
        sim.run(45)
        assert calls == [30, 40]

    def test_observer_attached_mid_run_and_during_drain(self):
        sim = NoCSimulator(SimulationConfig(rows=4, warmup_cycles=0))
        first, second = [], []
        sim.add_observer(10, lambda s: first.append(s.cycle))
        sim.run(25)
        sim.add_observer(10, lambda s: second.append(s.cycle))
        sim.run(20)
        assert first == [10, 20, 30, 40]
        assert second == [30, 40]
        sim.add_source(
            OneShotSource(
                {45: [Packet(source=0, destination=15, size_flits=4, created_cycle=45)]}
            )
        )
        sim.run(1)
        assert sim.drain() > 4
        assert first[-1] == second[-1] == 50

    def test_invalid_period(self):
        sim = NoCSimulator(SimulationConfig(rows=4))
        with pytest.raises(ValueError):
            sim.add_observer(0, lambda s: None)


class TestLatencyStats:
    def test_from_delivered_packets(self):
        packet = Packet(source=0, destination=1, size_flits=2, created_cycle=0)
        packet.injected_cycle = 4
        packet.ejected_cycle = 10
        stats = LatencyStats.from_packets([packet])
        assert stats.delivered_packets == 1
        assert stats.delivered_flits == 2
        assert stats.packet_latency == 10.0
        assert stats.packet_queue_latency == 4.0
        assert stats.flit_queue_latency == 4.0
        assert stats.flit_latency == pytest.approx(4.0 + 3.0)

    def test_empty_stats(self):
        stats = LatencyStats.from_packets([])
        assert stats.delivered_packets == 0
        assert stats.packet_latency == 0.0

    def test_ignores_undelivered(self):
        undelivered = Packet(source=0, destination=1)
        stats = LatencyStats.from_packets([undelivered])
        assert stats.delivered_packets == 0

    def test_benign_only_filter(self):
        sim = NoCSimulator(SimulationConfig(rows=4, warmup_cycles=0))
        benign = Packet(source=0, destination=3, size_flits=1, created_cycle=0)
        malicious = Packet(
            source=12, destination=15, size_flits=1, created_cycle=0, is_malicious=True
        )
        sim.add_source(OneShotSource({0: [benign, malicious]}))
        sim.run(30)
        assert sim.latency(benign_only=True).delivered_packets == 1
        assert sim.latency(benign_only=False).delivered_packets == 2

    def test_delivery_ratio(self):
        sim = NoCSimulator(SimulationConfig(rows=4, warmup_cycles=0))
        assert sim.stats.delivery_ratio == 1.0
