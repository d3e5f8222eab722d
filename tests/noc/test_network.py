"""Unit tests for the mesh network switching behaviour."""

import pytest

from repro.noc.network import MeshNetwork
from repro.noc.packet import Packet
from repro.noc.topology import Direction, MeshTopology


def run_cycles(network, cycles, start=0):
    for cycle in range(start, start + cycles):
        network.step(cycle)
    return start + cycles


class TestSinglePacketDelivery:
    def test_packet_reaches_destination(self):
        network = MeshNetwork(MeshTopology(rows=4))
        packet = Packet(source=0, destination=15, size_flits=4, created_cycle=0)
        assert network.enqueue_packet(packet)
        run_cycles(network, 40)
        assert packet.is_delivered
        assert network.stats.packets_delivered == 1
        assert network.stats.flits_delivered == 4

    def test_latency_at_least_hop_count(self):
        network = MeshNetwork(MeshTopology(rows=4))
        packet = Packet(source=0, destination=15, size_flits=1, created_cycle=0)
        network.enqueue_packet(packet)
        run_cycles(network, 40)
        # 6 hops plus injection/ejection stages.
        latency = packet.ejected_cycle - packet.created_cycle
        assert latency >= MeshTopology(rows=4).manhattan_distance(0, 15)

    def test_single_hop_neighbor(self):
        network = MeshNetwork(MeshTopology(rows=4))
        packet = Packet(source=0, destination=1, size_flits=2, created_cycle=0)
        network.enqueue_packet(packet)
        run_cycles(network, 20)
        assert packet.is_delivered

    def test_all_flits_accounted_for(self):
        network = MeshNetwork(MeshTopology(rows=4))
        packets = [
            Packet(source=i, destination=(i + 5) % 16, size_flits=3, created_cycle=0)
            for i in range(8)
        ]
        for packet in packets:
            network.enqueue_packet(packet)
        run_cycles(network, 120)
        assert all(p.is_delivered for p in packets)
        assert network.in_flight_flits == 0
        assert network.queued_flits == 0


class TestWormholeBehaviour:
    def test_flits_arrive_in_order(self):
        network = MeshNetwork(MeshTopology(rows=4))
        packet = Packet(source=0, destination=12, size_flits=6, created_cycle=0)
        network.enqueue_packet(packet)
        run_cycles(network, 60)
        assert packet.is_delivered

    def test_two_packets_from_same_source_both_arrive(self):
        network = MeshNetwork(MeshTopology(rows=4))
        first = Packet(source=0, destination=3, size_flits=4, created_cycle=0)
        second = Packet(source=0, destination=12, size_flits=4, created_cycle=0)
        network.enqueue_packet(first)
        network.enqueue_packet(second)
        run_cycles(network, 80)
        assert first.is_delivered and second.is_delivered

    def test_converging_flows_both_delivered(self):
        network = MeshNetwork(MeshTopology(rows=4))
        a = Packet(source=0, destination=5, size_flits=4, created_cycle=0)
        b = Packet(source=10, destination=5, size_flits=4, created_cycle=0)
        network.enqueue_packet(a)
        network.enqueue_packet(b)
        run_cycles(network, 80)
        assert a.is_delivered and b.is_delivered


class TestBackpressureAndDrops:
    def test_source_queue_overflow_drops_packets(self):
        network = MeshNetwork(MeshTopology(rows=4), source_queue_capacity=8)
        accepted = 0
        for _ in range(10):
            if network.enqueue_packet(Packet(source=0, destination=15, size_flits=4)):
                accepted += 1
        assert accepted == 2
        assert network.dropped_packets == 8

    def test_boc_accumulates_along_route_only(self):
        network = MeshNetwork(MeshTopology(rows=4))
        packet = Packet(source=0, destination=3, size_flits=4, created_cycle=0)
        network.enqueue_packet(packet)
        run_cycles(network, 30)
        # Routers 1..3 receive the packet on their WEST input ports.
        assert network.router(1).boc(Direction.WEST) > 0
        assert network.router(2).boc(Direction.WEST) > 0
        # A router far from the route saw no traffic.
        assert network.router(12).boc(Direction.EAST) == 0

    def test_reset_boc_counters(self):
        network = MeshNetwork(MeshTopology(rows=4))
        network.enqueue_packet(Packet(source=0, destination=3, size_flits=4))
        run_cycles(network, 30)
        network.reset_boc_counters()
        assert all(
            router.boc(direction) == 0
            for router in network.routers
            for direction in Direction.cardinal()
        )

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MeshNetwork(MeshTopology(rows=4), injection_bandwidth=0)
        with pytest.raises(ValueError):
            MeshNetwork(MeshTopology(rows=4), source_queue_capacity=0)


class TestMaliciousAccounting:
    def test_malicious_counters(self):
        network = MeshNetwork(MeshTopology(rows=4))
        network.enqueue_packet(
            Packet(source=0, destination=5, size_flits=2, is_malicious=True)
        )
        network.enqueue_packet(Packet(source=2, destination=9, size_flits=2))
        run_cycles(network, 40)
        assert network.stats.malicious_packets_created == 1
        assert network.stats.malicious_packets_delivered == 1
        assert network.stats.packets_delivered == 2
