"""Unit tests for packets and flits."""

import pytest

from repro.noc.packet import Flit, FlitType, Packet


class TestPacketConstruction:
    def test_defaults(self):
        packet = Packet(source=0, destination=5)
        assert packet.size_flits == 4
        assert not packet.is_malicious
        assert not packet.is_delivered

    def test_unique_ids(self):
        a = Packet(source=0, destination=1)
        b = Packet(source=0, destination=1)
        assert a.packet_id != b.packet_id

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Packet(source=0, destination=1, size_flits=0)

    def test_self_destination_rejected(self):
        with pytest.raises(ValueError):
            Packet(source=3, destination=3)


class TestFlitSerialisation:
    def test_multi_flit_structure(self):
        packet = Packet(source=0, destination=1, size_flits=4)
        flits = packet.to_flits()
        assert len(flits) == 4
        assert flits[0].flit_type is FlitType.HEAD
        assert flits[1].flit_type is FlitType.BODY
        assert flits[-1].flit_type is FlitType.TAIL
        assert [f.index for f in flits] == [0, 1, 2, 3]

    def test_single_flit_packet(self):
        packet = Packet(source=0, destination=1, size_flits=1)
        (flit,) = packet.to_flits()
        assert flit.flit_type is FlitType.HEAD_TAIL
        assert flit.is_head and flit.is_tail

    def test_flit_destination_mirrors_packet(self):
        packet = Packet(source=2, destination=9)
        assert all(f.destination == 9 for f in packet.to_flits())

    def test_two_flit_packet_has_head_and_tail(self):
        packet = Packet(source=0, destination=1, size_flits=2)
        flits = packet.to_flits()
        assert flits[0].is_head and not flits[0].is_tail
        assert flits[1].is_tail and not flits[1].is_head


class TestLatencyAccounting:
    def test_delivered_once_ejected(self):
        packet = Packet(source=0, destination=1, created_cycle=10)
        packet.injected_cycle = 14
        assert not packet.is_delivered
        packet.ejected_cycle = 30
        assert packet.is_delivered
