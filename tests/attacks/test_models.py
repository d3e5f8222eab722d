"""Unit tests for the refined-DoS attack model library."""

import numpy as np
import pytest

from repro.attacks import (
    ATTACK_LIBRARY,
    ColludingFloodAttack,
    MigratingFloodAttack,
    OnRouteFloodAttack,
    PulsedFloodAttack,
    RampingFloodAttack,
    default_attack,
    default_attack_suite,
)
from repro.noc.topology import MeshTopology


TOPOLOGY = MeshTopology(rows=8)


class TestLibrary:
    def test_registry_names(self):
        assert set(ATTACK_LIBRARY) == {
            "pulsed",
            "ramping",
            "migrating",
            "colluding",
            "onroute",
        }

    @pytest.mark.parametrize("name", sorted(ATTACK_LIBRARY))
    def test_default_placements_valid(self, name):
        for rows in (6, 8, 16):
            topology = MeshTopology(rows=rows)
            model = default_attack(name, topology, sample_period=192)
            model.validate(topology)
            assert model.name == name
            assert model.attackers
            assert model.describe()

    def test_default_suite_covers_library(self):
        suite = default_attack_suite(TOPOLOGY, sample_period=200)
        assert set(suite) == set(ATTACK_LIBRARY)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            default_attack("teleporting", TOPOLOGY, sample_period=200)

    def test_too_small_mesh(self):
        with pytest.raises(ValueError):
            default_attack("pulsed", MeshTopology(rows=4), sample_period=200)


class TestPulsed:
    def test_duty_cycle_profile(self):
        attack = PulsedFloodAttack(
            attackers=(54,), victim=9, fir=0.9, on_cycles=10, off_cycles=30
        )
        assert attack.duty_cycle == 0.25
        assert attack.fir_profile_at(0) is not None
        assert attack.fir_profile_at(9) is not None
        assert attack.fir_profile_at(10) is None  # silence, no RNG draw
        assert attack.fir_profile_at(39) is None
        assert attack.fir_profile_at(40) is not None  # next burst

    def test_phase_offsets_bursts(self):
        attack = PulsedFloodAttack(
            attackers=(54,), victim=9, on_cycles=10, off_cycles=30, phase=10
        )
        assert attack.fir_profile_at(0) is None
        assert attack.fir_profile_at(30) is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            PulsedFloodAttack(attackers=(), victim=9)
        with pytest.raises(ValueError):
            PulsedFloodAttack(attackers=(9,), victim=9)
        with pytest.raises(ValueError):
            PulsedFloodAttack(attackers=(54,), victim=9, on_cycles=0)


class TestRamping:
    def test_linear_climb_then_hold(self):
        attack = RampingFloodAttack(
            attackers=(54,), victim=9, fir_start=0.1, fir_peak=0.9, ramp_cycles=100
        )
        assert attack.fir_at(0) == pytest.approx(0.1)
        assert attack.fir_at(50) == pytest.approx(0.5)
        assert attack.fir_at(100) == pytest.approx(0.9)
        assert attack.fir_at(10_000) == pytest.approx(0.9)
        profile = attack.fir_profile_at(50)
        assert profile.shape == (1,)
        assert profile[0] == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            RampingFloodAttack(attackers=(54,), victim=9, fir_start=0.9, fir_peak=0.1)


class TestMigrating:
    ATTACK = MigratingFloodAttack(path=(54, 14, 49), victim=9, fir=0.8, dwell_cycles=100)

    def test_profile_activates_one_position(self):
        profile = self.ATTACK.fir_profile_at(150)
        assert profile.tolist() == [0.0, 0.8, 0.0]

    def test_attackers_are_all_positions(self):
        assert self.ATTACK.attackers == (14, 49, 54)

    def test_validation(self):
        with pytest.raises(ValueError):
            MigratingFloodAttack(path=(54,), victim=9)
        with pytest.raises(ValueError):
            MigratingFloodAttack(path=(54, 54), victim=9)
        with pytest.raises(ValueError):
            MigratingFloodAttack(path=(54, 9), victim=9)


class TestColluding:
    def test_aggregate_fir(self):
        attack = ColludingFloodAttack(sources=(54, 49, 14, 52), victim=9, fir=0.15)
        assert attack.aggregate_fir == pytest.approx(0.6)
        assert attack.attackers == (14, 49, 52, 54)

    def test_cross_placement_has_no_shared_routers(self):
        """The canonical colluding placement: four disjoint straight legs."""
        attack = default_attack("colluding", TOPOLOGY, sample_period=200)
        routes = []
        for source, victim in zip(*attack.emitters()):
            from repro.noc.routing import xy_route_victims

            route = set(xy_route_victims(TOPOLOGY, source, victim))
            route.discard(victim)
            routes.append(route)
        for i, a in enumerate(routes):
            for b in routes[i + 1 :]:
                assert not a & b

    def test_validation(self):
        with pytest.raises(ValueError):
            ColludingFloodAttack(sources=(54,), victim=9)
        with pytest.raises(ValueError):
            ColludingFloodAttack(sources=(54, 9), victim=9)


class TestOnRoute:
    def test_requires_on_route_placement(self):
        attack = OnRouteFloodAttack(
            primary_attacker=54, onroute_attacker=52, victim=9
        )
        attack.validate(TOPOLOGY)  # 52 lies on the 54 -> 9 XY route
        off_route = OnRouteFloodAttack(
            primary_attacker=54, onroute_attacker=63, victim=9
        )
        with pytest.raises(ValueError):
            off_route.validate(TOPOLOGY)
        # The victim itself is not a valid hiding spot.
        not_intermediate = OnRouteFloodAttack(
            primary_attacker=54, onroute_attacker=10, victim=9
        )
        with pytest.raises(ValueError):
            not_intermediate.validate(TOPOLOGY)

    def test_emitters_share_victim(self):
        attack = OnRouteFloodAttack(primary_attacker=54, onroute_attacker=52, victim=9)
        sources, victims = attack.emitters()
        assert sources == (54, 52)
        assert victims == (9, 9)
        assert attack.attackers == (52, 54)


class TestAttackSource:
    def test_window_gating_and_counters(self):
        model = PulsedFloodAttack(
            attackers=(54,), victim=9, fir=1.0, on_cycles=10, off_cycles=10
        )
        source = model.build_source(TOPOLOGY, seed=3, start_cycle=100, end_cycle=140)
        assert not source.is_active_in(99, 100)
        assert source.is_active_in(100, 101)
        assert not source.is_active_in(112, 113)  # off phase
        assert not source.is_active_in(140, 141)  # window closed
        assert source.packets_for_cycle(50) == []
        packets = source.packets_for_cycle(100)
        assert len(packets) == 1  # fir=1.0 burst
        assert packets[0].is_malicious
        assert source.packets_generated == 1

    def test_object_and_batch_paths_share_one_stream(self):
        model = ColludingFloodAttack(sources=(54, 49, 14), victim=9, fir=0.5)
        obj = model.build_source(TOPOLOGY, seed=7)
        batch = model.build_source(TOPOLOGY, seed=7)
        for cycle in range(200):
            packets = obj.packets_for_cycle(cycle)
            arrays = batch.packet_batch_for_cycle(cycle)
            if arrays is None:
                assert packets == []
                continue
            sources, destinations, size, malicious = arrays
            assert [p.source for p in packets] == sources.tolist()
            assert [p.destination for p in packets] == destinations.tolist()
            assert malicious
        assert obj.packets_generated == batch.packets_generated

    def test_migrating_draws_are_stream_stable(self):
        """Inactive positions draw RNG too, keeping both paths aligned."""
        model = MigratingFloodAttack(path=(54, 14), victim=9, fir=0.7, dwell_cycles=16)
        source = model.build_source(TOPOLOGY, seed=5)
        seen = set()
        for cycle in range(64):
            for packet in source.packets_for_cycle(cycle):
                seen.add(packet.source)
                assert packet.source == model.path[(cycle // 16) % 2]
        assert seen == {54, 14}

    def test_validates_against_topology(self):
        model = PulsedFloodAttack(attackers=(999,), victim=9)
        with pytest.raises(ValueError):
            model.build_source(TOPOLOGY)


class TestWindowActivity:
    """Window-level ground truth: emits_between / is_active_in."""

    def test_pulsed_burst_between_sampling_instants_marks_window(self):
        attack = PulsedFloodAttack(
            attackers=(54,), victim=9, fir=0.9, on_cycles=10, off_cycles=90
        )
        # Probe instants can both land in the off phase...
        assert attack.fir_profile_at(50) is None
        assert attack.fir_profile_at(150) is None
        # ...while the window between them contains a full burst.
        assert attack.emits_between(50, 150)
        # A window entirely inside one off phase stays clean.
        assert not attack.emits_between(11, 99)
        # Spanning a whole period always hits a burst.
        assert attack.emits_between(37, 137)
        assert not attack.emits_between(50, 50)

    def test_source_interval_respects_attack_window(self):
        model = PulsedFloodAttack(
            attackers=(54,), victim=9, fir=1.0, on_cycles=10, off_cycles=90
        )
        source = model.build_source(TOPOLOGY, start_cycle=1000, end_cycle=2000)
        assert not source.is_active_in(0, 1000)      # before the attack
        assert source.is_active_in(900, 1100)        # overlaps the first burst
        assert not source.is_active_in(2000, 9000)   # after the attack
        # Overlapping the window but only during an off phase: inactive.
        assert not source.is_active_in(1011, 1099)

    def test_continuous_variants_active_on_any_overlap(self):
        model = ColludingFloodAttack(sources=(54, 49), victim=9, fir=0.2)
        source = model.build_source(TOPOLOGY, start_cycle=500, end_cycle=600)
        assert source.is_active_in(0, 501)
        assert source.is_active_in(599, 700)
        assert not source.is_active_in(600, 700)
