"""Unit tests for attack-scenario composition."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import ATTACK_LIBRARY, AttackModel
from repro.noc.routing import xy_route_victims
from repro.noc.topology import MeshTopology
from repro.traffic.scenario import (
    AttackScenario,
    MultiAttackScenario,
    ScenarioGenerator,
    benchmark_names,
)

TOPO = MeshTopology(rows=8)


class TestBenchmarkNames:
    def test_six_plus_three(self):
        names = benchmark_names()
        assert len(names) == 9
        assert "uniform_random" in names
        assert "x264" in names

    def test_synthetic_only(self):
        assert len(benchmark_names(include_parsec=False)) == 6


class TestAttackScenario:
    def test_valid(self):
        scenario = AttackScenario(attackers=(10, 20), victim=5, fir=0.8)
        assert scenario.num_attackers == 2

    def test_victim_not_attacker(self):
        with pytest.raises(ValueError):
            AttackScenario(attackers=(5,), victim=5)

    def test_requires_attackers(self):
        with pytest.raises(ValueError):
            AttackScenario(attackers=(), victim=5)

    def test_invalid_fir(self):
        with pytest.raises(ValueError):
            AttackScenario(attackers=(1,), victim=5, fir=-0.1)

    def test_is_a_constant_attack_model(self):
        scenario = AttackScenario(attackers=(10, 12), victim=5, fir=0.6)
        assert isinstance(scenario, AttackModel)
        assert scenario.name not in ATTACK_LIBRARY
        assert scenario.emitters() == ((10, 12), (5, 5))
        for rel_cycle in (0, 1, 999):
            assert scenario.fir_profile_at(rel_cycle).tolist() == [0.6, 0.6]
        assert scenario.emits_between(0, 10)
        assert not replace(scenario, fir=0.0).emits_between(0, 10)

    def test_attacker_source_construction(self):
        scenario = AttackScenario(attackers=(10,), victim=5, fir=1.0)
        attacker = scenario.build_source(TOPO, seed=0, packet_size_flits=8)
        packets = attacker.packets_for_cycle(0)
        assert packets[0].source == 10
        assert packets[0].size_flits == 8

    def test_ground_truth_victims_single_attacker(self):
        scenario = AttackScenario(attackers=(3,), victim=0)
        assert scenario.ground_truth_victims(TOPO) == set(xy_route_victims(TOPO, 3, 0))

    def test_ground_truth_victims_union_of_routes(self):
        scenario = AttackScenario(attackers=(3, 24), victim=0)
        expected = set(xy_route_victims(TOPO, 3, 0)) | set(xy_route_victims(TOPO, 24, 0))
        assert scenario.ground_truth_victims(TOPO) == expected

    def test_describe_mentions_key_facts(self):
        scenario = AttackScenario(attackers=(3,), victim=0, fir=0.8, benchmark="tornado")
        text = scenario.describe()
        assert "tornado" in text
        assert "0.8" in text


class TestScenarioGenerator:
    def test_respects_attacker_count_and_distance(self):
        generator = ScenarioGenerator(TOPO, seed=0)
        scenario = generator.random_scenario(num_attackers=2, min_distance=3)
        assert scenario.num_attackers == 2
        for attacker in scenario.attackers:
            assert TOPO.manhattan_distance(attacker, scenario.victim) >= 3

    def test_reproducible(self):
        a = ScenarioGenerator(TOPO, seed=42).random_scenario()
        b = ScenarioGenerator(TOPO, seed=42).random_scenario()
        assert a == b

    def test_invalid_attacker_count(self):
        generator = ScenarioGenerator(TOPO, seed=0)
        with pytest.raises(ValueError):
            generator.random_scenario(num_attackers=0)
        with pytest.raises(ValueError):
            generator.random_scenario(num_attackers=TOPO.num_nodes)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_generated_scenarios_always_valid(self, seed):
        generator = ScenarioGenerator(TOPO, seed=seed)
        scenario = generator.random_scenario(num_attackers=2)
        assert scenario.victim not in scenario.attackers
        assert len(set(scenario.attackers)) == 2
        assert all(node in TOPO for node in scenario.attackers)


class TestMultiAttackScenario:
    def flows(self):
        return (
            AttackScenario(attackers=(62,), victim=9, fir=0.8),
            AttackScenario(attackers=(7,), victim=54, fir=0.4),
        )

    def test_aggregate_views(self):
        scenario = MultiAttackScenario(flows=self.flows())
        assert scenario.attackers == (7, 62)
        assert scenario.victims == (9, 54)
        assert scenario.num_attackers == 2
        assert scenario.num_flows == 2

    def test_duplicate_victims_rejected(self):
        with pytest.raises(ValueError):
            MultiAttackScenario(
                flows=(
                    AttackScenario(attackers=(62,), victim=9),
                    AttackScenario(attackers=(7,), victim=9),
                )
            )

    def test_shared_attacker_rejected(self):
        with pytest.raises(ValueError):
            MultiAttackScenario(
                flows=(
                    AttackScenario(attackers=(62,), victim=9),
                    AttackScenario(attackers=(62,), victim=54),
                )
            )

    def test_attacker_as_other_flows_victim_rejected(self):
        with pytest.raises(ValueError):
            MultiAttackScenario(
                flows=(
                    AttackScenario(attackers=(62,), victim=9),
                    AttackScenario(attackers=(9,), victim=54),
                )
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MultiAttackScenario(flows=())

    def test_with_fir_overrides_every_flow(self):
        scenario = MultiAttackScenario(flows=self.flows()).with_fir(0.6)
        assert all(flow.fir == 0.6 for flow in scenario.flows)

    def test_ground_truth_union(self):
        scenario = MultiAttackScenario(flows=self.flows())
        union = scenario.ground_truth_victims(TOPO)
        for flow in scenario.flows:
            assert flow.ground_truth_victims(TOPO) <= union

    def test_describe_mentions_every_flow(self):
        text = MultiAttackScenario(flows=self.flows()).describe()
        assert "62" in text and "54" in text


class TestRandomMultiScenario:
    def test_flows_are_node_disjoint(self):
        generator = ScenarioGenerator(TOPO, seed=4)
        scenario = generator.random_multi_scenario(num_flows=3)
        roles = list(scenario.attackers) + list(scenario.victims)
        assert len(roles) == len(set(roles))

    def test_no_attacker_on_another_flows_route(self):
        generator = ScenarioGenerator(TOPO, seed=4)
        for _ in range(20):
            scenario = generator.random_multi_scenario(num_flows=2)
            for flow in scenario.flows:
                others = set(scenario.attackers) - set(flow.attackers)
                assert not flow.ground_truth_victims(TOPO) & others

    def test_victim_separation_honoured(self):
        generator = ScenarioGenerator(TOPO, seed=5)
        scenario = generator.random_multi_scenario(
            num_flows=2, min_victim_separation=4
        )
        v1, v2 = scenario.victims
        assert TOPO.manhattan_distance(v1, v2) >= 4

    def test_same_seed_same_scenario(self):
        a = ScenarioGenerator(TOPO, seed=11).random_multi_scenario(num_flows=2)
        b = ScenarioGenerator(TOPO, seed=11).random_multi_scenario(num_flows=2)
        assert a == b

    def test_invalid_flow_count(self):
        with pytest.raises(ValueError):
            ScenarioGenerator(TOPO, seed=0).random_multi_scenario(num_flows=0)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_generated_multi_scenarios_always_valid(self, seed):
        generator = ScenarioGenerator(TOPO, seed=seed)
        scenario = generator.random_multi_scenario(num_flows=2)
        assert scenario.num_flows == 2
        assert len(set(scenario.victims)) == 2
        assert not set(scenario.attackers) & set(scenario.victims)
