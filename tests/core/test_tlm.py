"""Unit and property-based tests for the Table-Like Method."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tlm import TableLikeMethod, estimate_attacker_count
from repro.monitor.labeling import attack_port_loads
from repro.noc.topology import Direction, MeshTopology
from repro.traffic.scenario import AttackScenario

TOPO = MeshTopology(rows=6)
TLM = TableLikeMethod(TOPO)


def attackers_of(tlm: TableLikeMethod, direction_victims, **kwargs) -> list[int]:
    """The sorted attacker node ids ``tlm.localize`` names."""
    return sorted(r.attacker for r in tlm.localize(direction_victims, **kwargs))


def direction_victims_for(scenario: AttackScenario, topology=TOPO):
    """Exact per-direction victim node sets from the scenario geometry."""
    loads = attack_port_loads(topology, scenario)
    out = {}
    for direction, grid in loads.items():
        nodes = set()
        rows, cols = grid.shape
        for y in range(rows):
            for x in range(cols):
                if grid[y, x] > 0:
                    nodes.add(topology.node_id(x, y))
        out[direction] = nodes
    return out


class TestSingleAttackerCases:
    def test_east_attacker_same_row(self):
        # Figure 3, one abnormal frame (E): attacker = Max(E) + 1.
        scenario = AttackScenario(attackers=(5,), victim=0)
        attackers = attackers_of(TLM, direction_victims_for(scenario))
        assert attackers == [5]

    def test_west_attacker_same_row(self):
        scenario = AttackScenario(attackers=(0,), victim=5)
        attackers = attackers_of(TLM, direction_victims_for(scenario))
        assert attackers == [0]

    def test_north_attacker_same_column(self):
        scenario = AttackScenario(attackers=(30,), victim=0)
        attackers = attackers_of(TLM, direction_victims_for(scenario))
        assert attackers == [30]

    def test_south_attacker_same_column(self):
        scenario = AttackScenario(attackers=(0,), victim=30)
        attackers = attackers_of(TLM, direction_victims_for(scenario))
        assert attackers == [0]

    def test_dogleg_attacker_two_abnormal_frames(self):
        # Figure 3, two abnormal frames (E & N): single attacker at Max(E)+1;
        # the N candidate is the route turning point and must be discarded.
        scenario = AttackScenario(attackers=(28,), victim=7)
        attackers = attackers_of(TLM, direction_victims_for(scenario))
        assert attackers == [28]

    @given(attacker=st.integers(0, 35), victim=st.integers(0, 35))
    @settings(max_examples=80, deadline=None)
    def test_any_single_attacker_is_recovered(self, attacker, victim):
        if attacker == victim:
            return
        scenario = AttackScenario(attackers=(attacker,), victim=victim)
        attackers = attackers_of(TLM, direction_victims_for(scenario))
        assert attacker in attackers
        # No false attacker is ever reported inside the victim route.
        assert not set(attackers) & scenario.ground_truth_victims(TOPO)


class TestMultiAttackerCases:
    def test_east_and_west_attackers(self):
        # Figure 3: 'E & W' combination -> two attackers Max(E)+1 and Min(W)-1.
        scenario = AttackScenario(attackers=(5, 0), victim=3)
        attackers = attackers_of(TLM, direction_victims_for(scenario))
        assert set(attackers) == {5, 0}

    def test_north_and_south_attackers(self):
        scenario = AttackScenario(attackers=(30, 0), victim=12)
        attackers = attackers_of(TLM, direction_victims_for(scenario))
        assert set(attackers) == {30, 0}

    def test_east_and_north_attackers(self):
        # One attacker east in the victim's row, one directly north.
        scenario = AttackScenario(attackers=(5, 31), victim=1)
        attackers = attackers_of(TLM, direction_victims_for(scenario))
        assert set(attackers) == {5, 31}

    def test_parallel_rows_two_attackers(self):
        # Two attackers flooding the same victim from different rows.
        scenario = AttackScenario(attackers=(11, 23), victim=6)
        attackers = attackers_of(TLM, direction_victims_for(scenario))
        assert 11 in attackers or 23 in attackers


class TestAttackerCountEstimate:
    def test_zero_when_no_abnormal_frames(self):
        assert estimate_attacker_count(TOPO, {}) == 0
        assert estimate_attacker_count(TOPO, {Direction.EAST: set()}) == 0

    def test_single_attacker(self):
        scenario = AttackScenario(attackers=(5,), victim=0)
        assert estimate_attacker_count(TOPO, direction_victims_for(scenario)) == 1

    def test_opposite_frames_imply_two(self):
        scenario = AttackScenario(attackers=(5, 0), victim=3)
        assert estimate_attacker_count(TOPO, direction_victims_for(scenario)) >= 2

    def test_multi_row_east_leg_implies_two(self):
        scenario = AttackScenario(attackers=(11, 23), victim=6)
        assert estimate_attacker_count(TOPO, direction_victims_for(scenario)) >= 2


class TestEvidence:
    def test_results_carry_direction_and_evidence(self):
        scenario = AttackScenario(attackers=(5,), victim=0)
        results = TLM.localize(direction_victims_for(scenario))
        assert len(results) == 1
        assert results[0].direction is Direction.EAST
        assert results[0].attacker == 5
        assert set(results[0].evidence) == {0, 1, 2, 3, 4}

    def test_duplicate_candidates_reported_once(self):
        scenario = AttackScenario(attackers=(5,), victim=0)
        victims = direction_victims_for(scenario)
        # Duplicate the same evidence under a second direction artificially.
        results = TLM.localize(victims)
        assert len({r.attacker for r in results}) == len(results)
