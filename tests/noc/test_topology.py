"""Unit and property-based tests for the mesh topology."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.topology import Direction, MeshTopology


class TestConstruction:
    def test_square_default(self):
        topo = MeshTopology(rows=8)
        assert topo.columns == 8
        assert topo.num_nodes == 64
        assert len(topo) == 64

    def test_rectangular(self):
        topo = MeshTopology(rows=4, columns=6)
        assert topo.num_nodes == 24

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            MeshTopology(rows=0)
        with pytest.raises(ValueError):
            MeshTopology(rows=4, columns=-1)


class TestCoordinates:
    def test_row_major_numbering(self):
        topo = MeshTopology(rows=4)
        assert topo.coordinates(0) == (0, 0)
        assert topo.coordinates(3) == (3, 0)
        assert topo.coordinates(4) == (0, 1)
        assert topo.node_id(3, 2) == 11

    def test_paper_figure4_node_ids(self):
        # Figure 4 uses node 104 on a 16x16 mesh: column 8, row 6.
        topo = MeshTopology(rows=16)
        assert topo.coordinates(104) == (8, 6)
        assert topo.node_id(8, 6) == 104

    def test_out_of_range(self):
        topo = MeshTopology(rows=4)
        with pytest.raises(ValueError):
            topo.coordinates(16)
        with pytest.raises(ValueError):
            topo.node_id(4, 0)

    @given(rows=st.integers(2, 16), cols=st.integers(2, 16), node=st.integers(0, 255))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, rows, cols, node):
        topo = MeshTopology(rows=rows, columns=cols)
        node = node % topo.num_nodes
        x, y = topo.coordinates(node)
        assert topo.node_id(x, y) == node


class TestNeighbors:
    def test_interior_node_has_four_neighbors(self):
        topo = MeshTopology(rows=4)
        neighbors = topo.neighbors(5)  # (1, 1)
        assert neighbors[Direction.EAST] == 6
        assert neighbors[Direction.WEST] == 4
        assert neighbors[Direction.NORTH] == 9
        assert neighbors[Direction.SOUTH] == 1

    def test_corner_node_has_two_neighbors(self):
        topo = MeshTopology(rows=4)
        assert topo.degree(0) == 2

    def test_edge_node_has_three_neighbors(self):
        topo = MeshTopology(rows=4)
        assert topo.degree(1) == 3

    def test_local_neighbor_is_self(self):
        topo = MeshTopology(rows=4)
        assert topo.neighbor(5, Direction.LOCAL) == 5

    def test_neighbor_off_mesh_is_none(self):
        topo = MeshTopology(rows=4)
        assert topo.neighbor(3, Direction.EAST) is None
        assert topo.neighbor(0, Direction.SOUTH) is None

    @given(rows=st.integers(3, 12), node=st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_neighbor_symmetry(self, rows, node):
        topo = MeshTopology(rows=rows)
        node = node % topo.num_nodes
        for direction, other in topo.neighbors(node).items():
            assert topo.neighbor(other, direction.opposite) == node


class TestInputDirections:
    def test_interior_has_four_input_ports(self):
        topo = MeshTopology(rows=4)
        assert set(topo.input_directions(5)) == set(Direction.cardinal())

    def test_corner_has_two_input_ports(self):
        topo = MeshTopology(rows=4)
        assert set(topo.input_directions(0)) == {Direction.EAST, Direction.NORTH}

    def test_paper_port_count_statement(self):
        # "routers in the center have four ports; edges three; corners two"
        topo = MeshTopology(rows=6)
        counts = {2: 0, 3: 0, 4: 0}
        for node in topo.nodes():
            counts[len(topo.input_directions(node))] += 1
        assert counts[2] == 4
        assert counts[3] == 4 * (6 - 2)
        assert counts[4] == (6 - 2) ** 2


class TestDistances:
    def test_manhattan_distance(self):
        topo = MeshTopology(rows=5)
        assert topo.manhattan_distance(0, 24) == 8
        assert topo.manhattan_distance(7, 7) == 0

    @given(rows=st.integers(3, 10), a=st.integers(0, 100), b=st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_distance_symmetric(self, rows, a, b):
        topo = MeshTopology(rows=rows)
        a, b = a % topo.num_nodes, b % topo.num_nodes
        assert topo.manhattan_distance(a, b) == topo.manhattan_distance(b, a)


class TestDirection:
    def test_opposites(self):
        assert Direction.EAST.opposite is Direction.WEST
        assert Direction.NORTH.opposite is Direction.SOUTH
        assert Direction.LOCAL.opposite is Direction.LOCAL

    def test_cardinal_order_matches_paper(self):
        # The paper lists frames in E, N, W, S order.
        assert [d.value for d in Direction.cardinal()] == ["E", "N", "W", "S"]
