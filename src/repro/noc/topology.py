"""2-D mesh topology, node-id arithmetic and port directions.

Node IDs follow the row-major convention used throughout the paper's figures
(e.g. Figure 4 names "attacker node 104, victim node 0" on a 16x16 mesh):
``node_id = y * columns + x`` with ``x`` increasing eastwards and ``y``
increasing northwards from the bottom-left corner node 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

__all__ = ["Direction", "MeshTopology"]


class Direction(str, Enum):
    """Input/output port directions of a mesh router.

    ``LOCAL`` is the port that connects the router to its tile (processing
    element / network interface); the four cardinal directions connect to the
    neighbouring routers.  The DL2Fence feature frames are built from the
    four cardinal *input* ports only, matching Figure 2 of the paper.
    """

    EAST = "E"
    NORTH = "N"
    WEST = "W"
    SOUTH = "S"
    LOCAL = "L"

    @classmethod
    def cardinal(cls) -> tuple["Direction", ...]:
        """The four non-local directions in the paper's E, N, W, S order."""
        return (cls.EAST, cls.NORTH, cls.WEST, cls.SOUTH)

    @property
    def opposite(self) -> "Direction":
        """Direction seen from the other end of a link."""
        mapping = {
            Direction.EAST: Direction.WEST,
            Direction.WEST: Direction.EAST,
            Direction.NORTH: Direction.SOUTH,
            Direction.SOUTH: Direction.NORTH,
            Direction.LOCAL: Direction.LOCAL,
        }
        return mapping[self]


@dataclass(frozen=True)
class MeshTopology:
    """Geometry helper for an ``rows`` x ``columns`` 2-D mesh.

    Parameters
    ----------
    rows:
        Number of mesh rows (the paper's ``R``).
    columns:
        Number of mesh columns; defaults to ``rows`` for the square meshes
        used in the paper (4x4 ... 32x32).
    """

    rows: int
    columns: int = 0

    def __post_init__(self) -> None:
        if self.rows <= 0:
            raise ValueError("rows must be positive")
        if self.columns == 0:
            object.__setattr__(self, "columns", self.rows)
        if self.columns <= 0:
            raise ValueError("columns must be positive")

    # -- size -----------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Total number of tiles / routers in the mesh."""
        return self.rows * self.columns

    def __len__(self) -> int:
        return self.num_nodes

    def __contains__(self, node_id: int) -> bool:
        return 0 <= int(node_id) < self.num_nodes

    # -- coordinates ------------------------------------------------------
    def coordinates(self, node_id: int) -> tuple[int, int]:
        """Return ``(x, y)`` for ``node_id`` (row-major numbering)."""
        self._check_node(node_id)
        return node_id % self.columns, node_id // self.columns

    def node_id(self, x: int, y: int) -> int:
        """Return the node id at coordinate ``(x, y)``."""
        if not (0 <= x < self.columns and 0 <= y < self.rows):
            raise ValueError(f"coordinate ({x}, {y}) outside {self.rows}x{self.columns} mesh")
        return y * self.columns + x

    def _check_node(self, node_id: int) -> None:
        if node_id not in self:
            raise ValueError(
                f"node {node_id} outside mesh with {self.num_nodes} nodes"
            )

    # -- adjacency --------------------------------------------------------
    def neighbor(self, node_id: int, direction: Direction) -> int | None:
        """Neighbouring node id in ``direction``; None at the mesh edge."""
        x, y = self.coordinates(node_id)
        if direction is Direction.EAST:
            return self.node_id(x + 1, y) if x + 1 < self.columns else None
        if direction is Direction.WEST:
            return self.node_id(x - 1, y) if x - 1 >= 0 else None
        if direction is Direction.NORTH:
            return self.node_id(x, y + 1) if y + 1 < self.rows else None
        if direction is Direction.SOUTH:
            return self.node_id(x, y - 1) if y - 1 >= 0 else None
        if direction is Direction.LOCAL:
            return node_id
        raise ValueError(f"unknown direction {direction!r}")

    def neighbors(self, node_id: int) -> dict[Direction, int]:
        """All existing cardinal neighbours of a node."""
        out = {}
        for direction in Direction.cardinal():
            other = self.neighbor(node_id, direction)
            if other is not None:
                out[direction] = other
        return out

    def degree(self, node_id: int) -> int:
        """Number of cardinal neighbours (2 for corners, 3 for edges, 4 inside)."""
        return len(self.neighbors(node_id))

    def input_directions(self, node_id: int) -> tuple[Direction, ...]:
        """Cardinal directions from which traffic can arrive at ``node_id``.

        A router receives from its EAST input port when an eastern neighbour
        exists, etc.  Corner routers therefore have two cardinal input ports
        and edge routers three — exactly the "2-4 directions" wording of the
        paper's Section 3.
        """
        return tuple(
            direction
            for direction in Direction.cardinal()
            if self.neighbor(node_id, direction) is not None
        )

    # -- iteration ----------------------------------------------------------
    def nodes(self) -> Iterator[int]:
        """Iterate over all node ids in increasing order."""
        return iter(range(self.num_nodes))

    def manhattan_distance(self, src: int, dst: int) -> int:
        """Hop distance between two nodes under minimal routing."""
        sx, sy = self.coordinates(src)
        dx, dy = self.coordinates(dst)
        return abs(sx - dx) + abs(sy - dy)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MeshTopology({self.rows}x{self.columns})"
