"""Fault-aware route provider: west-first detours around dead links/routers.

The mesh ships with dimension-ordered XY routing baked into three places —
:mod:`repro.noc.routing`, the SoA route tables and the object router path.
This module abstracts them behind one provider so a degraded mesh (dead
links, dead routers) reroutes *identically* everywhere: both simulator
backends consume the same table, and the localization stages (TLM / VCE)
enumerate the same live routes the data plane actually uses.

Routing function
----------------
Minimal-with-detours **west-first** routing (Glass & Ni's turn model): the
turns ``N->W`` and ``S->W`` are prohibited (as are all 180-degree turns), so
any westward movement must happen before the first north/south hop.  The
prohibited-turn set breaks every cycle in the channel-dependency graph, so
routing stays deadlock-free no matter which links die.  Fault-free,
west-first with an ``E < N < W < S`` tie-break reproduces XY *exactly*
(X-phase first, then Y) — pinned by ``tests/noc/test_route_provider.py`` —
so installing the provider on a healthy mesh changes nothing.

Routes are state-dependent: the legal next hops of a packet depend on the
direction it is currently traveling.  The table is therefore indexed by
``(node, in_state, destination)`` where ``in_state`` 0 is START (freshly
injected / local port — shares the LOCAL slot index) and 1..4 are the E, N,
W, S travel directions of the last hop taken.

A consequence the simulators must handle: a packet that already moved
north/south can never regain westward movement, so a mid-episode link kill
can strand *in-flight* packets (state unroutable) even though a fresh
injection at the same node could still reach the destination.  Backends
excise such doomed packets atomically at fault-activation time (see
``apply_data_faults``) so the hot switch path never sees an unroutable head.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.noc.routing import UnroutableError, xy_route_path
from repro.noc.topology import Direction, MeshTopology

__all__ = ["RouteProvider", "UnroutableError", "START"]

#: Slot order shared with the SoA tables: LOCAL, E, N, W, S.
_DIRS = (
    Direction.LOCAL,
    Direction.EAST,
    Direction.NORTH,
    Direction.WEST,
    Direction.SOUTH,
)
_DIR_INDEX = {direction: index for index, direction in enumerate(_DIRS)}
_OPPOSITE = (0, 3, 4, 1, 2)

#: The START in-state (no travel history) shares index 0 with LOCAL.
START = 0

#: West-first turn model: out-directions allowed per in-state, in slot-index
#: order (the ascending order doubles as the XY-reproducing tie-break).
_ALLOWED = {
    START: (1, 2, 3, 4),
    1: (1, 2, 4),  # traveling EAST: straight, or turn N/S
    2: (1, 2),  # traveling NORTH: straight, or turn E (never W)
    3: (2, 3, 4),  # traveling WEST: straight, or turn N/S
    4: (1, 4),  # traveling SOUTH: straight, or turn E (never W)
}

_BIG = 1 << 28


def _normalized_dead_links(
    topology: MeshTopology,
    dead_links,
    dead_routers,
) -> frozenset[tuple[int, Direction]]:
    """Directed (node, out-direction) pairs for every dead physical link.

    A dead link is bidirectional; a dead router kills all its incident
    links (its crossbar is gone, so nothing can transit it either way).
    """
    links: set[tuple[int, Direction]] = set()

    def add(node: int, direction: Direction) -> None:
        neighbor = topology.neighbor(node, direction)
        if neighbor is None:
            raise ValueError(
                f"no {direction.name} link at node {node} on {topology!r}"
            )
        links.add((node, direction))
        links.add((neighbor, direction.opposite))

    for node, direction in dead_links:
        add(int(node), direction)
    for router in dead_routers:
        for direction in topology.neighbors(int(router)):
            add(int(router), direction)
    return frozenset(links)


class RouteProvider:
    """State-aware west-first routing tables for a (possibly degraded) mesh."""

    def __init__(
        self,
        topology: MeshTopology,
        dead_links=(),
        dead_routers=(),
    ) -> None:
        self.topology = topology
        self.dead_routers = frozenset(int(node) for node in dead_routers)
        for router in self.dead_routers:
            topology._check_node(router)
        self.dead_links = _normalized_dead_links(
            topology, dead_links, self.dead_routers
        )
        self._build()

    # -- table construction -------------------------------------------------
    def _build(self) -> None:
        topology = self.topology
        n = topology.num_nodes
        neighbor = np.zeros((n, 5), dtype=np.int64)
        alive = np.zeros((n, 5), dtype=bool)
        dead_router = np.zeros(n, dtype=bool)
        for router in self.dead_routers:
            dead_router[router] = True
        for node in range(n):
            for out in range(1, 5):
                other = topology.neighbor(node, _DIRS[out])
                if other is None:
                    continue
                neighbor[node, out] = other
                alive[node, out] = (
                    (node, _DIRS[out]) not in self.dead_links
                    and not dead_router[node]
                    and not dead_router[other]
                )

        # dist[u, t, d]: hops from state (u, in-state t) to destination d.
        dist = np.full((n, 5, n), _BIG, dtype=np.int32)
        idx = np.arange(n)
        dist[idx, :, idx] = 0
        for router in self.dead_routers:
            dist[router, :, router] = _BIG
        # Fixpoint relaxation over the turn-model channel graph; each sweep
        # extends every shortest path by at least one hop, so the loop runs
        # O(longest detour) times with (n, n)-array work per sweep.
        changed = True
        while changed:
            changed = False
            for state in range(5):
                best = dist[:, state, :]
                for out in _ALLOWED[state]:
                    cand = dist[neighbor[:, out], out, :] + 1
                    np.minimum(
                        best,
                        np.where(alive[:, out, None], cand, _BIG),
                        out=cand,
                    )
                    if (cand < best).any():
                        changed = True
                        best[...] = cand

        table = np.full((n, 5, n), -1, dtype=np.int8)
        arrived = dist[idx, :, idx] == 0
        for state in range(5):
            table[idx[arrived[:, state]], state, idx[arrived[:, state]]] = 0
        for state in range(5):
            here = dist[:, state, :]
            reachable = (here > 0) & (here < _BIG)
            for out in _ALLOWED[state]:
                step = (
                    reachable
                    & (table[:, state, :] == -1)
                    & alive[:, out, None]
                    & (dist[neighbor[:, out], out, :] + 1 == here)
                )
                table[:, state, :][step] = out
        self._table = table
        self._neighbor = neighbor
        self._alive = alive

    # -- query surface -------------------------------------------------------
    @property
    def route_table3(self) -> np.ndarray:
        """``(num_nodes * 5, num_nodes)`` int8 table: ``[(node*5 + in_state),
        dest] -> out-slot`` (0 = eject local, -1 = unroutable)."""
        n = self.topology.num_nodes
        return self._table.reshape(n * 5, n)

    @cached_property
    def routable_from_start(self) -> np.ndarray:
        """Boolean ``(source, dest)`` matrix for freshly injected packets."""
        return self._table[:, START, :] >= 0

    def link_is_live(self, node: int, direction: Direction) -> bool:
        return bool(self._alive[node, _DIR_INDEX[direction]])

    @property
    def link_alive_matrix(self) -> np.ndarray:
        """Boolean ``(node, out-slot)`` matrix of live outgoing links."""
        return self._alive

    def next_direction(
        self,
        current: int,
        destination: int,
        travel: Direction | None = None,
    ) -> Direction:
        """Output direction at ``current`` for a packet traveling ``travel``.

        ``travel=None`` (or ``LOCAL``) means a freshly injected packet.
        Raises :class:`UnroutableError` when no legal route remains.
        """
        state = START if travel is None else _DIR_INDEX[travel]
        code = int(self._table[current, state, destination])
        if code < 0:
            raise UnroutableError(
                current, destination, f"in-state {_DIRS[state].name}"
            )
        return _DIRS[code]

    def route_path(self, source: int, destination: int) -> list[int]:
        """Ordered node ids from ``source`` to ``destination`` inclusive."""
        path = [source]
        current, state = source, START
        for _ in range(5 * self.topology.num_nodes + 1):
            code = int(self._table[current, state, destination])
            if code < 0:
                raise UnroutableError(
                    source, destination, f"stranded at {current}"
                )
            if code == 0:
                return path
            current = int(self._neighbor[current, code])
            state = code
            path.append(current)
        raise UnroutableError(source, destination, "no progress")  # pragma: no cover

    # -- degraded-mesh introspection ----------------------------------------
    @cached_property
    def detour_nodes(self) -> frozenset[int]:
        """Nodes newly carrying traffic that XY would have routed elsewhere.

        For every (source, dest) pair whose fault-free XY path crossed a dead
        link, the live detour is walked and every node on it that the XY path
        did *not* visit is collected.  These are the innocent bystanders of a
        reroute — the degraded-mode guard discounts evidence against them.
        """
        if not self.dead_links:
            return frozenset()
        topology = self.topology
        columns, rows = topology.columns, topology.rows
        pairs: set[tuple[int, int]] = set()
        for node, direction in self.dead_links:
            xu, yu = topology.coordinates(node)
            if direction is Direction.EAST:
                sources = [topology.node_id(x, yu) for x in range(xu + 1)]
                dests = [
                    topology.node_id(x, y)
                    for x in range(xu + 1, columns)
                    for y in range(rows)
                ]
            elif direction is Direction.WEST:
                sources = [topology.node_id(x, yu) for x in range(xu, columns)]
                dests = [
                    topology.node_id(x, y)
                    for x in range(xu)
                    for y in range(rows)
                ]
            elif direction is Direction.NORTH:
                sources = [
                    topology.node_id(x, y)
                    for x in range(columns)
                    for y in range(yu + 1)
                ]
                dests = [topology.node_id(xu, y) for y in range(yu + 1, rows)]
            else:  # SOUTH
                sources = [
                    topology.node_id(x, y)
                    for x in range(columns)
                    for y in range(yu, rows)
                ]
                dests = [topology.node_id(xu, y) for y in range(yu)]
            pairs.update(
                (source, dest)
                for source in sources
                for dest in dests
                if source != dest
            )
        detours: set[int] = set()
        for source, dest in pairs:
            try:
                live = self.route_path(source, dest)
            except UnroutableError:
                continue  # such packets are dropped/excised, not rerouted
            detours.update(set(live) - set(xy_route_path(topology, source, dest)))
        return frozenset(detours)

    def describe(self) -> str:
        links = sorted(
            (node, direction.name) for node, direction in self.dead_links
        )
        return (
            f"RouteProvider(dead_links={links}, "
            f"dead_routers={sorted(self.dead_routers)})"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()
