"""Table-Like Method (TLM) for attacker localization.

Figure 3 of the paper enumerates, for every combination of abnormal
directional frames, where the attacker(s) must sit relative to the observed
Routing-Path Victims.  The rules all reduce to the same geometric fact: under
XY routing an attack flow enters the route from *outside* the victim set, one
hop beyond the route end in the direction the abnormal frames point at:

* abnormal EAST frames  -> an attacker at ``max(route ids) + 1``;
* abnormal WEST frames  -> an attacker at ``min(route ids) - 1``;
* abnormal NORTH frames -> an attacker at ``max(route ids) + columns``;
* abnormal SOUTH frames -> an attacker at ``min(route ids) - columns``.

A candidate that is itself part of the fused victim set is a route *turning
point* (the X-leg feeding the Y-leg), not an attacker, and is discarded —
this is what the conditions in the "Two/Three Abnormal Frames" columns of the
table encode.  Multi-attacker scenarios may need several sampling rounds
(after a localized attacker is quarantined the next round reveals the rest),
exactly as the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.noc.routing import reverse_xy_sources
from repro.noc.topology import Direction, MeshTopology

__all__ = ["TLMResult", "TableLikeMethod", "estimate_attacker_count"]


@dataclass(frozen=True)
class TLMResult:
    """One localized attacker with the evidence that produced it."""

    attacker: int
    direction: Direction
    evidence: tuple[int, ...] = field(default_factory=tuple)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TLMResult(attacker={self.attacker}, via={self.direction.value})"


def estimate_attacker_count(
    topology: MeshTopology, direction_victims: dict[Direction, set[int]]
) -> int:
    """Estimate how many attackers the abnormal frame combination implies.

    Follows the top rows of Figure 3: a single abnormal frame implies one
    attacker; opposite abnormal frames (E & W, or N & S) imply at least two;
    an X-leg spanning more than one mesh row, or a Y-leg spanning more than
    one column, also implies at least two attackers feeding the same victim.
    """
    abnormal = {d for d, v in direction_victims.items() if v}
    if not abnormal:
        return 0
    columns = topology.columns
    count = 1
    if Direction.EAST in abnormal and Direction.WEST in abnormal:
        count = max(count, 2)
    if Direction.NORTH in abnormal and Direction.SOUTH in abnormal:
        count = max(count, 2)
    for direction in (Direction.EAST, Direction.WEST):
        victims = direction_victims.get(direction, set())
        if victims and max(victims) - min(victims) > columns - 1:
            # The X-leg victims span multiple rows: several attackers flood
            # along parallel rows ("> R" condition of the table).
            count = max(count, 2)
    for direction in (Direction.NORTH, Direction.SOUTH):
        victims = direction_victims.get(direction, set())
        if victims and len({v % columns for v in victims}) > 1:
            # The Y-leg victims span multiple columns.
            count = max(count, 2)
    return count


class TableLikeMethod:
    """Attacker localization from per-direction victim sets.

    ``route_provider`` (optional, also settable later via
    :meth:`set_route_provider`) makes the reverse deduction follow the live
    routing function of a degraded mesh: a candidate whose arrival link
    into the victim route is dead is physically incapable of having caused
    the observed abnormal traffic and is discarded — on a healthy mesh the
    enumeration is exactly the paper's reverse-XY table.
    """

    def __init__(self, topology: MeshTopology, route_provider=None) -> None:
        self.topology = topology
        self.route_provider = route_provider

    def set_route_provider(self, provider) -> None:
        """Track the simulator's live (possibly fault-degraded) routes."""
        self.route_provider = provider

    def _candidates_for_direction(
        self, direction: Direction, victims: set[int]
    ) -> list[int]:
        """Attacker candidates for one abnormal direction.

        When the direction's victims span several rows (E/W) or columns
        (N/S), each row/column hosts an independent attack leg and yields its
        own candidate.
        """
        if not victims:
            return []
        columns = self.topology.columns
        provider = self.route_provider
        candidates: list[int] = []
        if direction in (Direction.EAST, Direction.WEST):
            groups: dict[int, list[int]] = {}
            for node in victims:
                groups.setdefault(node // columns, []).append(node)
        else:
            groups = {}
            for node in victims:
                groups.setdefault(node % columns, []).append(node)
        for group in groups.values():
            for candidate in reverse_xy_sources(self.topology, group, direction):
                # Traffic observed on a victim's ``direction`` input port
                # traveled ``direction.opposite`` out of the candidate; a
                # dead link there rules the candidate out.
                if provider is not None and not provider.link_is_live(
                    candidate, direction.opposite
                ):
                    continue
                candidates.append(candidate)
        return candidates

    def localize(
        self, direction_victims: dict[Direction, set[int]], fused_victims: set[int] | None = None
    ) -> list[TLMResult]:
        """Localize attackers from abnormal-direction victim sets.

        Parameters
        ----------
        direction_victims:
            For each cardinal direction, the node ids whose input port of
            that direction carries abnormal traffic (from the segmentation +
            fusion stages).  Directions with empty sets are ignored.
        fused_victims:
            The complete fused victim set; candidates falling inside it are
            route turning points and are discarded.  Defaults to the union of
            ``direction_victims``.
        """
        results, _ = self.localize_with_frontier(direction_victims, fused_victims)
        return results

    def localize_with_frontier(
        self, direction_victims: dict[Direction, set[int]], fused_victims: set[int] | None = None
    ) -> tuple[list[TLMResult], list[int]]:
        """Like :meth:`localize`, also returning the discarded candidates.

        The second element lists every candidate rejected for falling inside
        the fused victim set — geometrically a route turning point, but also
        exactly where an **on-route attacker** hides (the single-window blind
        spot of the method).  The cross-window evidence accumulator of
        :mod:`repro.defense.evidence` consumes this *frontier* so persistent
        in-victim-set candidates can still be convicted over time.
        """
        if fused_victims is None:
            fused_victims = set()
            for victims in direction_victims.values():
                fused_victims.update(victims)
        results: list[TLMResult] = []
        seen: set[int] = set()
        frontier: set[int] = set()
        for direction in Direction.cardinal():
            victims = direction_victims.get(direction, set())
            if not victims:
                continue
            for candidate in self._candidates_for_direction(direction, victims):
                if candidate in fused_victims:
                    frontier.add(candidate)
                    continue
                if candidate in seen:
                    continue
                seen.add(candidate)
                results.append(
                    TLMResult(
                        attacker=candidate,
                        direction=direction,
                        evidence=tuple(sorted(victims)),
                    )
                )
        return results, sorted(frontier)
