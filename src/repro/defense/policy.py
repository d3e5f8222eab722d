"""Mitigation policies applied to localized attackers.

The paper positions DL2Fence as the detection/localization front end of a
*fence*: once attackers are pinpointed, the NoC can rate-limit or isolate
their network interfaces.  A :class:`MitigationPolicy` captures the two
countermeasures the defense guard knows how to apply through the
:meth:`repro.noc.network.MeshNetwork.set_injection_limit` hook —

* **throttle** — localized attackers keep a small fraction of their injection
  bandwidth, so a false positive degrades an innocent node instead of cutting
  it off;
* **quarantine** — localized attackers are blocked outright, the strongest
  (and least forgiving) response.

Both are wrapped in confidence hysteresis: the guard only engages after
``engage_after`` consecutive detected windows, rolls a node back after
``release_after`` consecutive clean windows, and releases an individual node
early when the localizer stops re-flagging it for ``stale_after`` detection
windows (false-positive-safe rollback).

Two multi-attack safeguards ride on top.  ``reengage_backoff``
exponentially lengthens the hold of a node that has already been released
and re-engaged, bounding the quarantine release/probe oscillation a fully
fenced attacker otherwise causes (a fenced flood leaves no congestion
signature, so every release is a probe).  ``max_engaged_nodes`` caps how
many nodes may be fenced simultaneously, so a Table-Like-Method superset
that grossly over-approximates the attacker set cannot quarantine a large
part of the mesh in one sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["MitigationPolicy"]

_ACTIONS = ("throttle", "quarantine")


@dataclass(frozen=True)
class MitigationPolicy:
    """Configuration of the closed-loop countermeasure.

    Attributes
    ----------
    action:
        ``"throttle"`` rate-limits flagged attackers to ``throttle_factor``
        of their injection bandwidth; ``"quarantine"`` blocks them entirely.
    throttle_factor:
        Injection-bandwidth fraction granted to a throttled attacker
        (ignored for quarantine).
    engage_after:
        Consecutive detected sampling windows a node must be localized in
        before the countermeasure engages on it (trigger hysteresis, N).
    release_after:
        Consecutive clean windows required before all restrictions are
        rolled back (release hysteresis, M).
    stale_after:
        Detection windows an engaged node may go without being re-flagged by
        the localizer before it is individually released — the
        false-positive-safe automatic rollback.
    flush_queue:
        Discard the backlog queued at an attacker's network interface when
        the countermeasure engages *and again when it releases*, so a fenced
        flood cannot pour out once the limit lifts.  Costs any benign
        packets the node had queued, which the collateral accounting makes
        visible.
    reengage_backoff:
        Hold multiplier for repeat offenders: a node engaged for the k-th
        time must survive ``release_after * backoff**(k-1)`` clean windows
        (and ``stale_after * backoff**(k-1)`` unflagged detection windows)
        before it is released again.  ``1.0`` disables the backoff and
        restores pure fixed-threshold hysteresis.
    max_engaged_nodes:
        Upper bound on simultaneously fenced nodes (``None`` = unlimited).
        Guards against an over-approximated localization superset; the guard
        engages the most persistently flagged candidates first and leaves
        the rest for the next sampling round.
    release_probe_spacing:
        Minimum clean windows between two staggered release probes.  Clean
        windows release **one** fenced node at a time (a quarantined
        attacker leaves no evidence, so every release is a probe — and a
        mass release of colluding sources would restart the whole flood at
        once); this spacing additionally leaves room for a released
        attacker's congestion to rebuild and break the clean streak before
        the next node is probed.  ``1`` releases on every qualifying clean
        window.
    """

    action: str = "throttle"
    throttle_factor: float = 0.1
    engage_after: int = 2
    release_after: int = 2
    stale_after: int = 3
    flush_queue: bool = False
    reengage_backoff: float = 2.0
    max_engaged_nodes: int | None = None
    release_probe_spacing: int = 1

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(f"action must be one of {_ACTIONS}")
        if not 0.0 < self.throttle_factor < 1.0:
            raise ValueError("throttle_factor must be in (0, 1)")
        if self.engage_after < 1:
            raise ValueError("engage_after must be >= 1")
        if self.release_after < 1:
            raise ValueError("release_after must be >= 1")
        if self.stale_after < 1:
            raise ValueError("stale_after must be >= 1")
        if self.reengage_backoff < 1.0:
            raise ValueError("reengage_backoff must be >= 1.0")
        if self.max_engaged_nodes is not None and self.max_engaged_nodes < 1:
            raise ValueError("max_engaged_nodes must be >= 1 (or None)")
        if self.release_probe_spacing < 1:
            raise ValueError("release_probe_spacing must be >= 1")

    # -- hysteresis thresholds ----------------------------------------------
    def release_threshold(self, engagements: int) -> int:
        """Clean windows required to release a node engaged ``engagements`` times."""
        return self._backed_off(self.release_after, engagements)

    def stale_threshold(self, engagements: int) -> int:
        """Unflagged detection windows before a node's stale rollback."""
        return self._backed_off(self.stale_after, engagements)

    def _backed_off(self, base: int, engagements: int) -> int:
        exponent = max(0, engagements - 1)
        return int(math.ceil(base * self.reengage_backoff**exponent))

    @property
    def injection_limit(self) -> float:
        """Injection limit applied to an engaged node."""
        return 0.0 if self.action == "quarantine" else self.throttle_factor

    @property
    def name(self) -> str:
        """Short display name for tables and timelines."""
        if self.action == "quarantine":
            return "quarantine"
        return f"throttle@{self.throttle_factor:g}"

    # -- common configurations ---------------------------------------------
    @classmethod
    def throttle(cls, factor: float = 0.1, **overrides) -> "MitigationPolicy":
        """A rate-limiting policy keeping ``factor`` of the bandwidth."""
        return cls(action="throttle", throttle_factor=factor, **overrides)

    @classmethod
    def quarantine(cls, **overrides) -> "MitigationPolicy":
        """A full-isolation policy (injection limit 0)."""
        return cls(action="quarantine", **overrides)
