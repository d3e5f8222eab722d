"""Migrating attacker: the flooding source hops across the mesh over time.

A single-window localizer pins the attacker of the *current* window; by the
time the countermeasure engages, a migrating attacker has already moved on
and the fence lands on a now-silent node.  Every hop resets the guard's
per-node engagement streak, so without memory the defense oscillates one
step behind the attacker forever.  Cross-window evidence keeps suspicion on
previously convicted positions while they are silent, which is what lets
the guard pin the whole hop set down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attacks.base import AttackModel

__all__ = ["MigratingFloodAttack"]


@dataclass(frozen=True)
class MigratingFloodAttack(AttackModel):
    """One flooding source that relocates along ``path`` every ``dwell_cycles``.

    Attributes
    ----------
    path:
        Node ids the attacker occupies in order; after the last entry the
        attacker wraps back to the first (a patrol loop).
    victim:
        Target victim node id (fixed while the source moves).
    fir:
        Flooding Injection Rate of the currently active position.
    dwell_cycles:
        How long the attacker floods from each position.
    """

    path: tuple[int, ...]
    victim: int
    fir: float = 0.8
    dwell_cycles: int = 512

    name = "migrating"

    def __post_init__(self) -> None:
        if len(self.path) < 2:
            raise ValueError("a migrating attack needs at least two positions")
        if len(set(self.path)) != len(self.path):
            raise ValueError("path positions must be distinct")
        if self.victim in self.path:
            raise ValueError("the victim cannot be a hop position")
        if not 0.0 <= self.fir <= 1.0:
            raise ValueError("fir must be in [0, 1]")
        if self.dwell_cycles < 1:
            raise ValueError("dwell_cycles must be >= 1")

    @property
    def attackers(self) -> tuple[int, ...]:
        """All hop positions — each injects maliciously at some point."""
        return tuple(sorted(self.path))

    def emitters(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return self.path, (self.victim,) * len(self.path)

    def fir_profile_at(self, rel_cycle: int) -> np.ndarray | None:
        profile = np.zeros(len(self.path), dtype=np.float64)
        profile[(rel_cycle // self.dwell_cycles) % len(self.path)] = self.fir
        return profile

    def describe(self) -> str:
        return (
            f"migrating flood {list(self.path)} -> {self.victim} @ FIR "
            f"{self.fir:g}, dwell {self.dwell_cycles} cycles"
        )
