"""Stand-ins for the guard's collaborators, shared by the defense tests.

``StubFence`` is the part of :class:`repro.core.pipeline.DL2Fence` the guard
reads besides ``process_sample``; scripted fences subclass it.  ``window``
builds the :class:`~repro.defense.guard.Observation` a scripted window
stands for, and ``drive`` runs a script through the guard's decision core
and its records — no simulator, monitor or sanitizer involved.
"""

from types import SimpleNamespace

from repro.core.pipeline import LocalizationResult
from repro.defense.guard import DL2FenceGuard, Observation
from repro.noc.topology import MeshTopology


class StubFence:
    """Topology, detector calibration and route-provider sync of a fence."""

    def __init__(self, rows=4):
        self.topology = MeshTopology(rows=rows, columns=rows)
        self.detector = SimpleNamespace(benign_calibration=None)
        self.route_provider = None

    def set_route_provider(self, provider):
        self.route_provider = provider


class ScriptedFence(StubFence):
    """Stub pipeline replaying a fixed sequence of (detected, attackers)."""

    def __init__(self, script, rows=4):
        super().__init__(rows)
        self.script = list(script)
        self.calls = 0

    def process_sample(self, sample, force_localization=False, detection=None):
        detected, attackers = self.script[self.calls]
        self.calls += 1
        return LocalizationResult(
            cycle=sample.cycle,
            detected=detected,
            detection_probability=0.9 if detected else 0.1,
            attackers=list(attackers),
        )


class OracleFence(StubFence):
    """Perfect pipeline: detects exactly while the attack window is active."""

    def __init__(self, attackers, rows=4):
        super().__init__(rows)
        self.attackers = list(attackers)

    def process_sample(self, sample, force_localization=False, detection=None):
        return LocalizationResult(
            cycle=sample.cycle,
            detected=sample.attack_active,
            detection_probability=1.0 if sample.attack_active else 0.0,
            attackers=list(self.attackers) if sample.attack_active else [],
        )


def window(cycle, detected, attackers=(), **fields):
    """The observation of one scripted window.

    A detected window carries full evidence weight and an undetected one
    none — what the default evidence config makes of probabilities 0.9 and
    0.1 on an uncalibrated detector.
    """
    fields.setdefault("weight", 1.0 if detected else 0.0)
    return Observation(
        cycle=cycle,
        result=LocalizationResult(
            cycle=cycle,
            detected=detected,
            detection_probability=0.9 if detected else 0.1,
            attackers=list(attackers),
        ),
        **fields,
    )


def drive(script, policy, **guard_kwargs):
    """Run (detected, attackers) windows, 100 cycles apart, through a guard."""
    guard = DL2FenceGuard(StubFence(), policy, **guard_kwargs)
    for index, (detected, attackers) in enumerate(script):
        guard.decide_window(window(100 * (index + 1), detected, attackers))
    return guard
