"""Cross-window evidence fusion: per-node EWMA suspicion with hysteresis.

A single sampling window convicts only the attacks that are loud *in that
window*.  The refined variants of :mod:`repro.attacks` are built to never be
that loud: a pulsed flood averages its burst away, a ramping flood stays
under the detector's threshold for most of its climb, a migrating attacker
has moved on before a per-window streak completes, a distributed collusion
keeps every per-source signature weak, and an on-route attacker is
geometrically indistinguishable from a turning point while the louder flow
runs.  What all of them cannot avoid is leaving *correlated* weak evidence
across windows — and that is what this module accumulates.

The :class:`EvidenceAccumulator` maintains one exponentially weighted
suspicion score per node.  Every window it decays all scores by
``decay`` and then adds weighted evidence from the window's localization
result:

* **TLM evidence** — nodes the Table-Like Method names as attackers
  (weight ``tlm_weight``);
* **frontier evidence** — TLM candidates discarded for falling *inside* the
  fused victim set (route turning points — or on-route attackers hiding as
  one).  Only credited when the window is under-localized (the estimated
  attacker count exceeds the named attackers), so a cleanly explained
  single-flow window never taxes its own turning point;
* window weight — ``1.0`` for detected windows; an undetected window with
  detection probability ``>= probability_floor`` still contributes,
  scaled by that probability.  This is the stealth-flood channel: windows
  individually below the detector's threshold accumulate until the source
  is convictable.

A node whose suspicion reaches ``conviction_threshold`` is *convicted* and
stays convicted until its score decays below ``release_threshold``
(hysteresis, so a score oscillating around the threshold cannot flap).  The
guard treats convicted nodes as localized attackers — and resets a node's
evidence when it releases the node's fence, so a release probe demands
fresh evidence rather than re-convicting on the stale residue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.pipeline import LocalizationResult

__all__ = ["EvidenceConfig", "EvidenceAccumulator"]


@dataclass(frozen=True)
class EvidenceConfig:
    """Knobs of the cross-window evidence accumulator.

    The defaults encode two measured facts about the localization stream:

    * a **real** refined source is named by the TLM in near-consecutive
      runs — four consecutive evidence-bearing windows reach
      ``1 + d + d² + d³ ≈ 3.44`` and convict;
    * congestion **spillover** around a saturated victim makes the TLM
      deduce phantom attackers one hop upstream of backpressured benign
      ports, but their naming patterns are gappy — a 4-in-6 phantom
      trajectory plateaus near ``3.2``, just under the bar.

    The slow decay is what carries suspicion *across* a migrating
    attacker's silent dwells (eight windows of silence still retain ~43%
    of a position's score), which is exactly the memory a per-window
    localizer lacks.  Frontier (turning-point) evidence is deliberately
    corroborative only: its steady state ``0.3 / (1 - decay) = 3.0`` sits
    *below* the conviction threshold, so frontier evidence alone can never
    convict — it primes a node the TLM then confirms once the flow it
    hides behind is fenced.
    """

    #: Per-window EWMA retention of every suspicion score.
    decay: float = 0.9
    #: Suspicion at which a node is convicted (treated as a localized attacker).
    conviction_threshold: float = 3.4
    #: Suspicion below which an existing conviction is dropped (hysteresis).
    release_threshold: float = 0.75
    #: Evidence for a node the Table-Like Method names as an attacker.
    tlm_weight: float = 1.0
    #: Evidence for a discarded in-victim-set candidate (on-route suspect).
    frontier_weight: float = 0.3
    #: Undetected windows with detection probability >= the stealth floor
    #: carry full evidence weight (stealth channel).  The gate is binary
    #: rather than probability-scaled: resting detector probabilities vary
    #: wildly with mesh scale and training, but the TLM naming the *same
    #: node* four windows running is scale-invariant — localization
    #: consistency is the signal, the probability only qualifies the
    #: window.  For a *calibrated* detector the floor is
    #: ``benign_calibration + calibration_margin``: a detector resting at
    #: 0.35 on benign traffic (measured at 8x8) must not have its noise
    #: feed the long evidence memory, while one resting at 0.04 (measured
    #: at 16x16) should honour windows at 0.3.  Without calibration the
    #: floor defaults to the detection threshold itself — sub-threshold
    #: probabilities of a detector whose benign operating point was never
    #: measured are not trusted (lower it explicitly to opt in).
    probability_floor: float = 0.5
    #: Elevation over the detector's calibrated benign operating point
    #: (:attr:`repro.core.detector.DoSDetector.benign_calibration`) at which
    #: an undetected window becomes evidence-bearing.
    calibration_margin: float = 0.04

    def __post_init__(self) -> None:
        if not 0.0 < self.decay < 1.0:
            raise ValueError("decay must be in (0, 1)")
        if self.conviction_threshold <= 0.0:
            raise ValueError("conviction_threshold must be positive")
        if not 0.0 <= self.release_threshold < self.conviction_threshold:
            raise ValueError(
                "release_threshold must be in [0, conviction_threshold)"
            )
        if self.tlm_weight <= 0.0:
            raise ValueError("tlm_weight must be positive")
        if self.frontier_weight < 0.0:
            raise ValueError("frontier_weight must be non-negative")
        if not 0.0 <= self.probability_floor <= 1.0:
            raise ValueError("probability_floor must be in [0, 1]")
        if self.calibration_margin < 0.0:
            raise ValueError("calibration_margin must be non-negative")

    def stealth_floor(self, benign_calibration: float | None) -> float:
        """Effective evidence floor for a detector's calibrated resting point.

        A calibrated detector's measured benign operating point *replaces*
        the static floor rather than clamping it: a detector resting at
        0.04 (measured at 16x16) legitimately testifies at 0.15, while one
        resting at 0.35 (measured at 8x8) must stay silent until ~0.4.  The
        static ``probability_floor`` only covers uncalibrated pipelines,
        and its default (0.5, the detection threshold) disables the
        stealth channel for them entirely — an unmeasured benign operating
        point could sit above any lower constant.
        """
        if benign_calibration is None:
            return self.probability_floor
        return benign_calibration + self.calibration_margin


class EvidenceAccumulator:
    """Per-node EWMA suspicion over the localization stream of one episode."""

    def __init__(self, num_nodes: int, config: EvidenceConfig | None = None) -> None:
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        self.config = config or EvidenceConfig()
        self.suspicion = np.zeros(num_nodes, dtype=np.float64)
        self._convicted: set[int] = set()

    # -- window weighting ----------------------------------------------------
    def window_weight(
        self,
        detected: bool,
        probability: float,
        benign_calibration: float | None = None,
    ) -> float:
        """Evidence weight of one window (0.0 = the window contributes nothing).

        Windows hovering under the detector's bar but above the stealth
        floor carry *full* weight: the stealth floods this channel exists
        for sit just below the binary threshold by design, and what
        separates their source from noise is the TLM naming it window after
        window — so the probability gates the window, it does not scale the
        evidence.  ``benign_calibration`` lifts the floor above the
        detector's measured resting probability (see
        :meth:`EvidenceConfig.stealth_floor`).
        """
        if detected:
            return 1.0
        if probability >= self.config.stealth_floor(benign_calibration):
            return 1.0
        return 0.0

    # -- accumulation ---------------------------------------------------------
    def observe(
        self,
        result: LocalizationResult,
        weight: float,
        discounts: dict[int, float] | None = None,
        promotions: frozenset[int] | None = None,
    ) -> tuple[list[int], list[int]]:
        """Fold one window's localization into the scores.

        Returns the nodes newly convicted and the convictions that lapsed.

        Every call decays all scores once (windows with no evidence still
        cool the accumulator down); ``weight`` scales this window's
        contributions.  ``discounts`` scales individual nodes'
        contributions on *both* channels (direct TLM naming and frontier) —
        the degraded guard passes the detour-carrier discount here for
        carriers whose own injection telemetry does not corroborate the
        accusation, and omits carriers it does corroborate (so a colluder
        squatting on a detour column still accrues full weight; see
        :class:`repro.defense.degraded.DegradedModeConfig`).

        ``promotions`` lifts individual nodes' *frontier* contributions to
        direct-naming weight, and past the under-localization gate.  A
        frontier candidate is a node the TLM traced abnormal flows through
        but discarded for sitting inside the fused victim set — ambiguous
        because its congestion could be forwarded rather than self-made.
        When independent telemetry resolves that ambiguity (a detour
        carrier whose LOCAL-port meter shows it injecting well above the
        mesh median), being traced *is* being named: reroute-shifted
        phantoms sharing the detour column otherwise both steal the direct
        namings a real colluder's conviction needs *and* fill the
        estimated attacker count, closing the ordinary frontier channel in
        exactly the windows the colluder is traced.
        """
        config = self.config
        self.suspicion *= config.decay
        if weight > 0.0:
            for node in result.attackers:
                contribution = config.tlm_weight * weight
                if discounts:
                    contribution *= discounts.get(node, 1.0)
                self.suspicion[node] += contribution
            # Under-localized windows spread frontier evidence: somewhere an
            # attacker exists the TLM could not name, and the discarded
            # in-victim-set candidates are where it can hide.
            under_localized = result.estimated_attacker_count > len(result.attackers)
            for node in result.frontier:
                promoted = bool(promotions) and node in promotions
                if not under_localized and not promoted:
                    continue
                base = config.tlm_weight if promoted else config.frontier_weight
                contribution = base * weight
                if discounts:
                    contribution *= discounts.get(node, 1.0)
                self.suspicion[node] += contribution
        fresh: list[int] = []
        for node in np.nonzero(self.suspicion >= config.conviction_threshold)[0]:
            node = int(node)
            if node not in self._convicted:
                self._convicted.add(node)
                fresh.append(node)
        return fresh, self._lapse()

    def decay_gap(self, steps: int) -> list[int]:
        """Extra decay for sampling windows lost in delivery.

        A dropped monitor window is evidence of nothing: the accumulator
        cools exactly as it would have over ``steps`` observed-but-empty
        windows, and convictions whose score sinks below the release
        threshold lapse.  This keeps suspicion half-life a function of
        *time*, not of how many windows happened to survive a lossy
        monitor channel.  Returns the convictions that lapsed.
        """
        if steps <= 0:
            return []
        self.suspicion *= self.config.decay**steps
        return self._lapse()

    def _lapse(self) -> list[int]:
        """Drop the convictions whose score sank below the release threshold."""
        threshold = self.config.release_threshold
        lapsed = [n for n in self._convicted if self.suspicion[n] < threshold]
        self._convicted.difference_update(lapsed)
        return lapsed

    def reset_node(self, node: int) -> None:
        """Clear a node's evidence (called when the guard releases its fence).

        A fenced attacker leaves no congestion signature, so whatever
        suspicion remains at release time is stale by construction; the
        release probe must re-convict on fresh evidence or not at all.
        """
        self.suspicion[node] = 0.0
        self._convicted.discard(node)

    # -- views -----------------------------------------------------------------
    def convicted_nodes(self) -> list[int]:
        """Nodes currently held convicted by the hysteresis, sorted."""
        return sorted(self._convicted)

    def suspicion_of(self, node: int) -> float:
        return float(self.suspicion[node])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EvidenceAccumulator(convicted={self.convicted_nodes()}, "
            f"max={float(self.suspicion.max()):.2f})"
        )
