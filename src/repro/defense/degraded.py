"""Degraded-mode window sanitisation: self-healing telemetry for the guard.

The guard's detection/localization pipeline implicitly trusts every monitor
window.  :class:`WindowSanitizer` removes that assumption: before a window
reaches the pipeline it is scrubbed against the fault signatures of
:mod:`repro.faults.monitor` —

* **declared-silent nodes** — the collection layer annotates windows with
  nodes whose monitor stopped reporting (``metadata["unobservable_nodes"]``,
  a missing report being locally detectable); their zeroed cells are taken
  at face value and the node is marked unobservable;
* **stuck counters** — a node whose *entire* 8-cell signature (VCO + BOC,
  four directions) is bit-identical across ``stuck_after`` consecutive
  delivered windows while non-zero is declared stuck: its cells are masked
  to zero and the node marked unobservable.  The raw stream keeps being
  watched, so the moment real values flow again the node heals and rejoins
  the observable set;
* **implausible cells** — VCO is a ratio in [0, 1] and BOC is bounded by
  buffer operations per sampling window, so any cell beyond those physical
  ceilings (times ``ceiling_slack``) is corruption, not congestion; the
  cell is imputed from the previous sanitized window (0 when there is
  none).  Clamping is *physics*-based rather than history-based on purpose:
  a genuine flood can legitimately multiply a cell between two windows, and
  must never be clamped away.

The sanitizer returns a :class:`WindowHealth` next to the scrubbed sample;
the guard folds ``health.unobservable`` into its hard invariant — a node
that is currently unobservable contributes no evidence, accrues no flag
streak, and is never newly fenced ("no conviction without fresh affirmative
evidence": merely-silent or stuck nodes stay free).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.faults.base import clone_sample, node_port_cells
from repro.faults.monitor import DETOUR_KEY, UNOBSERVABLE_KEY
from repro.monitor.features import FeatureKind, frame_shape
from repro.monitor.frames import FrameSample
from repro.noc.topology import Direction, MeshTopology

__all__ = ["DegradedModeConfig", "WindowHealth", "WindowSanitizer"]


@dataclass(frozen=True)
class DegradedModeConfig:
    """Knobs of the guard's degraded-mode window sanitisation."""

    #: Consecutive delivered windows a node's full 8-cell signature must
    #: repeat bit-identically (while non-zero) before it is declared stuck.
    stuck_after: int = 3
    #: Physical ceiling of a VCO cell (occupied / total VCs — a ratio).
    vco_ceiling: float = 1.0
    #: Buffer operations per cycle per port upper bound; the BOC ceiling of
    #: a window is this rate times the sampling period.
    boc_rate_ceiling: float = 4.0
    #: Multiplier on the ceilings before a cell is ruled implausible.
    ceiling_slack: float = 1.5
    #: Windows of capture-clock lag (relative to the simulator clock) a
    #: window may carry before the guard treats it as stale; stale windows
    #: still deliver evidence and may engage, but never drive release
    #: probes — a burst of delayed windows describes the past, and lifting
    #: a fence on past cleanliness hands a current attacker its bandwidth
    #: back.
    stale_window_tolerance: int = 1
    #: Cap on the extra evidence-decay steps charged for one delivery gap
    #: (missed windows cool suspicion like observed-clean windows would,
    #: but a pathological outage must not zero the accumulator in one hit).
    max_gap_decay: int = 8
    #: Evidence multiplier for **detour carriers** — nodes the data plane
    #: rerouted traffic onto after a link/router death (the collection layer
    #: names them in ``metadata["detour_nodes"]``).  Reroute-shifted
    #: backpressure makes the TLM deduce phantom attackers on the detour
    #: column with naming trajectories as dense as a real weak colluder's —
    #: no static weight separates the two — so all evidence against a
    #: carrier (direct naming and frontier) is scaled by this factor, and
    #: carriers never engage on raw flag streaks, *unless* the carrier's
    #: own LOCAL-port telemetry corroborates the accusation (see
    #: :attr:`detour_injection_factor`).  ``1.0`` disables the discount.
    detour_discount: float = 0.5
    #: LOCAL-port injection level — as a multiple of the mesh-wide median —
    #: at which a detour carrier's telemetry *corroborates* an accusation
    #: and the window's evidence keeps full weight (discount and streak
    #: gate both waived for that window).  The LOCAL input port only holds
    #: a node's own injected flits, so a carrier that merely forwards
    #: rerouted traffic sits at the benign median while a colluder flooding
    #: from the detour column runs several multiples above it; the reroute
    #: can shift what a router *forwards*, never what its PE *injects*.
    #: Per-window and self-calibrating (the median tracks the live offered
    #: load), so it holds across mesh sizes and benchmarks.
    detour_injection_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.stuck_after < 2:
            raise ValueError("stuck_after must be >= 2")
        if self.vco_ceiling <= 0.0:
            raise ValueError("vco_ceiling must be positive")
        if self.boc_rate_ceiling <= 0.0:
            raise ValueError("boc_rate_ceiling must be positive")
        if self.ceiling_slack < 1.0:
            raise ValueError("ceiling_slack must be >= 1.0")
        if self.stale_window_tolerance < 0:
            raise ValueError("stale_window_tolerance must be >= 0")
        if self.max_gap_decay < 0:
            raise ValueError("max_gap_decay must be >= 0")
        if not 0.0 < self.detour_discount <= 1.0:
            raise ValueError("detour_discount must be in (0, 1]")
        if self.detour_injection_factor < 1.0:
            raise ValueError("detour_injection_factor must be >= 1.0")


@dataclass
class WindowHealth:
    """What the sanitizer found (and fixed) in one delivered window."""

    #: Nodes the collection layer itself declared unobservable.
    declared_silent: frozenset
    #: Nodes currently held stuck by the signature detector.
    stuck: frozenset
    #: Cells imputed by the plausibility clamp this window.
    imputed_cells: int
    #: Nodes absorbing rerouted traffic of an active data-plane fault
    #: (``metadata["detour_nodes"]``).  Their telemetry is *trustworthy* —
    #: they are not unobservable — but its congestion content is partly
    #: infrastructure-caused, so the guard discounts evidence against them.
    detour_carriers: frozenset = frozenset()

    @property
    def unobservable(self) -> frozenset:
        """Nodes with no trustworthy telemetry this window."""
        return self.declared_silent | self.stuck

    @property
    def degraded(self) -> bool:
        """Whether the *telemetry* of this window was degraded.

        Detour carriers deliberately do not count: a rerouted data plane
        delivers pristine telemetry about a degraded mesh.
        """
        return bool(self.unobservable) or self.imputed_cells > 0


class WindowSanitizer:
    """Stateful per-episode scrubber for the guard's window stream."""

    def __init__(
        self,
        topology: MeshTopology,
        config: DegradedModeConfig | None = None,
        sample_period: int | None = None,
    ) -> None:
        self.topology = topology
        self.config = config or DegradedModeConfig()
        self.sample_period = sample_period
        self._cells = [
            node_port_cells(topology, node) for node in range(topology.num_nodes)
        ]
        # A node's signature, its cells' (VCO, BOC) value pairs, is one take
        # from the window's frames flattened in (kind, direction) order;
        # nodes with fewer than four ports pad with a trailing 0.0.
        starts, size = {}, 0
        for direction in Direction.cardinal():
            starts[direction] = size
            size += int(np.prod(frame_shape(topology, direction)))
        self._signature_index = np.full((topology.num_nodes, 8), 2 * size)
        for node, cells in enumerate(self._cells):
            for cell, (direction, row, col) in enumerate(cells):
                width = frame_shape(topology, direction)[1]
                vco = starts[direction] + row * width + col
                self._signature_index[node, 2 * cell : 2 * cell + 2] = vco, vco + size
        self._streaks = np.zeros(topology.num_nodes, dtype=np.int64)
        self._stuck = np.zeros(topology.num_nodes, dtype=bool)
        #: Previous delivered raw (clamped, unmasked) signatures; NaN before
        #: the first window, so nothing repeats it.
        self._previous = np.full(self._signature_index.shape, np.nan)
        #: Previous sanitized frames, for corrupted-cell imputation.
        self._last_frames: dict[tuple, np.ndarray] = {}

    # -- plausibility --------------------------------------------------------
    def _ceiling(self, kind: FeatureKind) -> float:
        if kind is FeatureKind.VCO:
            return self.config.vco_ceiling * self.config.ceiling_slack
        period = self.sample_period or 0
        if period <= 0:
            return float("inf")
        return self.config.boc_rate_ceiling * period * self.config.ceiling_slack

    # -- the scrub -----------------------------------------------------------
    def sanitize(self, sample: FrameSample) -> tuple[FrameSample, WindowHealth]:
        """Scrub one delivered window; returns (clean sample, health)."""
        declared = frozenset(
            int(node) for node in sample.metadata.get(UNOBSERVABLE_KEY, ())
        )
        detour = frozenset(
            int(node) for node in sample.metadata.get(DETOUR_KEY, ())
        )
        sample = clone_sample(sample)
        imputed = 0
        for frame_set in (sample.vco, sample.boc):
            ceiling = self._ceiling(frame_set.kind)
            if not np.isfinite(ceiling):
                continue
            for direction in Direction.cardinal():
                values = frame_set.frames[direction].values
                mask = values > ceiling
                if not mask.any():
                    continue
                previous = self._last_frames.get((frame_set.kind, direction))
                values[mask] = previous[mask] if previous is not None else 0.0
                imputed += int(mask.sum())

        # Stuck-signature detection on the clamped (pre-mask) values: the
        # raw stream keeps being compared even while a node is held stuck,
        # which is what lets a healed counter rejoin the observable set.
        frames = [
            frame_set.frames[direction].values.ravel()
            for frame_set in (sample.vco, sample.boc)
            for direction in Direction.cardinal()
        ]
        signature = np.concatenate(frames + [np.zeros(1)])[self._signature_index]
        same = (signature == self._previous).all(axis=1)
        repeated = same & (signature != 0.0).any(axis=1)
        self._previous = signature
        self._streaks = np.where(repeated, self._streaks + 1, 0)
        self._stuck = (self._stuck & repeated) | (
            self._streaks >= self.config.stuck_after - 1
        )
        stuck = frozenset(self._stuck.nonzero()[0].tolist())

        # Mask the cells of every stuck node: frozen counters are noise the
        # localizer must not see (and must not convict on).
        for node in stuck:
            for direction, row, col in self._cells[node]:
                sample.vco.frames[direction].values[row, col] = 0.0
                sample.boc.frames[direction].values[row, col] = 0.0

        for frame_set in (sample.vco, sample.boc):
            for direction in Direction.cardinal():
                self._last_frames[(frame_set.kind, direction)] = (
                    frame_set.frames[direction].values.copy()
                )

        return sample, WindowHealth(
            declared_silent=declared,
            stuck=stuck,
            imputed_cells=imputed,
            detour_carriers=detour,
        )
