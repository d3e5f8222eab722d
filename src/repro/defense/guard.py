"""Online DL2Fence guard: closed-loop detection, localization and mitigation.

The guard turns the offline DL2Fence pipeline into a runtime system.  It
subscribes to the :class:`~repro.monitor.sampler.GlobalPerformanceMonitor`
stream, pushes every sampling window through the trained detector/localizer
(:meth:`repro.core.pipeline.DL2Fence.process_sample`), and pulls the
injection rate-limit hook on the mesh for every node the Table-Like Method
pins as an attacker.  Each window, :meth:`DL2FenceGuard.on_sample` runs
three steps:

* **observe** — :meth:`DL2FenceGuard._observe` does everything that reads
  the outside world (trace context, route-provider sync, detour carriers,
  the window sanitizer, delivery gaps and clock staleness, the pipeline,
  delivery latencies) and returns one frozen :class:`Observation`;
* **decide** — :func:`decide` reads and writes only a :class:`GuardState`,
  where all decision state lives (streaks, engage counts, engaged nodes
  and their shadow pressure, the evidence accumulator, ...), and returns
  the window's whole output as one ordered stream of :class:`GuardEvent`s.
  It needs no simulator, network or fence, so tests drive it directly;
* **actuate** — :meth:`DL2FenceGuard._actuate` turns engagements, rollbacks
  and release probes into throttle, flush and restore calls on the mesh.

One loop, :meth:`DL2FenceGuard.decide_window`, hands every event of the
stream to its three readers: the report (:meth:`DefenseReport.fold`), the
trace bus and the ``repro_guard_events_total`` counter.  This module is the
only one in :mod:`repro.defense` that emits trace events, and
:func:`repro.defense.report.tally` is the one rule for counting them.

Engagement and release follow the hysteresis of the configured
:class:`~repro.defense.policy.MitigationPolicy`: one noisy window can
neither trip nor lift the fence, nodes that stop being re-flagged roll back
even while an attack continues elsewhere, and only windows with a current
capture clock earn a release — a stale clean window neither releases a
fence nor counts toward the clean streak.  Concurrent multi-attacker floods
are handled through **iterative localization rounds** (the paper's
Figure-3 rules): fencing the loudest attacker removes its congestion
signature and the next rounds surface the rest.  Per-node engage counts
drive an exponential re-engage backoff (a quarantined attacker leaves no
evidence, so every release is a probe), and ``max_engaged_nodes`` bounds
the blast radius of an over-approximated localization superset.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.core.pipeline import DL2Fence, LocalizationResult
from repro.defense.degraded import DegradedModeConfig, WindowSanitizer
from repro.defense.evidence import EvidenceAccumulator, EvidenceConfig
from repro.defense.policy import MitigationPolicy
from repro.defense.report import (
    COUNTED_EVENTS, DECISION_KINDS, DefenseReport, WindowRecord, tally,
)
from repro.faults.monitor import LOCAL_BOC_KEY
from repro.monitor.frames import FrameSample
from repro.monitor.sampler import GlobalPerformanceMonitor, MonitorConfig
from repro.noc.simulator import NoCSimulator
from repro.noc.stats import DeliveredColumns, LatencyStats
from repro.obs.bus import BUS
from repro.obs.metrics import METRICS, guard_events_counter

__all__ = ["DL2FenceGuard", "GuardEvent", "GuardState", "Observation", "decide"]

#: Per-window retention of an engaged node's shadow-pressure counter.
SHADOW_DECAY = 0.8


def _mean_latency(delivered: DeliveredColumns) -> float:
    """Mean creation-to-ejection latency of ``delivered`` (NaN if empty)."""
    if len(delivered) == 0:
        return math.nan
    return LatencyStats.from_columns(delivered).packet_latency


@dataclass(frozen=True)
class Observation:
    """One sampling window as the decision core sees it."""

    cycle: int
    #: The pipeline's result on the sanitized window (localized below the
    #: detector's threshold too when the window bears evidence).
    result: LocalizationResult
    #: Evidence weight of the window (0.0 with evidence fusion off).
    weight: float = 0.0
    #: Nodes with no trustworthy telemetry this window (silent or stuck).
    unobservable: frozenset[int] = frozenset()
    #: Detour carriers whose own injection does not corroborate an accusation.
    detour: frozenset[int] = frozenset()
    #: Detour carriers injecting well above the mesh-wide median.
    corroborated: frozenset[int] = frozenset()
    #: Sampling windows lost in delivery since the previous window.
    missed_windows: int = 0
    #: Whether the capture clock is current (stale windows earn no release).
    fresh_clock: bool = True
    #: The ``window_sanitized`` event's fields; empty on healthy telemetry.
    sanitized: Mapping[str, object] = field(default_factory=dict)
    #: The window's :class:`WindowRecord` delivery fields.
    deliveries: Mapping[str, float] = field(default_factory=dict)


@dataclass
class EngagedNode:
    """Book-keeping for one node under an active countermeasure."""

    windows_since_flagged: int = 0
    #: Estimated residual pressure behind the fence (a quarantined node
    #: emits no evidence): seeded from the node's suspicion at engage time,
    #: bumped when re-flagged, cooled every window.  Lowest probes first.
    shadow_pressure: float = 0.0


@dataclass
class GuardState:
    """Everything :func:`decide` reads and writes."""

    policy: MitigationPolicy
    #: ``None`` turns evidence fusion (resp. degraded mode) off.
    evidence: EvidenceAccumulator | None = None
    degraded: DegradedModeConfig | None = None
    engaged: dict[int, EngagedNode] = field(default_factory=dict)
    #: Consecutive detection windows each candidate was flagged in: per-node
    #: engagement hysteresis against one-off localization noise.
    flag_streaks: dict[int, int] = field(default_factory=dict)
    #: Lifetime engagements per node, for the re-engage backoff.
    engage_counts: dict[int, int] = field(default_factory=dict)
    #: Iterative localization round: one per batch of engagements.
    round: int = 0
    consecutive_detections: int = 0
    #: Fresh-clock clean windows since the last acted-on window.
    consecutive_clean: int = 0
    window_index: int = 0
    last_window_cycle: int | None = None
    #: First engagement since the mesh was last fully released: where the
    #: window latencies split fresh deliveries from attack-era backlog.
    containment_epoch: int | None = None
    last_probe_window: int | None = None


@dataclass(frozen=True)
class GuardEvent:
    """One event of a window's stream: a trace event and what else it carries."""

    kind: str
    #: The trace event's fields (``nodes``, ``round``, ...), as emitted.
    fields: Mapping[str, object] = field(default_factory=dict)
    #: A decision's description in the report's event log.
    detail: str = ""
    #: Nodes the actuator fences (``engaged``) or restores, in this order.
    actuated: tuple[int, ...] = ()
    #: The ``window`` event's record.
    record: WindowRecord | None = None

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(self.fields.get("nodes", ()))


#: The stream's kinds ``repro_guard_events_total`` counts.
METERED_KINDS = DECISION_KINDS + ("window",)


def decide(state: GuardState, observation: Observation) -> tuple[GuardEvent, ...]:
    """Fold one observed window into ``state``; returns the window's events.

    The window's actionable attacker set is the union of the Table-Like
    Method's per-window localization and the nodes the cross-window
    evidence accumulator currently holds convicted.  A window counts as
    "acted on" when either the detector fires or the evidence convicts a
    not-yet-fenced node — the latter is what makes stealth, migrating and
    on-route attacks actionable even though no single window trips the
    detector.  Convictions on already-fenced nodes deliberately do *not*
    keep the loop in attack mode: a fenced attacker leaves no fresh
    evidence, so its stale suspicion must not block release probing.

    Events come in a fixed order: ``window_sanitized``, the gap's
    ``conviction_lapsed``, ``detour_discount``, fresh convictions, the
    decay's ``conviction_lapsed``, the first detection of a streak,
    engagements, rollbacks (plus the full-release marker), a release probe,
    and last the ``window`` event with the window's record.
    """
    result, unobservable = observation.result, observation.unobservable
    index, engaged_at_start = state.window_index, bool(state.engaged)
    if state.last_window_cycle is None or observation.cycle > state.last_window_cycle:
        state.last_window_cycle = observation.cycle
    events: list[GuardEvent] = []
    if observation.sanitized:
        events.append(GuardEvent("window_sanitized", observation.sanitized))
    convicted: list[int] = []
    if state.evidence is not None:
        events += _accumulate(state, observation)
        convicted = state.evidence.convicted_nodes()

    acted = result.detected or any(
        node not in state.engaged and node not in unobservable for node in convicted
    )
    flagged = set(result.attackers).union(convicted) - unobservable
    # Detour carriers never engage on raw per-window flag streaks: a reroute
    # shifts legitimate congestion onto their row/column, so per-frame
    # naming is expected, not incriminating.  Only a full cross-window
    # conviction — which discounted evidence cannot deliver unless the
    # carrier's own injection lifts the discount — makes them eligible.
    streak_eligible = [
        node
        for node in sorted(flagged)
        if node not in observation.detour or node in convicted
    ]
    _update_shadow_pressure(state, flagged)

    if acted:
        if state.consecutive_detections == 0:
            detail = f"p={result.detection_probability:.2f}"
            if not result.detected:
                detail += " evidence"
            fields = {
                "probability": float(result.detection_probability),
                "via": "detector" if result.detected else "evidence",
            }
            events.append(GuardEvent("detected", fields, detail))
        state.consecutive_detections += 1
        state.consecutive_clean = 0
        events += _engage(state, streak_eligible, observation.cycle)
        events += _roll_back(state, flagged, observation.fresh_clock)
    else:
        # A stale clean window describes the past: it neither counts toward
        # the clean streak nor releases a fence.
        if observation.fresh_clock:
            state.consecutive_clean += 1
        state.consecutive_detections = 0
        if not state.engaged:
            # Before anything engages, a clean window breaks every flag
            # streak: engagement requires N *consecutive* detections.  While
            # mitigation is active, clean windows are expected (the fence
            # suppresses the evidence), so streaks survive there.
            state.flag_streaks.clear()
        elif observation.fresh_clock:
            events += _release_probe(state)
    state.window_index += 1
    record = WindowRecord(
        index=index,
        cycle=observation.cycle,
        detected=acted,
        probability=result.detection_probability,
        phase="mitigated" if engaged_at_start else "attack" if acted else "benign",
        victims=tuple(result.victims),
        attackers=tuple(result.attackers),
        restricted=tuple(sorted(state.engaged)),
        suspected=tuple(convicted),
        unobservable=tuple(sorted(unobservable)),
        **observation.deliveries,
    )
    fields = dict(
        phase=record.phase,
        detected=record.detected,
        probability=float(record.probability),
        attackers=record.attackers,
        suspected=record.suspected,
        engaged=record.restricted,
        unobservable=record.unobservable,
    )
    events.append(GuardEvent("window", fields, record=record))
    return tuple(events)


def _accumulate(state: GuardState, observation: Observation) -> list[GuardEvent]:
    """Fold the window into the evidence accumulator; returns its events."""
    evidence, degraded = state.evidence, state.degraded
    result, unobservable = observation.result, observation.unobservable
    detour, corroborated = observation.detour, observation.corroborated
    events: list[GuardEvent] = []
    if observation.missed_windows:
        # A delivery gap charges the decay the accumulator missed, capped so
        # an outage cannot zero it in one hit.
        cap = (degraded or DegradedModeConfig).max_gap_decay
        steps = min(observation.missed_windows, cap)
        if lapsed := evidence.decay_gap(steps):
            fields = {"nodes": lapsed, "reason": "gap", "steps": steps}
            events.append(GuardEvent("conviction_lapsed", fields))
    if unobservable:
        # Hard invariant: a node with no trustworthy telemetry this window
        # contributes no affirmative evidence — a merely silent or stuck
        # node can decay out of suspicion but never accrue into it.
        result = dataclasses.replace(
            result,
            attackers=[n for n in result.attackers if n not in unobservable],
            frontier=[n for n in result.frontier if n not in unobservable],
        )
    discount = degraded.detour_discount if detour and degraded is not None else None
    if discount or corroborated:
        fields = {"nodes": detour, "discount": discount or 1.0, "promoted": corroborated}
        events.append(GuardEvent("detour_discount", fields))
    fresh, lapsed = evidence.observe(
        result,
        observation.weight,
        discounts=dict.fromkeys(detour, discount) if discount else None,
        promotions=corroborated or None,
    )
    if fresh:
        fields = {"nodes": tuple(sorted(fresh))}
        events.append(GuardEvent("convicted", fields, "cross-window evidence"))
    if lapsed:
        fields = {"nodes": lapsed, "reason": "decay"}
        events.append(GuardEvent("conviction_lapsed", fields))
    return events


def _engage(state: GuardState, candidates: list[int], cycle: int) -> list[GuardEvent]:
    """Fence nodes flagged in ``engage_after`` consecutive detection windows.

    Under ``max_engaged_nodes`` the most persistently flagged candidates
    are fenced first and the rest wait for the next localization round —
    the safeguard for a Table-Like Method that over-approximates.
    """
    policy, streaks = state.policy, state.flag_streaks
    for node in list(streaks):
        if node not in candidates:
            del streaks[node]
    eligible: list[tuple[int, int]] = []
    for node in candidates:
        if node not in state.engaged:
            streaks[node] = streaks.get(node, 0) + 1
            if streaks[node] >= policy.engage_after:
                eligible.append((node, streaks[node]))
    budget = len(eligible)
    if policy.max_engaged_nodes is not None:
        budget = max(0, policy.max_engaged_nodes - len(state.engaged))
    # Longest streak first: the most consistently localized candidate is
    # the "loudest" attacker of this round.
    eligible.sort(key=lambda item: (-item[1], item[0]))
    newly_engaged = tuple(node for node, _streak in eligible[:budget])
    if not newly_engaged:
        return []
    for node in newly_engaged:
        state.engage_counts[node] = state.engage_counts.get(node, 0) + 1
        # Seed the shadow counter from the suspicion the node built in the
        # open: the loudest conviction enters quarantine with the most
        # residual pressure to decay off.
        evidence = state.evidence
        pressure = evidence.suspicion_of(node) if evidence is not None else 1.0
        state.engaged[node] = EngagedNode(shadow_pressure=pressure)
    if state.containment_epoch is None:
        state.containment_epoch = cycle
    state.round += 1
    # A new localization round restarts every held node's stale clock, so
    # round churn cannot roll back attacker k right as attacker k+1 engages
    # (the whack-a-mole failure of multi-source floods).
    for held in state.engaged.values():
        held.windows_since_flagged = 0
    limit = policy.injection_limit
    nodes = tuple(sorted(newly_engaged))
    fields = {"nodes": nodes, "limit": float(limit), "round": state.round}
    return [GuardEvent("engaged", fields, f"limit={limit:g}", newly_engaged)]


def _roll_back(state: GuardState, flagged: set[int], fresh_clock: bool) -> list[GuardEvent]:
    """Release engaged nodes the localizer has stopped flagging.

    The threshold grows with the node's engagement count (a fenced attacker
    looks exactly like a false positive).  Stale-clocked windows re-flag as
    usual but never advance the rollback clocks.
    """
    rolled_back: list[int] = []
    for node, held in list(state.engaged.items()):
        if node in flagged:
            held.windows_since_flagged = 0
        elif fresh_clock:
            held.windows_since_flagged += 1
            threshold = state.policy.stale_threshold(state.engage_counts.get(node, 1))
            if held.windows_since_flagged >= threshold:
                _release(state, node)
                rolled_back.append(node)
    if not rolled_back:
        return []
    fields = {"nodes": tuple(rolled_back), "remaining": len(state.engaged)}
    nodes = fields["nodes"]
    events = [GuardEvent("rolled_back", fields, "no longer localized", nodes)]
    if not state.engaged:
        # The rollback lifted the last restriction: record a full release so
        # the report's release_cycle reflects reality.  This marker has no
        # ``clean_windows``, so nothing counts its nodes twice.
        fields = {"nodes": nodes, "remaining": 0}
        events.append(GuardEvent("released", fields, "all restrictions rolled back"))
    return events


def _release_probe(state: GuardState) -> list[GuardEvent]:
    """Release ONE engaged node whose clean-window hold has expired.

    The required clean streak grows with the node's re-engage backoff.
    Releases are **staggered, one fence at a time**: every release is a
    probe, and lifting all ready fences at once would restart a distributed
    flood in one window.  The least re-engaged node goes first (most likely
    an innocent), then the lowest shadow pressure; ``release_probe_spacing``
    gives a released attacker's congestion time to rebuild and break the
    streak before the next fence lifts.
    """
    policy, counts, clean = state.policy, state.engage_counts, state.consecutive_clean
    ready = [
        node
        for node in sorted(state.engaged)
        if clean >= policy.release_threshold(counts.get(node, 1))
    ]
    if not ready or (
        state.last_probe_window is not None
        and state.window_index - state.last_probe_window < policy.release_probe_spacing
    ):
        return []
    probe = min(
        ready,
        key=lambda node: (counts.get(node, 1), state.engaged[node].shadow_pressure, node),
    )
    _release(state, probe)
    state.last_probe_window = state.window_index
    remaining = len(state.engaged)
    detail = f"{clean} clean windows"
    if remaining:
        detail += f"; staggered probe, {remaining} still fenced"
    else:
        state.flag_streaks.clear()
    fields = {"nodes": (probe,), "clean_windows": clean, "remaining": remaining}
    return [GuardEvent("released", fields, detail, (probe,))]


def _release(state: GuardState, node: int) -> None:
    del state.engaged[node]
    # A released node must rebuild a full engage_after streak before it can
    # be fenced again, and re-conviction must come from fresh post-release
    # evidence: whatever suspicion it retained while fenced is stale.
    state.flag_streaks.pop(node, None)
    if state.evidence is not None:
        state.evidence.reset_node(node)
    if not state.engaged:
        state.containment_epoch = None


def _update_shadow_pressure(state: GuardState, flagged: set[int]) -> None:
    """Cool every engaged node's shadow counter; re-heat re-flagged ones.

    Runs every window: quiet windows are the only evidence a quarantined
    source has actually stopped pushing.
    """
    for node, held in state.engaged.items():
        held.shadow_pressure *= SHADOW_DECAY
        if node in flagged:
            held.shadow_pressure += 1.0


class DL2FenceGuard:
    """Attaches DL2Fence to a live simulator and acts on what it localizes."""

    def __init__(
        self,
        fence: DL2Fence,
        policy: MitigationPolicy | None = None,
        attack_start: int | None = None,
        attack_end: int | None = None,
        true_attackers: tuple[int, ...] = (),
        evidence: EvidenceConfig | bool = True,
        degraded: DegradedModeConfig | bool = True,
    ) -> None:
        """``attack_start``, ``attack_end`` and ``true_attackers`` are
        optional ground truth used only for evaluation metrics (detection
        latency, recovery, collateral); the guard's decisions never read
        them.

        ``evidence`` configures the cross-window evidence accumulator the
        guard consults alongside the per-window Table-Like Method (see
        :mod:`repro.defense.evidence`): ``True`` (the default) uses
        :class:`EvidenceConfig` defaults, an explicit config tunes it, and
        ``False`` restores pure single-window localization.

        ``degraded`` configures degraded-mode operation against faulty
        telemetry (see :mod:`repro.defense.degraded`): windows are scrubbed
        through a :class:`WindowSanitizer`, delivery gaps charge extra
        evidence decay, stale (delayed) windows never drive release probes,
        and nodes with no trustworthy telemetry — declared-silent or
        stuck-counter — are excluded from evidence, flag streaks and new
        engagements.  On a healthy stream the whole machinery is a no-op,
        which is why it defaults on; ``False`` disables it."""
        self.fence = fence
        self.policy = policy or MitigationPolicy()
        if evidence is True:
            evidence = EvidenceConfig()
        if degraded is True:
            degraded = DegradedModeConfig()
        # The accumulator scores the nodes the fence localizes on its mesh.
        self.state = GuardState(
            self.policy,
            EvidenceAccumulator(fence.topology.num_nodes, evidence) if evidence else None,
            degraded or None,
        )
        # Built by attach(), which knows the monitored mesh and period.
        self._sanitizer: WindowSanitizer | None = None
        self.report = DefenseReport(
            policy=self.policy,
            sample_period=0,
            attack_start=attack_start,
            attack_end=attack_end,
            true_attackers=tuple(true_attackers),
            event_counts=dict.fromkeys(COUNTED_EVENTS.values(), 0),
        )
        # Actuator side: limits to restore on release, and how far into the
        # simulator's delivery log the window latencies have read.
        self._previous_limits: dict[int, float] = {}
        self._delivered_index = 0

    # -- wiring ------------------------------------------------------------
    def attach(
        self,
        simulator: NoCSimulator,
        monitor: GlobalPerformanceMonitor | None = None,
        monitor_config: MonitorConfig | None = None,
    ) -> "DL2FenceGuard":
        """Wire the guard into a simulator's monitoring stream.

        Reuses ``monitor`` when given (it must already observe ``simulator``);
        otherwise creates and attaches a fresh
        :class:`GlobalPerformanceMonitor` with ``monitor_config``.
        """
        if monitor is None:
            monitor = GlobalPerformanceMonitor(monitor_config).attach(simulator)
        period = monitor.config.sample_period
        self.report.sample_period = period
        if self.state.degraded is not None:
            self._sanitizer = WindowSanitizer(
                simulator.topology, self.state.degraded, sample_period=period or None
            )
        # The guard is the one listener whose failure must abort the episode
        # (a defense silently detached from its stream is worse than a
        # crash); auxiliary listeners default to isolated dispatch.
        monitor.add_listener(self.on_sample, critical=True)
        return self

    # -- state --------------------------------------------------------------
    @property
    def engaged_nodes(self) -> list[int]:
        """Nodes currently under an active countermeasure."""
        return sorted(self.state.engaged)

    # -- the closed loop -----------------------------------------------------
    def on_sample(self, sample: FrameSample, simulator: NoCSimulator) -> None:
        """Process one sampling window: observe, decide, actuate."""
        self._actuate(self.decide_window(self._observe(sample, simulator)), simulator)

    def _observe(self, sample: FrameSample, simulator: NoCSimulator) -> Observation:
        """Read one window off the monitor stream, the pipeline and the mesh."""
        state = self.state
        period = self.report.sample_period
        degraded = state.degraded
        if BUS.active:
            # Coordinates for every event this window emits.  The episode
            # label is the batched backend's lane index; solo simulators
            # are lane 0 unless the harness stamps one.
            BUS.set_context(
                episode=simulator.lane_index,
                cycle=sample.cycle,
                window=state.window_index,
            )

        # Keep localization topology-aware: point the pipeline's TLM/VCE at
        # the live (possibly fault-degraded) routing function every window,
        # so a mid-episode link death re-anchors the reverse deduction at
        # the next sample.  ``None`` on a pristine mesh — a no-op.
        self.fence.set_route_provider(simulator.network.route_provider)

        # Scrub the window against stuck counters, implausible cells and
        # declared-silent nodes.  Detour carriers of an active data-plane
        # fault keep trustworthy telemetry, but their congestion is partly
        # the reroute's own.
        unobservable: frozenset[int] = frozenset()
        detour: frozenset[int] = frozenset()
        corroborated: frozenset[int] = frozenset()
        sanitized = {}
        if self._sanitizer is not None:
            local = sample.metadata.get(LOCAL_BOC_KEY)
            sample, health = self._sanitizer.sanitize(sample)
            unobservable = health.unobservable
            if health.degraded:
                sanitized = dict(
                    imputed_cells=health.imputed_cells,
                    declared_silent=health.declared_silent,
                    stuck=health.stuck,
                )
            detour = health.detour_carriers
            if detour and local:
                # The reroute can shift what a router forwards, never what
                # its PE injects: a carrier whose LOCAL-port activity runs
                # well above the mesh-wide median this window floods on its
                # own and keeps full evidence weight (per window, so no
                # benign burst latches).
                activity = np.asarray(local, dtype=np.float64)
                median = max(float(np.median(activity)), 1.0)
                bar = degraded.detour_injection_factor * median
                corroborated = frozenset(node for node in detour if activity[node] >= bar)
                detour -= corroborated
        # A gap (dropped windows) is charged as extra evidence decay; a stale
        # capture clock (delayed windows arriving in a burst) testifies about
        # the past, and fences are only lifted on *current* cleanliness.
        missed_windows = 0
        if period > 0 and state.last_window_cycle is not None:
            elapsed = int(round((sample.cycle - state.last_window_cycle) / period))
            missed_windows = max(0, elapsed - 1)
        fresh_clock = True
        if period > 0 and degraded is not None:
            lag = simulator.cycle - sample.cycle
            fresh_clock = lag <= degraded.stale_window_tolerance * period

        result = self.fence.process_sample(sample)
        deliveries = self._window_latency(simulator)
        weight = 0.0
        if state.evidence is not None:
            weight = state.evidence.window_weight(
                result.detected,
                result.detection_probability,
                benign_calibration=self.fence.detector.benign_calibration,
            )
            if not result.detected and weight > 0.0:
                # Sub-threshold window: run segmentation anyway so weak
                # evidence (partial routes, frontier candidates) enters the
                # accumulator instead of being discarded with the window.
                # The detection outcome is handed back in, so the detector
                # forward pass is not repeated.
                result = self.fence.process_sample(
                    sample,
                    force_localization=True,
                    detection=(result.detected, result.detection_probability),
                )
        return Observation(
            cycle=sample.cycle,
            result=result,
            weight=weight,
            unobservable=unobservable,
            detour=detour,
            corroborated=corroborated,
            missed_windows=missed_windows,
            fresh_clock=fresh_clock,
            sanitized=sanitized,
            deliveries=deliveries,
        )

    def decide_window(self, observation: Observation) -> tuple[GuardEvent, ...]:
        """Run :func:`decide` on one observed window and hand out its events.

        The simulator-free half of :meth:`on_sample`.  Each event goes, in
        stream order, to the report, the trace (when tracing is on) and
        ``repro_guard_events_total`` (when metrics are on: the logged
        decisions and the window, node-counted, 1 for ``detected`` and
        ``window``).  Returns the stream for the actuator.
        """
        events = decide(self.state, observation)
        for event in events:
            kind, fields = event.kind, event.fields
            self.report.fold(observation.cycle, event)
            if BUS.active:
                BUS.emit(kind, **fields)
            # The full-rollback marker, which tally() skips, is not metered.
            if METRICS.active and kind in METERED_KINDS and (
                kind not in COUNTED_EVENTS or tally(kind, fields)
            ):
                guard_events_counter().inc(len(event.nodes) or 1, kind=kind)
        return events

    # -- mitigation mechanics ---------------------------------------------------
    def _actuate(self, events: tuple[GuardEvent, ...], simulator: NoCSimulator) -> None:
        """Apply the events' countermeasure changes to the mesh, in order."""
        network = simulator.network
        flush = self.policy.flush_queue
        for event in events:
            for node in event.actuated:
                if event.kind == "engaged":
                    self._previous_limits[node] = network.injection_limit(node)
                    simulator.throttle_node(node, self.policy.injection_limit)
                    if flush:
                        network.flush_source_queue(node)
                    continue
                if flush:
                    # Restart the interface cleanly: the backlog accumulated
                    # while fenced would otherwise pour out the moment the
                    # limit lifts.
                    network.flush_source_queue(node)
                simulator.throttle_node(node, self._previous_limits.pop(node))

    # -- measurement ----------------------------------------------------------
    def _window_latency(self, simulator: NoCSimulator) -> dict:
        """Benign latency and delivery counts since the last window.

        Benign deliveries are split at the containment epoch into
        **backlog** — created before the fence went up, attack damage
        draining out — and **fresh** — created under the fence, measuring
        the fenced network itself; before any engagement all are fresh.
        Returned as the window's :class:`WindowRecord` delivery fields.
        """
        new = simulator.stats.columns(self._delivered_index)
        self._delivered_index += len(new)
        benign = new.benign()
        epoch = self.state.containment_epoch
        fresh = benign if epoch is None else benign.select(benign.created >= epoch)
        return dict(
            benign_latency=_mean_latency(benign),
            benign_delivered=len(benign),
            malicious_delivered=len(new) - len(benign),
            benign_fresh_latency=_mean_latency(fresh),
            benign_fresh_delivered=len(fresh),
            benign_backlog_delivered=len(benign) - len(fresh),
        )
