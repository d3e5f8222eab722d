"""Online DL2Fence guard: closed-loop detection, localization and mitigation.

The guard turns the offline DL2Fence pipeline into a runtime system.  It
subscribes to the :class:`~repro.monitor.sampler.GlobalPerformanceMonitor`
stream, pushes every sampling window through the trained detector/localizer
(using the batched single-forward fast path of
:meth:`repro.core.pipeline.DL2Fence.process_sample`), and pulls the
injection rate-limit hook on the mesh's source queues for every node the
Table-Like Method pins as an attacker.

The countermeasure surface is backend-agnostic: ``set_injection_limit`` /
``flush_source_queue`` exist on both the object mesh and the vectorized
structure-of-arrays backend (where a limit update writes the per-node
limit/credit arrays the injection kernel gates on), and both backends feed
the guard identical windows and delivered-packet streams — a defended
episode produces the same :class:`DefenseReport` under either
``REPRO_SIM_BACKEND`` value (pinned by
``tests/noc/test_soa_equivalence.py``).  Reports round-trip losslessly
through :meth:`DefenseReport.to_payload`, which is what the experiment
engine's per-episode cache stores.

Engagement and release follow the hysteresis of the configured
:class:`~repro.defense.policy.MitigationPolicy` so a single noisy window can
neither trip nor lift the fence, and nodes that stop being re-flagged roll
back automatically even while an attack continues elsewhere.

Concurrent multi-attacker floods are handled through **iterative
localization rounds**, following the paper's Figure-3 multi-attacker rules:
fencing the loudest localized attacker removes its congestion signature, the
guard keeps streaming windows through the Table-Like Method, and the next
rounds surface the remaining attackers one batch at a time.  Per-node engage
counts drive an exponential re-engage backoff (quarantined attackers leave
no evidence, so every release is a probe; repeat offenders are held
exponentially longer), and ``max_engaged_nodes`` bounds the blast radius of
an over-approximated localization superset.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from repro.core.pipeline import DL2Fence
from repro.defense.degraded import DegradedModeConfig, WindowSanitizer
from repro.defense.evidence import EvidenceAccumulator, EvidenceConfig
from repro.defense.policy import MitigationPolicy
from repro.defense.report import DefenseEvent, DefenseReport, WindowRecord
from repro.faults.monitor import DETOUR_KEY, LOCAL_BOC_KEY
from repro.monitor.frames import FrameSample
from repro.monitor.sampler import GlobalPerformanceMonitor, MonitorConfig
from repro.noc.simulator import NoCSimulator
from repro.noc.stats import DeliveredColumns, LatencyStats
from repro.obs.bus import BUS
from repro.obs.metrics import METRICS, guard_events_counter

__all__ = ["DL2FenceGuard"]

#: ``report.event_counts`` tally each counted decision kind adds its nodes to.
_COUNT_KEYS = {
    "convicted": "convictions",
    "engaged": "engagements",
    "rolled_back": "releases",
    "released": "releases",
}


def _mean_latency(delivered: DeliveredColumns) -> float:
    """Mean creation-to-ejection latency of ``delivered`` (NaN if empty)."""
    if len(delivered) == 0:
        return math.nan
    return LatencyStats.from_columns(delivered).packet_latency


@dataclass
class _EngagedNode:
    """Book-keeping for one node under an active countermeasure."""

    node: int
    previous_limit: float
    engaged_cycle: int
    windows_since_flagged: int = 0
    #: Shadow counter: estimated residual pressure behind the fence.  A
    #: quarantined node emits no congestion evidence, so the guard keeps a
    #: decaying estimate instead — seeded from the node's suspicion at
    #: engage time, bumped whenever the node is re-flagged while fenced,
    #: cooled every quiet window.  Release probes go lowest-pressure first.
    shadow_pressure: float = 0.0


class DL2FenceGuard:
    """Attaches DL2Fence to a live simulator and acts on what it localizes."""

    #: Per-window retention of an engaged node's shadow-pressure counter.
    _SHADOW_DECAY = 0.8

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
        self.evidence_config: EvidenceConfig | None = evidence or None
        if degraded is True:
            degraded = DegradedModeConfig()
        self.degraded_config: DegradedModeConfig | None = degraded or None
        # Built lazily on the first window (the scripted test harness wires
        # a guard to a simulator without attach(), so the mesh size is only
        # reliably known once a sample arrives).
        self.evidence: EvidenceAccumulator | None = None
        self.simulator: NoCSimulator | None = None
        self.monitor: GlobalPerformanceMonitor | None = None
        self.report = DefenseReport(
            policy=self.policy,
            sample_period=0,
            attack_start=attack_start,
            attack_end=attack_end,
            true_attackers=tuple(true_attackers),
            event_counts=dict.fromkeys(
                ("engagements", "releases", "convictions", "clamps", "detour_discounts"),
                0,
            ),
        )
        self._engaged: dict[int, _EngagedNode] = {}
        # Consecutive detection windows each candidate node was flagged in —
        # per-node engagement hysteresis, so one spurious localization in an
        # otherwise correct detection streak cannot fence an innocent node.
        self._flag_streaks: dict[int, int] = {}
        # Lifetime engagement count per node: feeds the policy's re-engage
        # backoff so an attacker that oscillates through release probes is
        # held exponentially longer each time.
        self._engage_counts: dict[int, int] = {}
        # Iterative localization round counter: each batch of engagements is
        # one round of the paper's multi-attacker sampling procedure.
        self._round = 0
        self._consecutive_detections = 0
        self._consecutive_clean = 0
        self._delivered_index = 0
        self._window_index = 0
        # Degraded-mode state: the sanitizer is built lazily (mesh size is
        # only known once a sample arrives), the last-window cycle detects
        # delivery gaps, and the containment epoch anchors the drain-aware
        # fresh/backlog split of the latency accounting.
        self._sanitizer: WindowSanitizer | None = None
        self._last_window_cycle: int | None = None
        self._containment_epoch: int | None = None
        self._last_probe_window: int | None = None

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
        self.simulator = simulator
        self.monitor = monitor
        self.report.sample_period = monitor.config.sample_period
        # The guard is the one listener whose failure must abort the episode
        # (a defense silently detached from its stream is worse than a
        # crash); auxiliary listeners default to isolated dispatch.
        monitor.add_listener(self.on_sample, critical=True)
        return self

    # -- state --------------------------------------------------------------
    @property
    def engaged_nodes(self) -> list[int]:
        """Nodes currently under an active countermeasure."""
        return sorted(self._engaged)

    # -- the closed loop -----------------------------------------------------
    def on_sample(self, sample: FrameSample, simulator: NoCSimulator) -> None:
        """Process one sampling window: detect, accumulate, localize, mitigate.

        The window's actionable attacker set is the union of the Table-Like
        Method's per-window localization and the nodes the cross-window
        evidence accumulator currently holds convicted.  A window counts as
        "acted on" when either the detector fires or the evidence convicts a
        not-yet-fenced node — the latter is what makes stealth, migrating
        and on-route attacks actionable even though no single window trips
        the detector.  Convictions on already-fenced nodes deliberately do
        *not* keep the loop in attack mode: a fenced attacker leaves no
        fresh evidence, so its stale suspicion must not block the release
        probing the hysteresis machinery schedules.
        """
        engaged_at_start = bool(self._engaged)
        period = self.report.sample_period
        if BUS.active:
            # Coordinates for every event this window emits, including from
            # nested emitters (evidence accumulator, sanitizer).  The episode
            # label is the batched backend's lane index; solo simulators
            # are lane 0 unless the harness stamps one.
            BUS.set_context(
                episode=simulator.lane_index,
                cycle=sample.cycle,
                window=self._window_index,
            )

        # Keep localization topology-aware: point the pipeline's TLM/VCE at
        # the live (possibly fault-degraded) routing function every window,
        # so a mid-episode link death re-anchors the reverse deduction at
        # the next sample.  ``None`` on a pristine mesh — a no-op.
        sync_provider = getattr(self.fence, "set_route_provider", None)
        if sync_provider is not None:
            sync_provider(simulator.network.route_provider)

        # Detour carriers of an active data-plane fault: trustworthy
        # telemetry, but congestion partly caused by the reroute itself.
        detour: frozenset[int] = frozenset()
        corroborated: frozenset[int] = frozenset()
        if self.degraded_config is not None:
            metadata = getattr(sample, "metadata", None) or {}
            detour = frozenset(int(node) for node in metadata.get(DETOUR_KEY, ()))
            # Injection-corroborated carriers: the reroute can shift what a
            # router forwards, never what its PE injects.  A carrier whose
            # LOCAL-port activity runs well above the mesh-wide median this
            # window is injecting a flood of its own, and any accusation
            # against it keeps full evidence weight — per-window, so one
            # benign burst never latches an innocent carrier out of the
            # protections.
            if detour:
                local = metadata.get(LOCAL_BOC_KEY)
                if local:
                    activity = np.asarray(local, dtype=np.float64)
                    bar = self.degraded_config.detour_injection_factor * max(
                        float(np.median(activity)), 1.0
                    )
                    corroborated = frozenset(
                        node for node in detour if activity[node] >= bar
                    )
                    detour -= corroborated

        # -- degraded-mode preprocessing ----------------------------------
        # Scrub the window against fault signatures (stuck counters,
        # implausible cells, declared-silent nodes).  Scripted harnesses
        # push frame-less stub samples; those bypass sanitisation.
        unobservable: frozenset[int] = frozenset()
        if self.degraded_config is not None and getattr(sample, "vco", None) is not None:
            if self._sanitizer is None:
                self._sanitizer = WindowSanitizer(
                    simulator.topology,
                    self.degraded_config,
                    sample_period=period or None,
                )
            sample, health = self._sanitizer.sanitize(sample)
            unobservable = health.unobservable
            self.report.event_counts["clamps"] += health.imputed_cells
        # Delivery-gap and clock-staleness bookkeeping.  A gap (dropped
        # windows) charges the evidence accumulator the decay it missed; a
        # stale capture clock (delayed windows arriving in a burst) blocks
        # release decisions below — stale windows testify about the past,
        # and fences are only lifted on *current* cleanliness.
        missed_windows = 0
        if period > 0 and self._last_window_cycle is not None:
            elapsed = int(round((sample.cycle - self._last_window_cycle) / period))
            missed_windows = max(0, elapsed - 1)
        if self._last_window_cycle is None or sample.cycle > self._last_window_cycle:
            self._last_window_cycle = sample.cycle
        fresh_clock = True
        if period > 0 and self.degraded_config is not None:
            lag = simulator.cycle - sample.cycle
            fresh_clock = lag <= self.degraded_config.stale_window_tolerance * period

        result = self.fence.process_sample(sample)
        deliveries = self._window_latency(simulator)

        convicted: list[int] = []
        if self.evidence_config is not None:
            if self.evidence is None:
                self.evidence = EvidenceAccumulator(
                    simulator.topology.num_nodes, self.evidence_config
                )
            if missed_windows:
                cap = (
                    self.degraded_config.max_gap_decay
                    if self.degraded_config is not None
                    else 8
                )
                self.evidence.decay_gap(min(missed_windows, cap))
            weight = self.evidence.window_weight(
                result.detected,
                result.detection_probability,
                benign_calibration=getattr(
                    getattr(self.fence, "detector", None), "benign_calibration", None
                ),
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
            observed = result
            if unobservable:
                # Hard invariant: a node with no trustworthy telemetry this
                # window contributes no affirmative evidence — a merely
                # silent or stuck node can decay out of suspicion but never
                # accrue into it.
                observed = dataclasses.replace(
                    result,
                    attackers=[n for n in result.attackers if n not in unobservable],
                    frontier=[n for n in result.frontier if n not in unobservable],
                )
            discounts = (
                dict.fromkeys(detour, self.degraded_config.detour_discount)
                if detour and self.degraded_config is not None
                else None
            )
            if discounts:
                self.report.event_counts["detour_discounts"] += len(detour)
            if BUS.active and (discounts or corroborated):
                BUS.emit(
                    "detour_discount",
                    nodes=detour,
                    discount=(
                        self.degraded_config.detour_discount if discounts else 1.0
                    ),
                    promoted=corroborated,
                )
            fresh = self.evidence.observe(
                observed,
                weight,
                discounts=discounts,
                promotions=corroborated or None,
            )
            if fresh:
                self._record(
                    "convicted", sample.cycle, sorted(fresh), "cross-window evidence"
                )
            convicted = self.evidence.convicted_nodes()

        acted = result.detected or any(
            node not in self._engaged and node not in unobservable
            for node in convicted
        )
        flagged = sorted(set(result.attackers).union(convicted) - unobservable)
        # Detour carriers never engage on raw per-window flag streaks: a
        # reroute shifts legitimate congestion onto their row/column, so
        # per-frame naming is expected, not incriminating.  Only a full
        # cross-window conviction — which discounted evidence cannot
        # deliver unless the carrier's own injection telemetry lifts the
        # discount — makes them streak-eligible.  (``detour`` here already
        # excludes injection-corroborated carriers.)
        convicted_set = set(convicted)
        streak_eligible = [
            node for node in flagged if node not in detour or node in convicted_set
        ]
        self._update_shadow_pressure(set(flagged))

        if acted:
            if self._consecutive_detections == 0:
                detail = f"p={result.detection_probability:.2f}"
                if not result.detected:
                    detail += " evidence"
                self._record(
                    "detected",
                    sample.cycle,
                    detail=detail,
                    probability=float(result.detection_probability),
                    via="detector" if result.detected else "evidence",
                )
            self._consecutive_detections += 1
            self._consecutive_clean = 0
        else:
            self._consecutive_clean += 1
            self._consecutive_detections = 0
            if not self._engaged:
                # Before anything engages, a clean window breaks every flag
                # streak: engagement requires N *consecutive* detections.
                # While mitigation is active, clean windows are expected (the
                # fence suppresses the evidence), so streaks survive there.
                self._flag_streaks.clear()

        if acted:
            self._engage_flagged(streak_eligible, sample.cycle, simulator)
            self._rollback_stale(
                set(flagged), sample.cycle, simulator, fresh_clock=fresh_clock
            )
        elif self._engaged and fresh_clock:
            self._release_ready(sample.cycle, simulator)

        record = WindowRecord(
            index=self._window_index,
            cycle=sample.cycle,
            detected=acted,
            probability=result.detection_probability,
            phase="mitigated" if engaged_at_start else "attack" if acted else "benign",
            victims=tuple(result.victims),
            attackers=tuple(result.attackers),
            restricted=tuple(sorted(self._engaged)),
            suspected=tuple(convicted),
            unobservable=tuple(sorted(unobservable)),
            **deliveries,
        )
        self.report.windows.append(record)
        if BUS.active:
            BUS.emit(
                "window",
                phase=record.phase,
                detected=record.detected,
                probability=float(record.probability),
                attackers=record.attackers,
                suspected=record.suspected,
                engaged=record.restricted,
                unobservable=record.unobservable,
            )
        if METRICS.active:
            guard_events_counter().inc(kind="window")
        self._window_index += 1

    # -- mitigation mechanics ---------------------------------------------------
    def _engage_flagged(
        self, attackers: list[int], cycle: int, simulator: NoCSimulator
    ) -> None:
        """Apply the countermeasure to persistently localized attackers.

        A node engages only once it has been flagged in ``engage_after``
        consecutive detection windows — per-node hysteresis on top of the
        detection itself, which keeps one-off localization noise from
        throttling innocents.  When the policy caps simultaneously engaged
        nodes, the most persistently flagged candidates are fenced first and
        the rest wait for the next localization round — the superset-recovery
        safeguard for a Table-Like Method that over-approximates.
        """
        flagged = set(attackers)
        for node in list(self._flag_streaks):
            if node not in flagged:
                del self._flag_streaks[node]
        eligible: list[tuple[int, int]] = []
        for node in attackers:
            if node in self._engaged:
                continue
            streak = self._flag_streaks.get(node, 0) + 1
            self._flag_streaks[node] = streak
            if streak >= self.policy.engage_after:
                eligible.append((node, streak))
        budget = len(eligible)
        if self.policy.max_engaged_nodes is not None:
            budget = max(0, self.policy.max_engaged_nodes - len(self._engaged))
        # Longest streak first: the most consistently localized candidate is
        # the "loudest" attacker of this round.
        eligible.sort(key=lambda item: (-item[1], item[0]))
        newly_engaged = []
        limit = self.policy.injection_limit
        for node, _streak in eligible[:budget]:
            previous = simulator.network.injection_limit(node)
            simulator.throttle_node(node, limit)
            if self.policy.flush_queue:
                simulator.network.flush_source_queue(node)
            self._engage_counts[node] = self._engage_counts.get(node, 0) + 1
            self._engaged[node] = _EngagedNode(
                node=node,
                previous_limit=previous,
                engaged_cycle=cycle,
                # Seed the shadow counter from the suspicion the node built
                # in the open: the loudest conviction enters quarantine with
                # the most residual pressure to decay off.
                shadow_pressure=(
                    float(self.evidence.suspicion_of(node))
                    if self.evidence is not None
                    else 1.0
                ),
            )
            newly_engaged.append(node)
        if newly_engaged:
            if self._containment_epoch is None:
                # Anchor of the drain-aware latency split: benign packets
                # created before this cycle experienced the unmitigated
                # attack and drain as backlog; packets created after it
                # measure the fenced network itself.
                self._containment_epoch = cycle
            self._round += 1
            # A new localization round just opened: the attack is still
            # surfacing attackers, and a fenced attacker is indistinguishable
            # from a false positive (no evidence either way).  Restart the
            # stale clocks of every held node so the round churn cannot roll
            # back attacker k right as attacker k+1 engages — the whack-a-mole
            # failure of multi-source floods.  Once rounds stop opening, the
            # stale clocks run again and innocents release as before.
            for state in self._engaged.values():
                state.windows_since_flagged = 0
            self._record(
                "engaged",
                cycle,
                sorted(newly_engaged),
                f"limit={limit:g}",
                round=self._round,
                limit=float(limit),
            )

    def _rollback_stale(
        self,
        flagged: set[int],
        cycle: int,
        simulator: NoCSimulator,
        fresh_clock: bool = True,
    ) -> None:
        """Release engaged nodes the localizer has stopped flagging.

        The per-node threshold grows with the node's engagement count: a
        fenced attacker looks exactly like a false positive (no congestion
        evidence), so a node that already bounced through a release probe is
        held longer before the next one.  Stale-clocked windows (delayed
        delivery) re-flag as usual but never advance the rollback clocks:
        releases are only earned on current observations.
        """
        rolled_back = []
        for node, state in list(self._engaged.items()):
            if node in flagged:
                state.windows_since_flagged = 0
                continue
            if not fresh_clock:
                continue
            state.windows_since_flagged += 1
            threshold = self.policy.stale_threshold(self._engage_counts.get(node, 1))
            if state.windows_since_flagged >= threshold:
                self._release_node(node, simulator)
                rolled_back.append(node)
        if rolled_back:
            self._record(
                "rolled_back",
                cycle,
                rolled_back,
                "no longer localized",
                remaining=len(self._engaged),
            )
            if not self._engaged:
                # The rollback lifted the last restriction: record a full
                # release so the report's release_cycle reflects reality.
                self._record(
                    "released",
                    cycle,
                    rolled_back,
                    "all restrictions rolled back",
                    restated=True,
                    remaining=0,
                )

    def _release_ready(self, cycle: int, simulator: NoCSimulator) -> None:
        """Release ONE engaged node whose clean-window hold has expired.

        Per-node release state: each node's required clean streak is scaled
        by the policy's re-engage backoff, so first offenders release after
        ``release_after`` clean windows exactly as before, while oscillating
        nodes wait exponentially longer.

        Releases are **staggered, one fence at a time**: a quarantined
        attacker leaves no evidence, so every release is a probe, and
        releasing all ready nodes at once would restart a distributed flood
        in a single window and forfeit containment.  The least re-engaged
        node goes first (most likely an innocent), ties broken by the
        lowest shadow-pressure estimate — the node whose residual pressure
        behind the fence has decayed furthest is the safest probe — and the
        policy's
        ``release_probe_spacing`` leaves clean windows between consecutive
        probes so a released attacker's congestion has time to rebuild and
        break the streak before the next fence lifts.
        """
        ready = [
            node
            for node in sorted(self._engaged)
            if self._consecutive_clean
            >= self.policy.release_threshold(self._engage_counts.get(node, 1))
        ]
        if not ready:
            return
        if (
            self._last_probe_window is not None
            and self._window_index - self._last_probe_window
            < self.policy.release_probe_spacing
        ):
            return
        probe = min(
            ready,
            key=lambda node: (
                self._engage_counts.get(node, 1),
                self._engaged[node].shadow_pressure,
                node,
            ),
        )
        self._release_node(probe, simulator)
        self._last_probe_window = self._window_index
        if not self._engaged:
            self._flag_streaks.clear()
        detail = f"{self._consecutive_clean} clean windows"
        if self._engaged:
            detail += f"; staggered probe, {len(self._engaged)} still fenced"
        self._record(
            "released",
            cycle,
            (probe,),
            detail,
            clean_windows=self._consecutive_clean,
            remaining=len(self._engaged),
        )

    def _release_node(self, node: int, simulator: NoCSimulator) -> None:
        state = self._engaged.pop(node)
        # A released node must rebuild a full engage_after streak before it
        # can be fenced again — without this, a streak surviving a partial
        # release would let one noisy localization instantly re-engage it.
        self._flag_streaks.pop(node, None)
        if self.evidence is not None:
            # The release is a probe: whatever suspicion the node retained
            # while fenced is stale (a fenced flood leaves no signature), so
            # re-conviction must come from fresh post-release evidence.
            self.evidence.reset_node(node)
        if self.policy.flush_queue:
            # Restart the interface cleanly: the backlog accumulated while
            # fenced would otherwise pour out the moment the limit lifts.
            simulator.network.flush_source_queue(node)
        simulator.throttle_node(node, state.previous_limit)
        if not self._engaged:
            self._containment_epoch = None

    # -- shadow counters -------------------------------------------------------
    def _update_shadow_pressure(self, flagged: set[int]) -> None:
        """Cool every engaged node's shadow counter; re-heat re-flagged ones.

        Runs every window (detected or clean): pressure is an estimate of
        what the fence is currently holding back, and quiet windows are the
        only evidence a quarantined source has actually stopped pushing.
        """
        for node, state in self._engaged.items():
            state.shadow_pressure *= self._SHADOW_DECAY
            if node in flagged:
                state.shadow_pressure += 1.0

    # -- observability ---------------------------------------------------------
    def _record(
        self,
        kind: str,
        cycle: int,
        nodes=(),
        detail: str = "",
        round: int = 0,
        restated: bool = False,
        **fields,
    ) -> None:
        """Write one decision to the report, the trace and the metrics.

        The single write path of every guard decision: it appends the
        :class:`DefenseEvent`, adds the nodes to ``report.event_counts``,
        emits the bus event (with ``fields``) when tracing is on and bumps
        ``repro_guard_events_total`` — node-counted, 1 for ``detected`` —
        when metrics are on.  ``restated`` marks the full-rollback
        ``released`` marker, which restates nodes its ``rolled_back``
        sibling already counted: it is logged and traced, never counted.
        """
        event = DefenseEvent(cycle, kind, tuple(nodes), detail, round)
        self.report.events.append(event)
        if not restated and kind in _COUNT_KEYS:
            self.report.event_counts[_COUNT_KEYS[kind]] += len(event.nodes)
        # The evidence accumulator traces its own convictions.
        if BUS.active and kind != "convicted":
            if event.nodes:
                fields["nodes"] = event.nodes
            if round:
                fields["round"] = round
            BUS.emit(kind, **fields)
        if METRICS.active and not restated:
            guard_events_counter().inc(len(event.nodes) or 1, kind=kind)

    # -- measurement ----------------------------------------------------------
    def _window_latency(self, simulator: NoCSimulator) -> dict:
        """Benign latency and delivery counts since the last window.

        Alongside the plain benign mean, delivered benign packets are split
        at the containment epoch (the first engagement of the current
        episode) into **backlog** — created before the fence went up, so
        their latency is attack damage draining out — and **fresh** —
        created under the fence, measuring the quality of the fenced
        network itself.  Before any engagement everything counts as fresh.
        Returned as the window's :class:`WindowRecord` delivery fields.
        """
        new = simulator.stats.columns(self._delivered_index)
        self._delivered_index += len(new)
        benign = new.benign()
        epoch = self._containment_epoch
        fresh = benign if epoch is None else benign.select(benign.created >= epoch)
        return dict(
            benign_latency=_mean_latency(benign),
            benign_delivered=len(benign),
            malicious_delivered=len(new) - len(benign),
            benign_fresh_latency=_mean_latency(fresh),
            benign_fresh_delivered=len(fresh),
            benign_backlog_delivered=len(benign) - len(fresh),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DL2FenceGuard(policy={self.policy.name}, "
            f"engaged={self.engaged_nodes}, windows={self._window_index})"
        )
