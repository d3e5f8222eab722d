"""Defense timeline: per-window records, events and recovery metrics.

The :class:`DefenseReport` is the measurement product of a closed-loop run.
It records one :class:`WindowRecord` per sampling window (what the pipeline
decided, what was restricted, and the benign latency observed in that window)
plus discrete :class:`DefenseEvent` transitions (first detection, engagement,
rollback, release), and derives the headline metrics of a runtime defense:
detection latency, time-to-mitigation, benign latency before/during/after
engagement, and collateral damage to throttled-but-innocent nodes.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.defense.policy import MitigationPolicy

__all__ = ["COUNTED_EVENTS", "DefenseEvent", "WindowRecord", "DefenseReport", "tally"]

#: Window phases, in the order a successful defended run traverses them.
PHASES = ("benign", "attack", "mitigated")

#: The guard decisions a report logs in ``DefenseReport.events``.
DECISION_KINDS = ("detected", "convicted", "engaged", "rolled_back", "released")

#: The ``DefenseReport.event_counts`` counter each counted event kind adds to.
COUNTED_EVENTS = {
    "engaged": "engagements",
    "rolled_back": "releases",
    "released": "releases",
    "convicted": "convictions",
    "window_sanitized": "clamps",
    "detour_discount": "detour_discounts",
}


def tally(kind: str, fields: Mapping) -> tuple[str, int] | None:
    """The ``event_counts`` counter one trace event adds to, and how much.

    Every counted kind adds its node total, except the sanitizer's
    ``window_sanitized``, which adds the cells it imputed.  ``None`` for an
    uncounted kind and for the full-rollback ``released`` marker — the
    ``released`` event without ``clean_windows`` — which restates nodes its
    ``rolled_back`` sibling already counted.
    """
    counter = COUNTED_EVENTS.get(kind)
    if counter is None or (kind == "released" and "clean_windows" not in fields):
        return None
    if kind == "window_sanitized":
        return counter, int(fields.get("imputed_cells", 0))
    return counter, len(fields.get("nodes", ()))


@dataclass(frozen=True)
class DefenseEvent:
    """A discrete state transition of the defense loop.

    ``round`` numbers the iterative localization round the event belongs to:
    each batch of engagements opens a new round, mirroring the paper's
    multi-attacker sampling rounds (quarantine the loudest attacker, keep
    sampling, and the next round's frames reveal the rest).
    """

    cycle: int
    kind: str  # "detected" | "convicted" | "engaged" | "rolled_back" | "released"
    nodes: tuple[int, ...] = ()
    detail: str = ""
    round: int = 0

    def describe(self) -> str:
        text = f"cycle {self.cycle:>7d}: {self.kind}"
        if self.nodes:
            text += f" nodes={list(self.nodes)}"
        if self.round:
            text += f" round={self.round}"
        if self.detail:
            text += f" ({self.detail})"
        return text


@dataclass(frozen=True)
class WindowRecord:
    """Everything the guard observed and did in one sampling window."""

    index: int
    cycle: int
    detected: bool
    probability: float
    phase: str  # one of PHASES, judged at the start of the window
    victims: tuple[int, ...] = ()
    attackers: tuple[int, ...] = ()
    restricted: tuple[int, ...] = ()
    benign_latency: float = math.nan
    benign_delivered: int = 0
    malicious_delivered: int = 0
    #: Nodes the cross-window evidence accumulator held convicted this
    #: window (empty when the guard runs with evidence fusion disabled).
    suspected: tuple[int, ...] = ()
    #: Nodes with no trustworthy telemetry this window (declared-silent or
    #: stuck-counter; empty on a healthy stream or with degraded mode off).
    unobservable: tuple[int, ...] = ()
    #: Drain-aware split of the benign deliveries: *fresh* packets were
    #: created after the containment epoch (first engagement of the current
    #: episode) and measure the fenced network; *backlog* packets were
    #: created before it and merely drain attack damage.  Before any
    #: engagement every delivery is fresh.
    benign_fresh_latency: float = math.nan
    benign_fresh_delivered: int = 0
    benign_backlog_delivered: int = 0


@dataclass
class DefenseReport:
    """Timeline and aggregate metrics of one closed-loop defended run."""

    policy: MitigationPolicy
    sample_period: int = 0
    attack_start: int | None = None
    attack_end: int | None = None
    true_attackers: tuple[int, ...] = ()
    windows: list[WindowRecord] = field(default_factory=list)
    events: list[DefenseEvent] = field(default_factory=list)
    #: Node totals of the guard's decisions (engagements, releases,
    #: convictions) plus sanitizer clamps and detour discounts, filled by
    #: the guard on every run, traced or not.  Deterministic and
    #: backend-identical: pure functions of the window stream.
    event_counts: dict[str, int] = field(default_factory=dict)

    def fold(self, cycle: int, event) -> None:
        """Fold one event of the guard's window stream into the report.

        ``event`` is a :class:`repro.defense.guard.GuardEvent`: decisions
        join ``events``, the ``window`` event's record joins ``windows``, and
        every event adds its :func:`tally` to ``event_counts``.
        """
        kind, fields = event.kind, event.fields
        if kind == "window":
            self.windows.append(event.record)
        elif kind in DECISION_KINDS:
            nodes = tuple(fields.get("nodes", ()))
            round_ = fields.get("round", 0)
            self.events.append(DefenseEvent(cycle, kind, nodes, event.detail, round_))
        counted = tally(kind, fields)
        if counted is not None:
            self.event_counts[counted[0]] += counted[1]

    # -- event accessors ----------------------------------------------------
    def _first_event_cycle(self, kind: str) -> int | None:
        for event in self.events:
            if event.kind == kind:
                return event.cycle
        return None

    @property
    def first_detection_cycle(self) -> int | None:
        """Cycle of the first window the detector flagged."""
        return self._first_event_cycle("detected")

    @property
    def engagement_cycle(self) -> int | None:
        """Cycle at which the first countermeasure engaged."""
        return self._first_event_cycle("engaged")

    @property
    def release_cycle(self) -> int | None:
        """Cycle of the final full rollback (None while still engaged).

        A re-engagement after a release invalidates the earlier release, so
        the scan stops at whichever of the two happened last.
        """
        for event in reversed(self.events):
            if event.kind == "engaged":
                return None
            if event.kind == "released":
                return event.cycle
        return None

    # -- headline latencies --------------------------------------------------
    @property
    def detection_latency(self) -> int | None:
        """Cycles from attack start to the first detection of *the attack*.

        Needs ``attack_start``.  Judged on per-window records rather than
        transition events: detections before the attack began are false
        positives and do not count, but a detection streak that started as a
        false positive and runs into the real attack still counts from its
        first window at or after ``attack_start``.
        """
        if self.attack_start is None:
            return None
        for window in self.windows:
            if window.detected and window.cycle >= self.attack_start:
                return window.cycle - self.attack_start
        return None

    @property
    def time_to_mitigation(self) -> int | None:
        """Cycles from attack start until a countermeasure is active.

        Needs ``attack_start``; judged on the first window at or after the
        attack began in which any node was restricted — including
        restrictions carried over from a pre-attack false positive that
        happen to already fence the attacker.
        """
        if self.attack_start is None:
            return None
        for window in self.windows:
            if window.restricted and window.cycle >= self.attack_start:
                return window.cycle - self.attack_start
        return None

    # -- per-attacker metrics (multi-attack) ----------------------------------
    def per_attacker_detection_latency(self) -> dict[int, int | None]:
        """Cycles from attack start until each true attacker is first localized.

        Needs ``attack_start`` and ``true_attackers``.  Judged on the
        per-window TLM output: an attacker only "surfaces" once the
        localizer names it, which for concurrent floods typically happens in
        a later sampling round, after louder attackers are fenced.
        """
        return self._per_attacker_latency("attackers")

    def per_attacker_time_to_mitigation(self) -> dict[int, int | None]:
        """Cycles from attack start until each true attacker is restricted."""
        return self._per_attacker_latency("restricted")

    def _per_attacker_latency(self, nodes_field: str) -> dict[int, int | None]:
        """Cycles from attack start to the first window whose ``nodes_field``
        (a :class:`WindowRecord` node tuple) holds each true attacker."""
        latencies: dict[int, int | None] = {}
        for attacker in self.true_attackers:
            latencies[attacker] = None
            if self.attack_start is None:
                continue
            for window in self.windows:
                if window.cycle >= self.attack_start and attacker in getattr(
                    window, nodes_field
                ):
                    latencies[attacker] = window.cycle - self.attack_start
                    break
        return latencies

    @property
    def containment_cycle(self) -> int | None:
        """First window cycle with *every* true attacker under restriction."""
        truth = set(self.true_attackers)
        if not truth:
            return None
        for window in self.windows:
            if truth.issubset(window.restricted):
                return window.cycle
        return None

    @property
    def time_to_full_containment(self) -> int | None:
        """Cycles from attack start until all true attackers are fenced at once.

        The headline multi-attack metric: it absorbs every iterative
        localization round needed to surface quieter attackers after louder
        ones are fenced.  Needs ``attack_start`` and ``true_attackers``.
        """
        if self.attack_start is None or self.containment_cycle is None:
            return None
        return max(0, self.containment_cycle - self.attack_start)

    def engage_counts(self) -> dict[int, int]:
        """How many times each node was (re-)engaged over the episode."""
        counts: dict[int, int] = {}
        for event in self.events:
            if event.kind == "engaged":
                for node in event.nodes:
                    counts[node] = counts.get(node, 0) + 1
        return counts

    @property
    def reengagements(self) -> int:
        """Total release-and-re-engage transitions (oscillation measure)."""
        return sum(count - 1 for count in self.engage_counts().values())

    @property
    def localization_rounds(self) -> int:
        """Number of iterative engagement rounds the episode needed."""
        return max((e.round for e in self.events if e.kind == "engaged"), default=0)

    # -- node sets -----------------------------------------------------------
    @property
    def engaged_nodes(self) -> set[int]:
        """Every node a countermeasure was ever applied to."""
        nodes: set[int] = set()
        for event in self.events:
            if event.kind == "engaged":
                nodes.update(event.nodes)
        return nodes

    @property
    def collateral_nodes(self) -> set[int]:
        """Engaged nodes that are not true attackers (needs true_attackers)."""
        return self.engaged_nodes - set(self.true_attackers)

    @property
    def collateral_node_windows(self) -> int:
        """Total (innocent node x restricted window) count — damage exposure."""
        truth = set(self.true_attackers)
        return sum(
            sum(1 for node in window.restricted if node not in truth)
            for window in self.windows
        )

    # -- latency aggregation ---------------------------------------------------
    def phase_windows(self, phase: str) -> list[WindowRecord]:
        """All windows of one phase (``benign`` / ``attack`` / ``mitigated``)."""
        if phase not in PHASES:
            raise ValueError(f"phase must be one of {PHASES}")
        return [window for window in self.windows if window.phase == phase]

    @staticmethod
    def _weighted_latency(windows: list[WindowRecord], fresh: bool = False) -> float:
        """Delivery-weighted mean benign latency over ``windows``.

        ``fresh`` restricts it to the *fresh* (post-containment-epoch)
        deliveries.
        """
        total = 0.0
        count = 0
        for window in windows:
            if fresh:
                latency = window.benign_fresh_latency
                delivered = window.benign_fresh_delivered
            else:
                latency = window.benign_latency
                delivered = window.benign_delivered
            if delivered and not math.isnan(latency):
                total += latency * delivered
                count += delivered
        return total / count if count else math.nan

    def phase_latency(self, phase: str, skip: int = 0) -> float:
        """Delivery-weighted mean benign packet latency over a phase.

        ``skip`` drops the first windows of the phase — used for the
        post-mitigation metric, where the first window after engagement still
        drains packets queued during the attack.
        """
        return self._weighted_latency(self.phase_windows(phase)[skip:])

    def pre_attack_latency(self) -> float:
        """Benign latency before any attack activity.

        Only benign-phase windows *before* the first detection count; clean
        windows after a release can still be draining attack backlog and
        would bias the baseline.  When the ground-truth ``attack_start`` is
        known it bounds the cut-off too, so attack windows the detector
        missed cannot inflate the "before the attack" figure.
        """
        cutoffs = [
            cycle
            for cycle in (self.first_detection_cycle, self.attack_start)
            if cycle is not None
        ]
        cutoff = min(cutoffs) if cutoffs else None
        return self._weighted_latency(
            [
                window
                for window in self.phase_windows("benign")
                if cutoff is None or window.cycle < cutoff
            ]
        )

    def attack_latency(self) -> float:
        """Benign latency while the attack ran unmitigated."""
        return self.phase_latency("attack")

    def post_mitigation_latency(self, skip: int = 1) -> float:
        """Benign latency once the countermeasure is engaged and settled.

        When the ground-truth ``attack_end`` is known, only mitigated
        windows *during* the attack count — windows where the guard is still
        engaged after the attacker stopped would otherwise pad the metric
        with naturally attack-free traffic.
        """
        return self._weighted_latency(self._settled_windows(skip))

    def _settled_windows(self, skip: int) -> list[WindowRecord]:
        """Mitigated windows past the first ``skip``, within the attack."""
        windows = self.phase_windows("mitigated")[skip:]
        if self.attack_end is not None:
            windows = [w for w in windows if w.cycle <= self.attack_end]
        return windows

    def recovery_ratio(self, baseline_latency: float, skip: int = 1) -> float:
        """Post-mitigation benign latency relative to a no-attack baseline."""
        post = self.post_mitigation_latency(skip=skip)
        if math.isnan(post) or baseline_latency <= 0.0:
            return math.nan
        return post / baseline_latency

    # -- drain-aware recovery --------------------------------------------------
    def post_mitigation_fresh_latency(self, skip: int = 1) -> float:
        """Benign latency of packets *created under the fence*.

        The plain post-mitigation figure mixes two populations: packets
        created during the unmitigated attack (whose latency is attack
        damage draining out of saturated queues) and packets created after
        containment (which measure the fenced network itself).  This metric
        keeps only the second population, so fence quality is separable
        from backlog drain — the colluding 8x8 episode's ~8x plain recovery
        ratio, for instance, is almost entirely drain.
        """
        return self._weighted_latency(self._settled_windows(skip), fresh=True)

    def fresh_recovery_ratio(self, baseline_latency: float, skip: int = 1) -> float:
        """Drain-corrected recovery: fenced-traffic latency over the baseline."""
        post = self.post_mitigation_fresh_latency(skip=skip)
        if math.isnan(post) or baseline_latency <= 0.0:
            return math.nan
        return post / baseline_latency

    @property
    def backlog_drained(self) -> int:
        """Total benign packets delivered out of the pre-containment backlog."""
        return sum(window.benign_backlog_delivered for window in self.windows)

    # -- rendering ------------------------------------------------------------
    def summary(self) -> dict:
        """Headline metrics as a plain dict (for tables and logs)."""
        return {
            "policy": self.policy.name,
            "windows": len(self.windows),
            "sample_period": self.sample_period,
            "first_detection_cycle": self.first_detection_cycle,
            "engagement_cycle": self.engagement_cycle,
            "release_cycle": self.release_cycle,
            "detection_latency": self.detection_latency,
            "time_to_mitigation": self.time_to_mitigation,
            "time_to_full_containment": self.time_to_full_containment,
            "localization_rounds": self.localization_rounds,
            "reengagements": self.reengagements,
            "pre_attack_latency": self.pre_attack_latency(),
            "attack_latency": self.attack_latency(),
            "post_mitigation_latency": self.post_mitigation_latency(),
            "post_mitigation_fresh_latency": self.post_mitigation_fresh_latency(),
            "backlog_drained": self.backlog_drained,
            "engaged_nodes": sorted(self.engaged_nodes),
            "collateral_nodes": sorted(self.collateral_nodes),
            "collateral_node_windows": self.collateral_node_windows,
        }

    def as_dict(self) -> dict:
        """Full deterministic serialization of the defended episode.

        Everything the report holds — configuration, per-window records,
        events and derived metrics — as plain JSON-able types.  NaN
        latencies become ``None`` so two reports from identically seeded
        runs compare equal with ``==`` (NaN never equals itself), which the
        reproducibility tests rely on.
        """

        def scrub(value):
            return None if isinstance(value, float) and math.isnan(value) else value

        def plain(record) -> dict:
            return {
                key: list(value) if isinstance(value, tuple) else scrub(value)
                for key, value in dataclasses.asdict(record).items()
            }

        return {
            "policy": plain(self.policy),
            "sample_period": self.sample_period,
            "attack_start": self.attack_start,
            "attack_end": self.attack_end,
            "true_attackers": list(self.true_attackers),
            "windows": [plain(window) for window in self.windows],
            "events": [plain(event) for event in self.events],
            "per_attacker_detection_latency": {
                str(node): value
                for node, value in self.per_attacker_detection_latency().items()
            },
            "per_attacker_time_to_mitigation": {
                str(node): value
                for node, value in self.per_attacker_time_to_mitigation().items()
            },
            "event_counts": dict(sorted(self.event_counts.items())),
            "summary": {key: scrub(value) for key, value in self.summary().items()},
        }

    # -- lossless (de)serialization -------------------------------------------
    def to_payload(self) -> dict:
        """Full-fidelity dict for the artifact cache (inverse: ``from_payload``).

        Unlike :meth:`as_dict` — a read-only view with derived metrics and
        NaN scrubbing — this payload round-trips the report exactly, so a
        cached mitigation episode reproduces every downstream metric bit
        for bit.
        """
        return {
            "policy": dataclasses.asdict(self.policy),
            "sample_period": self.sample_period,
            "attack_start": self.attack_start,
            "attack_end": self.attack_end,
            "true_attackers": list(self.true_attackers),
            "windows": [dataclasses.asdict(window) for window in self.windows],
            "events": [dataclasses.asdict(event) for event in self.events],
            "event_counts": dict(self.event_counts),
        }

    @classmethod
    def from_payload(cls, data: dict) -> "DefenseReport":
        """Rebuild a report stored with :meth:`to_payload`."""
        windows = [
            WindowRecord(
                **{
                    **window,
                    "victims": tuple(window["victims"]),
                    "attackers": tuple(window["attackers"]),
                    "restricted": tuple(window["restricted"]),
                    "suspected": tuple(window["suspected"]),
                    "unobservable": tuple(window["unobservable"]),
                }
            )
            for window in data["windows"]
        ]
        events = [
            DefenseEvent(**{**event, "nodes": tuple(event["nodes"])})
            for event in data["events"]
        ]
        return cls(
            policy=MitigationPolicy(**data["policy"]),
            sample_period=int(data["sample_period"]),
            attack_start=data["attack_start"],
            attack_end=data["attack_end"],
            true_attackers=tuple(int(node) for node in data["true_attackers"]),
            windows=windows,
            events=events,
            event_counts=dict(data["event_counts"]),
        )

    def format_timeline(self) -> str:
        """Human-readable per-window timeline followed by the event log."""
        header = (
            f"{'win':>3}  {'cycle':>7}  {'phase':<9}  {'det':>3}  {'prob':>5}  "
            f"{'benign lat':>10}  {'restricted':<18}  attackers"
        )
        lines = [header, "-" * len(header)]
        for window in self.windows:
            latency = (
                f"{window.benign_latency:10.1f}"
                if not math.isnan(window.benign_latency)
                else f"{'-':>10}"
            )
            lines.append(
                f"{window.index:>3}  {window.cycle:>7}  {window.phase:<9}  "
                f"{'yes' if window.detected else 'no':>3}  "
                f"{window.probability:5.2f}  {latency}  "
                f"{str(list(window.restricted)):<18}  {list(window.attackers)}"
            )
        if self.events:
            lines.append("")
            lines.append("events:")
            lines.extend(f"  {event.describe()}" for event in self.events)
        return "\n".join(lines)
