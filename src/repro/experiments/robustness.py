"""The closed-loop episode harness, plus the robustness and chaos matrices.

Every closed-loop experiment — the Fig-6 mitigation sweep
(:mod:`repro.experiments.mitigation`), the robustness matrix and the chaos
matrix — is a list of :class:`EpisodeSpec` run by :func:`run_episodes`,
plus a formatter that turns the results into table rows.  A spec is one
simulation: a guarded episode (``policy`` set), its unmitigated comparator
(``policy=None``), or the no-attack baseline (no attacks, no policy).  Its
``attacks`` are a tuple of :class:`~repro.attacks.AttackModel` flows — a
refined variant, a constant :class:`~repro.traffic.AttackScenario` flood,
or the flows of a :class:`~repro.traffic.MultiAttackScenario` — and source
``i`` is seeded ``seed + 1 + i``.  :func:`run_episodes` trains each fence
once through the engine's artifact cache, memoises every episode
individually and fans the cache misses out across worker processes.

The robustness matrix measures the defense against every variant of
:mod:`repro.attacks` — pulsed, ramping, migrating, distributed colluding
and on-route — over a range of mesh sizes.  For each (attack type, mesh)
operating point it reports:

* **detection latency** — cycles from attack start until the guard first
  acts (detector fire *or* cross-window evidence conviction);
* **containment** — cycles until every node of the attack's
  ``containment_nodes`` set is simultaneously fenced (for a migrating
  attacker that means every hop position);
* **collateral** — innocent nodes fenced, and innocent-node × window
  exposure.

The chaos matrix adds a fault axis (:func:`repro.faults.default_fault_suite`).
Both run at the adaptive operating point of each mesh scale
(:meth:`repro.experiments.config.ExperimentConfig.for_mesh`).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, replace

from repro.attacks import ATTACK_LIBRARY, AttackModel, default_attack
from repro.core.config import DL2FenceConfig
from repro.core.pipeline import DL2Fence
from repro.defense.degraded import DegradedModeConfig
from repro.defense.evidence import EvidenceConfig
from repro.defense.guard import DL2FenceGuard
from repro.defense.policy import MitigationPolicy
from repro.defense.report import DefenseReport
from repro.experiments.config import ExperimentConfig
from repro.faults import default_fault_suite
from repro.faults.base import FaultScenario
from repro.monitor.dataset import DatasetBuilder
from repro.monitor.sampler import GlobalPerformanceMonitor, MonitorConfig
from repro.nn.dtype import default_dtype
from repro.noc.simulator import NoCSimulator
from repro.noc.stats import LatencyStats
from repro.runtime.engine import ExperimentEngine, fence_cache_payload

__all__ = [
    "DEFAULT_ATTACK_WINDOWS",
    "DEFAULT_ROBUSTNESS_POLICY",
    "ChaosPoint",
    "EpisodeShape",
    "EpisodeSpec",
    "RobustnessPoint",
    "baseline_benign_latency",
    "run_attack_episode",
    "run_chaos_matrix",
    "run_episodes",
    "run_robustness_matrix",
    "run_table",
    "train_defense_pipeline",
    "unmitigated_attack_episode_latency",
]

#: Policy of the robustness matrix: full isolation with a longer engage
#: streak and stale rollback than the constant-flood sweeps.  Refined
#: attacks saturate the victim's neighbourhood in shapes the segmentation
#: never trained on, and the resulting congestion spillover produces
#: *phantom* candidates that survive a two-window streak; three consecutive
#: windows filters them (genuine attackers bridge streak gaps through
#: evidence convictions, so the longer streak costs them one window, not
#: detectability).  The longer stale rollback matters because refined
#: attackers go quiet on purpose — releasing a fenced node after three
#: silent detection windows hands a duty-cycled attacker its bursts back.
DEFAULT_ROBUSTNESS_POLICY = MitigationPolicy.quarantine(
    engage_after=3, release_after=6, stale_after=6, flush_queue=True
)

#: Attack-window horizon: refined attacks unfold over many windows (a ramp
#: climbs for five, a migration cycle spans twelve, and a distributed
#: collusion is typically only fully pinned down on the guard's *second*
#: localization pass, after the release probe re-exposes the stragglers),
#: so robustness episodes run much longer than the constant-flood sweeps.
DEFAULT_ATTACK_WINDOWS = 24

DEFAULT_TRAINING_BENCHMARKS = ("uniform_random", "tornado")


@dataclass
class RobustnessPoint:
    """Outcome of one defended episode against one refined-DoS variant."""

    attack: str
    rows: int
    policy: str
    detected: bool
    detection_latency: int | None
    time_to_mitigation: int | None
    time_to_full_containment: int | None
    num_attackers: int
    attackers_fenced: int
    contained: bool
    collateral_nodes: tuple[int, ...]
    collateral_node_windows: int
    localization_rounds: int
    reengagements: int
    evidence_convictions: int
    baseline_latency: float
    attack_latency: float
    unmitigated_latency: float
    mitigated_latency: float
    recovery_ratio: float
    benchmark: str = "uniform_random"
    description: str = ""

    def as_dict(self) -> dict:
        """Table-friendly row (see :func:`repro.experiments.tables.format_rows`)."""
        return {
            "attack": self.attack,
            "rows": self.rows,
            "policy": self.policy,
            "detected": self.detected,
            "detection_latency": self.detection_latency,
            "containment": self.time_to_full_containment,
            "attackers": self.num_attackers,
            "fenced": self.attackers_fenced,
            "contained": self.contained,
            "collateral": len(self.collateral_nodes),
            "collateral_node_windows": self.collateral_node_windows,
            "rounds": self.localization_rounds,
            "reengage": self.reengagements,
            "convictions": self.evidence_convictions,
            "attack_latency": self.attack_latency,
            "unmitigated_latency": self.unmitigated_latency,
            "mitigated_latency": self.mitigated_latency,
            "recovery_ratio": self.recovery_ratio,
        }

    # -- lossless round-trip (artifact cache) -------------------------------
    def to_payload(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_payload(cls, data: dict) -> "RobustnessPoint":
        data = dict(data)
        data["collateral_nodes"] = tuple(int(n) for n in data["collateral_nodes"])
        return cls(**data)


@dataclass
class ChaosPoint:
    """Outcome of one defended episode under one monitor-fault scenario.

    The chaos matrix adds a fault axis to the robustness matrix and asks a
    sharper question than "was the attack contained": it also demands that
    *no fault-only node was ever punished* — a silent or stuck monitor is a
    hardware problem, and fencing its node would convert a telemetry fault
    into a self-inflicted denial of service.
    """

    attack: str
    rows: int
    scenario: str
    policy: str
    #: Nodes the fault scenario touches (never legitimate fence targets).
    fault_nodes: tuple[int, ...]
    detected: bool
    detection_latency: int | None
    time_to_mitigation: int | None
    time_to_full_containment: int | None
    num_attackers: int
    attackers_fenced: int
    contained: bool
    collateral_nodes: tuple[int, ...]
    collateral_node_windows: int
    #: Engagement / conviction events naming a fault-only node (must be 0).
    fault_node_engagements: int
    fault_node_convictions: int
    #: Windows the guard actually received (drops shrink it, delays do not).
    windows_delivered: int
    localization_rounds: int
    reengagements: int
    baseline_latency: float
    attack_latency: float
    mitigated_latency: float
    fresh_mitigated_latency: float
    recovery_ratio: float
    fresh_recovery_ratio: float
    sample_period: int
    benchmark: str = "uniform_random"
    description: str = ""

    def as_dict(self) -> dict:
        """Table-friendly row (see :func:`repro.experiments.tables.format_rows`)."""
        return {
            "attack": self.attack,
            "rows": self.rows,
            "scenario": self.scenario,
            "detected": self.detected,
            "detection_latency": self.detection_latency,
            "containment": self.time_to_full_containment,
            "attackers": self.num_attackers,
            "fenced": self.attackers_fenced,
            "contained": self.contained,
            "collateral": len(self.collateral_nodes),
            "fault_nodes": len(self.fault_nodes),
            "fault_engaged": self.fault_node_engagements,
            "fault_convicted": self.fault_node_convictions,
            "windows": self.windows_delivered,
            "reengage": self.reengagements,
            "recovery_ratio": self.recovery_ratio,
            "fresh_recovery": self.fresh_recovery_ratio,
        }

    # -- lossless round-trip (artifact cache) -------------------------------
    def to_payload(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_payload(cls, data: dict) -> "ChaosPoint":
        data = dict(data)
        data["collateral_nodes"] = tuple(int(n) for n in data["collateral_nodes"])
        data["fault_nodes"] = tuple(int(n) for n in data["fault_nodes"])
        return cls(**data)


def train_defense_pipeline(
    config: ExperimentConfig,
    benchmarks: tuple[str, ...] = DEFAULT_TRAINING_BENCHMARKS,
    engine: ExperimentEngine | None = None,
) -> tuple[DL2Fence, DatasetBuilder]:
    """Train a DL2Fence pipeline at this experiment scale (once per mesh).

    Routed through the experiment engine: the scenario runs and the trained
    models are cached on disk, so a second sweep at the same mesh scale never
    retrains.
    """
    engine = engine or ExperimentEngine.from_environment()
    return engine.trained_fence(
        config.dataset_config(),
        DL2FenceConfig(seed=config.seed),
        benchmarks=list(benchmarks),
        scenarios_per_benchmark=config.scenarios_per_benchmark,
        seed=config.seed,
        detector_epochs=config.detector_epochs,
        localizer_epochs=config.localizer_epochs,
    )


def _fence_key(
    experiment: ExperimentConfig, training_benchmarks: tuple[str, ...]
) -> dict:
    """The training configuration that identifies an episode's fence.

    Built by the same :func:`repro.runtime.engine.fence_cache_payload`
    helper :meth:`ExperimentEngine.trained_fence` keys its cache entry
    with (same arguments as :func:`train_defense_pipeline` passes), so
    episode entries are shared exactly when the defending pipeline is.
    """
    return fence_cache_payload(
        experiment.dataset_config(),
        DL2FenceConfig(seed=experiment.seed),
        list(training_benchmarks),
        experiment.scenarios_per_benchmark,
        (1, 2),
        experiment.seed,
        experiment.detector_epochs,
        experiment.localizer_epochs,
    )


@dataclass(frozen=True)
class EpisodeShape:
    """Cycle arithmetic shared by every run of the same attack episode."""

    total_cycles: int
    attack_start: int
    attack_end: int

    @classmethod
    def from_windows(
        cls, builder: DatasetBuilder, pre: int, attack: int, post: int
    ) -> "EpisodeShape":
        period = builder.config.sample_period
        warmup = builder.config.warmup_cycles
        return cls(
            total_cycles=warmup + (pre + attack + post) * period + 1,
            attack_start=warmup + pre * period,
            attack_end=warmup + (pre + attack) * period,
        )


def _attacked_simulator(
    builder: DatasetBuilder,
    benchmark: str,
    attacks: tuple[AttackModel, ...],
    shape: EpisodeShape,
    seed: int,
) -> NoCSimulator:
    """The episode's system: the workload plus one source per attack flow."""
    config = builder.config
    simulator = NoCSimulator(config.simulation_config())
    simulator.add_source(builder.make_workload(benchmark, seed=seed))
    for index, model in enumerate(attacks):
        simulator.add_source(
            model.build_source(
                builder.topology,
                seed=seed + 1 + index,
                packet_size_flits=config.packet_size_flits,
                start_cycle=shape.attack_start,
                end_cycle=shape.attack_end,
            )
        )
    return simulator


def baseline_benign_latency(
    builder: DatasetBuilder,
    benchmark: str = "uniform_random",
    pre_attack_windows: int = 4,
    attack_windows: int = DEFAULT_ATTACK_WINDOWS,
    post_attack_windows: int = 4,
    seed: int = 42,
) -> float:
    """No-attack benign latency over the episode's measurement horizon.

    The latency the defended system is trying to get back to; independent
    of attack and policy, so a driver needs it once per mesh/benchmark.
    """
    shape = EpisodeShape.from_windows(
        builder, pre_attack_windows, attack_windows, post_attack_windows
    )
    simulator = _attacked_simulator(builder, benchmark, (), shape, seed)
    simulator.run(shape.total_cycles)
    return simulator.latency(benign_only=True).packet_latency


def run_attack_episode(
    fence: DL2Fence,
    builder: DatasetBuilder,
    policy: MitigationPolicy,
    attacks: tuple[AttackModel, ...],
    benchmark: str = "uniform_random",
    pre_attack_windows: int = 4,
    attack_windows: int = DEFAULT_ATTACK_WINDOWS,
    post_attack_windows: int = 4,
    seed: int = 42,
    evidence: EvidenceConfig | bool = True,
    faults: FaultScenario | None = None,
) -> DefenseReport:
    """One guarded episode of the ``attacks`` flows over a benign workload.

    ``true_attackers`` of the report is the union of the flows'
    ``containment_nodes``, so ``time_to_full_containment`` demands every
    position of a migrating attacker (and every colluding source, and every
    flow of a multi-flow flood) fenced at once.

    ``faults`` installs a fault scenario on the episode.  Monitor-plane
    faults sit between the sampler and the guard: the simulated hardware is
    untouched, but the guard sees the scenario's degraded window stream
    (dropped/delayed windows, silent or stuck monitors, corrupted cells).
    Data-plane faults break the mesh itself — links or routers die at
    their scheduled cycle and traffic detours around them.  The fault plane
    is seeded with the episode ``seed``, so a faulted episode is exactly as
    reproducible as a clean one.
    """
    shape = EpisodeShape.from_windows(
        builder, pre_attack_windows, attack_windows, post_attack_windows
    )
    simulator = _attacked_simulator(builder, benchmark, attacks, shape, seed)
    guard = DL2FenceGuard(
        fence,
        policy,
        attack_start=shape.attack_start,
        attack_end=shape.attack_end,
        true_attackers=tuple(
            sorted({node for model in attacks for node in model.containment_nodes})
        ),
        evidence=evidence,
    )
    monitor_config = MonitorConfig(sample_period=builder.config.sample_period)
    if faults is None:
        guard.attach(simulator, monitor_config=monitor_config)
    else:
        faults.schedule_data_faults(simulator)
        monitor = GlobalPerformanceMonitor(monitor_config).attach(simulator)
        monitor.set_fault_plane(faults.build_plane(builder.topology, seed=seed))
        guard.attach(simulator, monitor=monitor)
    simulator.run(shape.total_cycles)
    return guard.report


def unmitigated_attack_episode_latency(
    builder: DatasetBuilder,
    attacks: tuple[AttackModel, ...],
    benchmark: str = "uniform_random",
    pre_attack_windows: int = 4,
    attack_windows: int = DEFAULT_ATTACK_WINDOWS,
    post_attack_windows: int = 4,
    seed: int = 42,
) -> float:
    """Benign latency of the same episode with no defense (the comparator).

    Measured over benign packets delivered while the attack runs, skipping
    the first window so the congestion has built up.
    """
    shape = EpisodeShape.from_windows(
        builder, pre_attack_windows, attack_windows, post_attack_windows
    )
    simulator = _attacked_simulator(builder, benchmark, attacks, shape, seed)
    simulator.run(shape.total_cycles)
    period = builder.config.sample_period
    span = [
        packet
        for packet in simulator.stats.delivered
        if not packet.is_malicious
        and shape.attack_start + period <= packet.ejected_cycle <= shape.attack_end
    ]
    if not span:
        return float("nan")
    return LatencyStats.from_packets(span).packet_latency


@dataclass(frozen=True)
class EpisodeSpec:
    """One closed-loop simulation, as a cache-hashable description.

    ``policy=None`` makes the spec the unmitigated comparator of its
    attacks; no attacks and no policy make it the no-attack baseline.
    ``experiment`` and ``training_benchmarks`` identify the fence that
    defends a guarded episode.  ``evidence=True`` resolves to the default
    :class:`EvidenceConfig`, so the knob values enter the cache key.
    """

    experiment: ExperimentConfig
    training_benchmarks: tuple[str, ...] = DEFAULT_TRAINING_BENCHMARKS
    benchmark: str = "uniform_random"
    attacks: tuple[AttackModel, ...] = ()
    faults: FaultScenario | None = None
    policy: MitigationPolicy | None = None
    evidence: EvidenceConfig | bool = True
    attack_windows: int = DEFAULT_ATTACK_WINDOWS

    def __post_init__(self) -> None:
        if self.evidence is True:
            object.__setattr__(self, "evidence", EvidenceConfig())
        if self.faults is not None and self.policy is None:
            raise ValueError("a fault scenario needs a guarded episode (a policy)")


def _task_cache_payload(spec: EpisodeSpec) -> tuple[str, dict]:
    """(cache kind, payload) of one episode's cache entry.

    A comparator or baseline depends only on the simulated system; a
    guarded episode also on everything that shapes the guard's decisions.
    The fence object cannot enter a key; its training configuration
    stands in for it.
    """
    payload = {
        "config": spec.experiment.dataset_config(),
        "benchmark": spec.benchmark,
        "attacks": spec.attacks,
        "attack_windows": spec.attack_windows,
    }
    if spec.policy is None:
        return "comparator", payload
    payload.update(
        faults=spec.faults,
        policy=spec.policy,
        evidence=spec.evidence,
        degraded=DegradedModeConfig(),
        fence=_fence_key(spec.experiment, spec.training_benchmarks),
        dtype=default_dtype(),
    )
    return "episode", payload


def _fetch_task_result(engine: ExperimentEngine, kind: str, payload: dict):
    """Load one cached episode result (None on miss)."""

    def load(directory):
        if kind == "comparator":
            return float(json.loads((directory / "value.json").read_text())["value"])
        return DefenseReport.from_payload(
            json.loads((directory / "report.json").read_text())
        )

    return engine.cache.fetch(kind, payload, load)


def _store_task_result(engine: ExperimentEngine, kind: str, payload: dict, result):
    """Persist one episode result into the per-episode cache."""

    def save(directory) -> None:
        if kind == "comparator":
            (directory / "value.json").write_text(json.dumps({"value": float(result)}))
        else:
            (directory / "report.json").write_text(json.dumps(result.to_payload()))

    engine.cache.store(kind, payload, save)


def _run_episode(job: tuple[EpisodeSpec, DL2Fence | None]):
    """Simulate one spec (module-level for worker processes)."""
    spec, fence = job
    builder = DatasetBuilder(spec.experiment.dataset_config())
    if spec.policy is not None:
        return run_attack_episode(
            fence,
            builder,
            spec.policy,
            spec.attacks,
            benchmark=spec.benchmark,
            attack_windows=spec.attack_windows,
            evidence=spec.evidence,
            faults=spec.faults,
        )
    if spec.attacks:
        return unmitigated_attack_episode_latency(
            builder,
            spec.attacks,
            benchmark=spec.benchmark,
            attack_windows=spec.attack_windows,
        )
    return baseline_benign_latency(
        builder, spec.benchmark, attack_windows=spec.attack_windows
    )


def run_episodes(
    specs: list[EpisodeSpec], engine: ExperimentEngine | None = None
) -> list[DefenseReport | float]:
    """Results of ``specs`` in order: a report per guarded episode, else a latency.

    Every spec is memoised individually, so extending a sweep by one FIR,
    attack or mesh only simulates what is new.  Each fence is trained (or
    loaded) once, and only when one of its episodes misses the cache; the
    misses fan out across the engine's worker processes, bit-identical to
    the serial order because every episode carries its own seeds.
    """
    engine = engine or ExperimentEngine.from_environment()
    keys = [_task_cache_payload(spec) for spec in specs]
    results = [_fetch_task_result(engine, kind, payload) for kind, payload in keys]
    missing = [index for index, result in enumerate(results) if result is None]
    fences: dict = {}
    jobs = []
    for index in missing:
        spec = specs[index]
        fence = None
        if spec.policy is not None:
            identity = (spec.experiment, spec.training_benchmarks)
            if identity not in fences:
                fences[identity], _ = train_defense_pipeline(
                    spec.experiment, spec.training_benchmarks, engine=engine
                )
            fence = fences[identity]
        jobs.append((spec, fence))
    for index, result in zip(missing, engine.runner.map(_run_episode, jobs)):
        results[index] = result
        _store_task_result(engine, *keys[index], result)
    return results


def run_table(
    kind: str,
    specs: list[EpisodeSpec],
    format_points,
    engine: ExperimentEngine,
    extra=None,
) -> list[dict]:
    """Table records of ``format_points(results)`` over ``specs``, memoised whole.

    The memo key is every episode's own key (plus ``extra``, for formatter
    inputs the specs do not carry), so the table is invalidated exactly
    when one of its episodes would be.
    """
    return engine.cached_records(
        kind,
        {"episodes": [_task_cache_payload(spec) for spec in specs], "extra": extra},
        lambda: [
            point.to_payload() for point in format_points(run_episodes(specs, engine))
        ],
    )


def outcome_fields(spec: EpisodeSpec, report: DefenseReport, baseline: float) -> dict:
    """The point fields every guarded-episode table shares."""
    truth = set(report.true_attackers)
    return dict(
        rows=spec.experiment.rows,
        policy=spec.policy.name,
        benchmark=spec.benchmark,
        detected=report.detection_latency is not None,
        detection_latency=report.detection_latency,
        time_to_mitigation=report.time_to_mitigation,
        time_to_full_containment=report.time_to_full_containment,
        num_attackers=len(truth),
        attackers_fenced=len(truth & report.engaged_nodes),
        collateral_nodes=tuple(sorted(report.collateral_nodes)),
        collateral_node_windows=report.collateral_node_windows,
        localization_rounds=report.localization_rounds,
        reengagements=report.reengagements,
        baseline_latency=baseline,
        attack_latency=report.attack_latency(),
        mitigated_latency=report.post_mitigation_latency(),
        recovery_ratio=report.recovery_ratio(baseline),
    )


def _contained(report: DefenseReport) -> bool:
    return report.time_to_full_containment is not None and not report.collateral_nodes


def _library_suites(
    attacks: tuple[str, ...] | None,
    rows_values: tuple[int, ...],
    config: ExperimentConfig | None,
    fir: float,
    colluding_fir: float,
) -> list[tuple[ExperimentConfig, tuple[AttackModel, ...]]]:
    """Per mesh: the experiment scale and the canonical attack placements.

    The concrete attack models (not just their names) enter the episode
    keys: the canonical per-mesh placements evolve with the library, and a
    cached matrix must never outlive the scenarios it measured.
    """
    names = tuple(attacks) if attacks is not None else tuple(ATTACK_LIBRARY)
    suites = []
    for rows in rows_values:
        experiment = (
            config.scaled(rows=rows)
            if config is not None
            else ExperimentConfig.for_mesh(rows)
        )
        topology = experiment.dataset_config().topology()
        models = tuple(
            default_attack(
                name,
                topology,
                experiment.sample_period,
                fir=fir,
                colluding_fir=colluding_fir,
            )
            for name in names
        )
        suites.append((experiment, models))
    return suites


def run_robustness_matrix(
    attacks: tuple[str, ...] | None = None,
    rows_values: tuple[int, ...] = (8,),
    policy: MitigationPolicy = DEFAULT_ROBUSTNESS_POLICY,
    config: ExperimentConfig | None = None,
    benchmark: str = "uniform_random",
    fir: float = 0.8,
    colluding_fir: float = 0.2,
    attack_windows: int = DEFAULT_ATTACK_WINDOWS,
    training_benchmarks: tuple[str, ...] = DEFAULT_TRAINING_BENCHMARKS,
    evidence: EvidenceConfig | bool = True,
    engine: ExperimentEngine | None = None,
) -> list[RobustnessPoint]:
    """Detection-latency / containment / collateral matrix over attack × mesh.

    The pipeline of each mesh scale is trained once at that scale's adaptive
    operating point (:meth:`ExperimentConfig.for_mesh`, unless ``config``
    pins a different base) on the standard constant-flood curriculum — the
    refined variants are *never* trained on, so every row measures
    generalization of the deployed detector plus the evidence accumulator,
    not memorisation of the attack shape.
    """
    engine = engine or ExperimentEngine.from_environment()
    training_benchmarks = tuple(training_benchmarks)
    specs = []
    suites = _library_suites(attacks, rows_values, config, fir, colluding_fir)
    for experiment, models in suites:
        baseline = EpisodeSpec(
            experiment, training_benchmarks, benchmark, attack_windows=attack_windows
        )
        specs.append(baseline)
        for model in models:
            specs.append(replace(baseline, attacks=(model,)))
            specs.append(
                replace(baseline, attacks=(model,), policy=policy, evidence=evidence)
            )

    def format_points(results) -> list[RobustnessPoint]:
        points = []
        for spec, result in zip(specs, results):
            if not spec.attacks:
                baseline_latency = result
            elif spec.policy is None:
                unmitigated = result
            else:
                model = spec.attacks[0]
                points.append(
                    RobustnessPoint(
                        attack=model.name,
                        contained=_contained(result),
                        evidence_convictions=sum(
                            1 for event in result.events if event.kind == "convicted"
                        ),
                        unmitigated_latency=unmitigated,
                        description=model.describe(),
                        **outcome_fields(spec, result, baseline_latency),
                    )
                )
        return points

    records = run_table("robustness-matrix", specs, format_points, engine)
    return [RobustnessPoint.from_payload(record) for record in records]


def run_chaos_matrix(
    attacks: tuple[str, ...] | None = None,
    rows_values: tuple[int, ...] = (8, 16),
    fault_scenarios: tuple[str, ...] | None = None,
    policy: MitigationPolicy = DEFAULT_ROBUSTNESS_POLICY,
    config: ExperimentConfig | None = None,
    benchmark: str = "uniform_random",
    fir: float = 0.8,
    colluding_fir: float = 0.2,
    attack_windows: int = DEFAULT_ATTACK_WINDOWS,
    training_benchmarks: tuple[str, ...] = DEFAULT_TRAINING_BENCHMARKS,
    evidence: EvidenceConfig | bool = True,
    engine: ExperimentEngine | None = None,
) -> list[ChaosPoint]:
    """Fault-augmented robustness matrix: attack × mesh × monitor-fault.

    Every cell replays a defended refined-DoS episode with one scenario of
    :func:`repro.faults.default_fault_suite` installed between the sampler
    and the guard (the always-included ``"none"`` scenario is the fault-free
    comparator).  The per-mesh pipeline training and its cache entry are
    shared with :func:`run_robustness_matrix` — only the episodes are new.
    """
    engine = engine or ExperimentEngine.from_environment()
    training_benchmarks = tuple(training_benchmarks)
    specs = []
    suites = _library_suites(attacks, rows_values, config, fir, colluding_fir)
    for experiment, models in suites:
        dataset = experiment.dataset_config()
        # Fault scenarios are topology-dependent (the silent/stuck node
        # picks depend on the mesh), so each mesh scale gets its own suite.
        # The canonical link kill lands three sampling windows into the
        # attack: mid-episode, after detection has had a fault-free shot,
        # with most of the attack still ahead on the degraded mesh.
        fault_suite = default_fault_suite(
            dataset.topology(),
            link_kill_cycle=dataset.warmup_cycles + 7 * experiment.sample_period,
        )
        names = tuple(fault_suite if fault_scenarios is None else fault_scenarios)
        for name in names:
            if name not in fault_suite:
                raise KeyError(f"unknown fault scenario {name!r}")
        baseline = EpisodeSpec(
            experiment, training_benchmarks, benchmark, attack_windows=attack_windows
        )
        specs.append(baseline)
        specs.extend(
            replace(
                baseline,
                attacks=(model,),
                faults=fault_suite[name],
                policy=policy,
                evidence=evidence,
            )
            for model in models
            for name in names
        )

    def format_points(results) -> list[ChaosPoint]:
        points = []
        for spec, result in zip(specs, results):
            if spec.policy is None:
                baseline_latency = result
                continue
            model, scenario = spec.attacks[0], spec.faults
            topology = spec.experiment.dataset_config().topology()
            fault_nodes = tuple(sorted(scenario.affected_nodes(topology)))
            # Count punishments of *fault-only* nodes: a node that is both
            # faulty and a true attacker is a legitimate fence target.
            fault_only = set(fault_nodes) - set(result.true_attackers)

            def fault_hits(kind: str) -> int:
                return sum(
                    sum(1 for node in event.nodes if node in fault_only)
                    for event in result.events
                    if event.kind == kind
                )

            points.append(
                ChaosPoint(
                    attack=model.name,
                    scenario=scenario.name,
                    fault_nodes=fault_nodes,
                    contained=_contained(result),
                    fault_node_engagements=fault_hits("engaged"),
                    fault_node_convictions=fault_hits("convicted"),
                    windows_delivered=len(result.windows),
                    fresh_mitigated_latency=result.post_mitigation_fresh_latency(),
                    fresh_recovery_ratio=result.fresh_recovery_ratio(baseline_latency),
                    sample_period=spec.experiment.sample_period,
                    description=f"{model.describe()} | faults: {scenario.describe()}",
                    **outcome_fields(spec, result, baseline_latency),
                )
            )
        return points

    records = run_table("chaos-matrix", specs, format_points, engine)
    return [ChaosPoint.from_payload(record) for record in records]
