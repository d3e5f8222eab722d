"""Closed-loop mitigation experiment: FIR x mesh size x policy sweep (Fig. 6).

This driver measures what the paper's fence enables but never evaluates:
with the online :class:`~repro.defense.DL2FenceGuard` attached to a live
simulation, how fast is a flooding attack detected and mitigated, and how
completely does benign-traffic latency recover?  For every (FIR, mesh,
policy) operating point it reports detection latency, time-to-mitigation,
benign latency in the three phases of the defended run, the recovery ratio
against a no-attack baseline, and collateral damage.

The sweep is a generator of :class:`~repro.experiments.robustness.EpisodeSpec`
run by :func:`~repro.experiments.robustness.run_episodes`, plus a formatter.
Episodes flood with one constant :class:`AttackScenario` or with the flows
of a :class:`MultiAttackScenario` on disjoint victims; the multi-attack
sweep additionally reports per-attacker detection latency and the time
until *all* attackers are contained, across the guard's iterative
localization rounds.  The sweep runs at the paper's 16x16 scale and over
PARSEC workloads (see :mod:`benchmarks.bench_fig6_mitigation_recovery`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace

from repro.attacks import AttackModel
from repro.defense.policy import MitigationPolicy
from repro.experiments.config import ExperimentConfig
from repro.experiments.robustness import (
    DEFAULT_TRAINING_BENCHMARKS,
    EpisodeShape,
    EpisodeSpec,
    outcome_fields,
    run_table,
    train_defense_pipeline,
)
from repro.monitor.dataset import DatasetBuilder
from repro.noc.topology import MeshTopology
from repro.runtime.engine import ExperimentEngine
from repro.traffic.scenario import AttackScenario, MultiAttackScenario

__all__ = [
    "ASYMMETRIC_FLOW_FIRS",
    "DEFAULT_POLICIES",
    "EpisodeShape",
    "MitigationPoint",
    "default_multi_scenario",
    "run_mitigation_sweep",
    "scaled_flow_firs",
    "train_defense_pipeline",
]

#: Policies compared by default: gentle rate limiting versus full isolation.
DEFAULT_POLICIES = (
    MitigationPolicy.throttle(0.1, engage_after=2, release_after=6, flush_queue=True),
    MitigationPolicy.quarantine(engage_after=2, release_after=6, flush_queue=True),
)

#: Default loud + quiet relative FIR profile for asymmetric multi-attack
#: sweeps: at a swept FIR of 0.8 the two flows flood at 0.8 and 0.2.  The
#: profile is normalised so its maximum maps onto the swept FIR value.
ASYMMETRIC_FLOW_FIRS = (0.8, 0.2)


@dataclass
class MitigationPoint:
    """Outcome of one defended episode at one operating point."""

    fir: float
    rows: int
    policy: str
    detected: bool
    detection_latency: int | None
    time_to_mitigation: int | None
    baseline_latency: float
    attack_latency: float
    unmitigated_latency: float
    mitigated_latency: float
    recovery_ratio: float
    engaged_nodes: tuple[int, ...]
    collateral_nodes: tuple[int, ...]
    collateral_node_windows: int
    benchmark: str = "uniform_random"
    num_attackers: int = 1
    attackers_fenced: int = 0
    time_to_full_containment: int | None = None
    localization_rounds: int = 0
    reengagements: int = 0
    per_attacker_detection_latency: dict = field(default_factory=dict)
    flow_firs: tuple[float, ...] = ()

    def as_dict(self) -> dict:
        return {
            "fir": self.fir,
            "flow_firs": "/".join(f"{fir:g}" for fir in self.flow_firs) or None,
            "rows": self.rows,
            "benchmark": self.benchmark,
            "policy": self.policy,
            "attackers": self.num_attackers,
            "detected": self.detected,
            "detection_latency": self.detection_latency,
            "time_to_mitigation": self.time_to_mitigation,
            "containment": self.time_to_full_containment,
            "fenced": self.attackers_fenced,
            "rounds": self.localization_rounds,
            "reengage": self.reengagements,
            "baseline_latency": self.baseline_latency,
            "attack_latency": self.attack_latency,
            "unmitigated_latency": self.unmitigated_latency,
            "mitigated_latency": self.mitigated_latency,
            "recovery_ratio": self.recovery_ratio,
            "engaged": len(self.engaged_nodes),
            "collateral": len(self.collateral_nodes),
            "collateral_node_windows": self.collateral_node_windows,
        }

    # -- lossless round-trip (artifact cache) -------------------------------
    def to_payload(self) -> dict:
        """Full-fidelity dict (unlike :meth:`as_dict`, which is a table view)."""
        payload = dataclasses.asdict(self)
        payload["per_attacker_detection_latency"] = {
            str(node): value
            for node, value in self.per_attacker_detection_latency.items()
        }
        return payload

    @classmethod
    def from_payload(cls, data: dict) -> "MitigationPoint":
        """Inverse of :meth:`to_payload` (restores tuples and int keys)."""
        data = dict(data)
        for name in ("engaged_nodes", "collateral_nodes"):
            data[name] = tuple(int(node) for node in data[name])
        data["flow_firs"] = tuple(float(fir) for fir in data.get("flow_firs", ()))
        data["per_attacker_detection_latency"] = {
            int(node): value
            for node, value in data["per_attacker_detection_latency"].items()
        }
        return cls(**data)


def default_multi_scenario(
    builder: DatasetBuilder, num_flows: int = 2, fir: float = 0.8
) -> MultiAttackScenario:
    """Deterministic concurrent floods on disjoint victims in disjoint rows.

    Flow ``i`` floods along its own mesh row (rows spread evenly across the
    mesh), alternating east- and west-bound so both E and W abnormal-frame
    rules of the Table-Like Method are exercised.  Row-disjoint routes keep
    every flow's congestion signature independent — the cleanest instance of
    the "concurrent attackers on disjoint victims" threat model.
    """
    topology = builder.topology
    rows, cols = topology.rows, topology.columns
    if num_flows < 1:
        raise ValueError("num_flows must be >= 1")
    if rows < 4 or cols < 4:
        # On a 3-wide mesh the end-of-row attacker and victim coincide.
        raise ValueError("default multi-attack flows need at least a 4x4 mesh")
    if num_flows > rows - 2:
        raise ValueError(f"at most {rows - 2} row-disjoint flows fit on this mesh")
    flows = []
    for index in range(num_flows):
        y = 1 + round(index * (rows - 3) / max(1, num_flows - 1)) if num_flows > 1 else rows - 2
        if index % 2 == 0:
            attacker = topology.node_id(cols - 2, y)
            victim = topology.node_id(1, y)
        else:
            attacker = topology.node_id(1, y)
            victim = topology.node_id(cols - 2, y)
        flows.append(AttackScenario(attackers=(attacker,), victim=victim, fir=fir))
    return MultiAttackScenario(flows=tuple(flows))


def scaled_flow_firs(profile: tuple[float, ...], fir: float) -> tuple[float, ...]:
    """Per-flow FIRs: ``profile`` rescaled so its maximum equals ``fir``."""
    loudest = max(profile)
    if loudest <= 0.0:
        raise ValueError("flow FIR profile needs at least one positive entry")
    # Ratio first: the loudest flow lands *exactly* on the swept FIR value.
    return tuple(min(1.0, fir * (value / loudest)) for value in profile)


def _sweep_attacks(
    topology: MeshTopology,
    fir: float,
    multi: MultiAttackScenario | None,
    profile: tuple[float, ...] | None,
) -> tuple[AttackModel, ...]:
    """The attack flows of one swept FIR.

    Without a multi-attack scenario: one long diagonal flow, far-corner
    attacker, victim near the origin.  With one, every flow floods at
    ``fir``, or — given a profile — at the profile rescaled so its loudest
    flow floods at ``fir`` and the others keep their relative quietness.
    """
    if multi is None:
        return (
            AttackScenario(
                attackers=(topology.node_id(topology.columns - 2, topology.rows - 2),),
                victim=topology.node_id(1, 1),
                fir=fir,
            ),
        )
    if profile:
        return multi.with_firs(scaled_flow_firs(profile, fir)).flows
    return multi.with_fir(fir).flows


def run_mitigation_sweep(
    firs: tuple[float, ...] = (0.4, 0.8),
    rows_values: tuple[int, ...] = (8,),
    policies: tuple[MitigationPolicy, ...] = DEFAULT_POLICIES,
    config: ExperimentConfig | None = None,
    benchmark: str = "uniform_random",
    num_flows: int = 1,
    attack_windows: int = 10,
    training_benchmarks: tuple[str, ...] = DEFAULT_TRAINING_BENCHMARKS,
    flow_fir_profile: tuple[float, ...] | None = None,
    engine: ExperimentEngine | None = None,
) -> list[MitigationPoint]:
    """Sweep FIR x mesh size x mitigation policy with one trained pipeline per mesh.

    ``num_flows >= 2`` switches every episode to the deterministic
    row-disjoint :func:`default_multi_scenario` of concurrent floods, and
    ``benchmark`` accepts PARSEC workloads as well as synthetic patterns, so
    the sweep covers the paper's 16x16 + PARSEC evaluation scale.
    ``flow_fir_profile`` (e.g. :data:`ASYMMETRIC_FLOW_FIRS`) makes the
    concurrent flows asymmetric: the profile is rescaled so the loudest flow
    floods at the swept FIR while the others stay proportionally quieter.

    Per mesh the sweep runs the no-attack baseline, then per FIR the
    unmitigated comparator and one guarded episode per policy.
    """
    base_config = config or ExperimentConfig()
    engine = engine or ExperimentEngine.from_environment()
    training_benchmarks = tuple(training_benchmarks)
    profile = tuple(flow_fir_profile) if flow_fir_profile and num_flows > 1 else None
    specs = []
    for rows in rows_values:
        experiment = base_config.scaled(rows=rows)
        builder = DatasetBuilder(experiment.dataset_config())
        multi = None
        if num_flows > 1:
            multi = default_multi_scenario(builder, num_flows=num_flows)
        baseline = EpisodeSpec(
            experiment, training_benchmarks, benchmark, attack_windows=attack_windows
        )
        specs.append(baseline)
        for fir in firs:
            attacks = _sweep_attacks(builder.topology, fir, multi, profile)
            specs.append(replace(baseline, attacks=attacks))
            specs.extend(
                replace(baseline, attacks=attacks, policy=policy) for policy in policies
            )

    def format_points(results) -> list[MitigationPoint]:
        points = []
        for spec, result in zip(specs, results):
            if not spec.attacks:
                baseline_latency = result
            elif spec.policy is None:
                unmitigated = result
            else:
                flow_firs = tuple(flow.fir for flow in spec.attacks)
                points.append(
                    MitigationPoint(
                        # the loudest flow floods exactly at the swept FIR
                        fir=max(flow_firs),
                        unmitigated_latency=unmitigated,
                        engaged_nodes=tuple(sorted(result.engaged_nodes)),
                        per_attacker_detection_latency=(
                            result.per_attacker_detection_latency()
                        ),
                        flow_firs=flow_firs if profile else (),
                        **outcome_fields(spec, result, baseline_latency),
                    )
                )
        return points

    records = run_table("mitigation-sweep", specs, format_points, engine, extra=profile)
    return [MitigationPoint.from_payload(record) for record in records]
