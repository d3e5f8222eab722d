"""Workload and threat-model substrate.

Contains the traffic generators used in the paper's evaluation:

* the six synthetic traffic patterns (STP) — uniform random, tornado,
  shuffle, neighbor, bit rotation and bit complement;
* PARSEC-like phased workload models (blackscholes, bodytrack, x264) that
  stand in for the Gem5 full-system runs;
* the Flooding-DoS model with a finely adjustable Flooding Injection Rate
  (FIR), Section 2.3 of the paper: :class:`AttackScenario`, a constant-rate
  flood expressed as an :class:`~repro.attacks.AttackModel`, and
  :class:`MultiAttackScenario`, concurrent floods on disjoint victims;
* attack-scenario generation used for dataset generation.
"""

from repro.traffic.synthetic import (
    SYNTHETIC_PATTERNS,
    BitComplementTraffic,
    BitRotationTraffic,
    NeighborTraffic,
    ShuffleTraffic,
    SyntheticTraffic,
    TornadoTraffic,
    UniformRandomTraffic,
    make_synthetic_traffic,
)
from repro.traffic.parsec import (
    PARSEC_WORKLOADS,
    ParsecPhase,
    ParsecWorkload,
    make_parsec_workload,
)
from repro.traffic.scenario import (
    AttackScenario,
    MultiAttackScenario,
    ScenarioGenerator,
    benchmark_names,
)

__all__ = [
    "SYNTHETIC_PATTERNS",
    "PARSEC_WORKLOADS",
    "AttackScenario",
    "MultiAttackScenario",
    "BitComplementTraffic",
    "BitRotationTraffic",
    "NeighborTraffic",
    "ParsecPhase",
    "ParsecWorkload",
    "ScenarioGenerator",
    "ShuffleTraffic",
    "SyntheticTraffic",
    "TornadoTraffic",
    "UniformRandomTraffic",
    "benchmark_names",
    "make_parsec_workload",
    "make_synthetic_traffic",
]
