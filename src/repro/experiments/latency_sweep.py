"""Figure 1 (right): system latency versus Flooding Injection Rate.

The paper overlays the FDoS attack on benign workload traffic and sweeps the
FIR from 0 (attack disabled) to 1 (system crash), reporting packet latency,
flit latency and their queueing components of the *benign* traffic.  Latency
should grow slowly at low FIR, explode as the NoC approaches saturation, and
the delivery ratio should collapse at FIR close to 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.experiments.config import ExperimentConfig
from repro.monitor.dataset import DatasetBuilder
from repro.noc.simulator import NoCSimulator
from repro.noc.topology import MeshTopology
from repro.runtime.engine import ExperimentEngine
from repro.traffic.scenario import AttackScenario, ScenarioGenerator

__all__ = ["LatencyPoint", "run_latency_sweep"]


@dataclass
class LatencyPoint:
    """Benign-traffic latency metrics at one FIR operating point."""

    fir: float
    packet_latency: float
    packet_queue_latency: float
    flit_latency: float
    flit_queue_latency: float
    delivery_ratio: float
    delivered_packets: int

    def as_dict(self) -> dict:
        return {
            "fir": self.fir,
            "packet_latency": self.packet_latency,
            "packet_queue_latency": self.packet_queue_latency,
            "flit_latency": self.flit_latency,
            "flit_queue_latency": self.flit_queue_latency,
            "delivery_ratio": self.delivery_ratio,
            "delivered_packets": self.delivered_packets,
        }


@dataclass(frozen=True)
class _LatencyTask:
    """One FIR operating point of the sweep (independent simulation)."""

    config: ExperimentConfig
    benchmark: str
    attack: AttackScenario
    cycles: int


def _latency_point(task: _LatencyTask) -> LatencyPoint:
    """Simulate one sweep point (module-level for the parallel runner).

    At FIR 0 the attack source never draws or emits, so that point is the
    attack-free baseline of the same workload.
    """
    config = task.config
    builder = DatasetBuilder(config.dataset_config())
    simulation_config = replace(
        config.dataset_config().simulation_config(), source_queue_capacity=200_000
    )
    simulator = NoCSimulator(simulation_config)
    builder.add_sources(simulator, task.benchmark, config.seed, (task.attack,))
    simulator.run(task.cycles)
    simulator.drain(max_cycles=12 * task.cycles)
    latency = simulator.latency(benign_only=True)
    return LatencyPoint(
        fir=task.attack.fir,
        packet_latency=latency.packet_latency,
        packet_queue_latency=latency.packet_queue_latency,
        flit_latency=latency.flit_latency,
        flit_queue_latency=latency.flit_queue_latency,
        delivery_ratio=simulator.stats.delivery_ratio,
        delivered_packets=latency.delivered_packets,
    )


def run_latency_sweep(
    firs: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    benchmark: str = "blackscholes",
    config: ExperimentConfig | None = None,
    cycles: int | None = None,
    num_attackers: int = 1,
    engine: ExperimentEngine | None = None,
) -> list[LatencyPoint]:
    """Sweep the FIR and measure benign-traffic latency at each point.

    The benign workload, attacker placement and measurement window are held
    constant across the sweep; only the FIR changes, mirroring the
    latency-vs-FIR curve of Figure 1.  Every operating point is an
    independent simulation, so the sweep fans out across the engine's worker
    processes and the finished curve is cached as a record artifact.

    Source queues are made effectively unbounded for this experiment: in the
    paper's threat model the benign application is never paused, only slowed
    down, so benign packets sharing an attacker's network interface must wait
    behind the flood rather than being dropped — that queueing is exactly the
    "packet queue latency" curve of Figure 1.
    """
    config = config or ExperimentConfig()
    engine = engine or ExperimentEngine()
    if cycles is None:
        cycles = config.warmup_cycles + config.sample_period * config.samples_per_run
    topology = MeshTopology(rows=config.rows)
    generator = ScenarioGenerator(topology, seed=config.seed)
    scenario = generator.random_scenario(
        num_attackers=num_attackers, fir=1.0, benchmark=benchmark
    )

    payload = {
        "experiment": config,
        "benchmark": benchmark,
        "firs": tuple(firs),
        "cycles": cycles,
        "scenario": scenario,
    }

    def build() -> list[dict]:
        tasks = [
            _LatencyTask(config, benchmark, replace(scenario, fir=fir), cycles)
            for fir in firs
        ]
        return [point.as_dict() for point in engine.runner.map(_latency_point, tasks)]

    records = engine.cached_records("latency-sweep", payload, build)
    return [LatencyPoint(**record) for record in records]
