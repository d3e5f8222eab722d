#!/usr/bin/env python3
"""Closed-loop runtime defense: detect, localize, throttle, recover.

This demo takes DL2Fence from detection to *action*.  On a live 8x8 mesh it:

1. trains the CNN detector and localizer exactly like the quickstart;
2. measures the no-attack benign latency baseline of the workload;
3. replays the same workload with a refined flooding attack (FIR 0.5)
   switching on mid-run, while a :class:`~repro.defense.DL2FenceGuard`
   streams every monitor window through the trained pipeline online and
   throttles the injection bandwidth of every node the Table-Like Method
   localizes as an attacker (with hysteresis and automatic rollback);
4. prints the full per-window defense timeline and checks that benign
   latency under mitigation recovers to within 25% of the baseline.

Run with:  python examples/closed_loop_defense_demo.py
"""

from __future__ import annotations

from repro import (
    AttackScenario,
    DL2Fence,
    DL2FenceConfig,
    DL2FenceGuard,
    DatasetBuilder,
    DatasetConfig,
    MitigationPolicy,
    MonitorConfig,
    NoCSimulator,
    SimulationConfig,
)

ROWS = 8
PERIOD = 256
WARMUP = 64
PRE_ATTACK_WINDOWS = 4
ATTACK_WINDOWS = 10
POST_ATTACK_WINDOWS = 4
FIR = 0.5


def train_pipeline() -> tuple[DL2Fence, DatasetBuilder]:
    """Train detector + localizer on benign and attacked runs (as quickstart)."""
    config = DatasetConfig(rows=ROWS, sample_period=200, samples_per_run=6, seed=7)
    builder = DatasetBuilder(config)
    print("Simulating training runs (uniform_random + tornado)...")
    runs = builder.build_runs(
        benchmarks=["uniform_random", "tornado"], scenarios_per_benchmark=2
    )
    fence = DL2Fence(builder.topology, DL2FenceConfig.paper_default())
    print("Training the CNN detector (VCO) and localizer (BOC)...")
    summaries = fence.fit_from_runs(builder, runs)
    print(f"  detector : train accuracy {summaries['detector'].final_accuracy:.3f}")
    print(f"  localizer: train dice     {summaries['localizer'].final_dice:.3f}\n")
    return fence, builder


def make_live_simulator(builder: DatasetBuilder, attack_source=None) -> NoCSimulator:
    """The live system under defense: benign workload, optionally attacked."""
    simulator = NoCSimulator(SimulationConfig(rows=ROWS, warmup_cycles=WARMUP, seed=3))
    simulator.add_source(builder.make_workload("uniform_random", seed=42))
    if attack_source is not None:
        simulator.add_source(attack_source)
    return simulator


def main() -> None:
    print(f"== Closed-loop DL2Fence defense on a {ROWS}x{ROWS} mesh ==\n")
    fence, builder = train_pipeline()
    topology = builder.topology

    total_windows = PRE_ATTACK_WINDOWS + ATTACK_WINDOWS + POST_ATTACK_WINDOWS
    total_cycles = WARMUP + total_windows * PERIOD + 1
    attack_start = WARMUP + PRE_ATTACK_WINDOWS * PERIOD
    attack_end = WARMUP + (PRE_ATTACK_WINDOWS + ATTACK_WINDOWS) * PERIOD

    # -- no-attack baseline ---------------------------------------------------
    baseline_sim = make_live_simulator(builder)
    baseline_sim.run(total_cycles)
    baseline = baseline_sim.latency(benign_only=True).packet_latency
    print(f"No-attack baseline benign packet latency: {baseline:.1f} cycles\n")

    # -- defended run ---------------------------------------------------------
    attacker_node = topology.node_id(6, 6)
    victim_node = topology.node_id(1, 1)
    attack = AttackScenario(attackers=(attacker_node,), victim=victim_node, fir=FIR)
    policy = MitigationPolicy.throttle(
        0.1, engage_after=2, release_after=6, flush_queue=True
    )
    print(
        f"Attack: node {attacker_node} floods node {victim_node} at FIR {FIR} "
        f"from cycle {attack_start} to {attack_end}"
    )
    print(f"Policy: {policy.name} (engage after {policy.engage_after} detections, "
          f"release after {policy.release_after} clean windows)\n")

    simulator = make_live_simulator(
        builder,
        attack.build_source(
            topology, seed=43, start_cycle=attack_start, end_cycle=attack_end
        ),
    )
    guard = DL2FenceGuard(
        fence,
        policy,
        attack_start=attack_start,
        attack_end=attack_end,
        true_attackers=(attacker_node,),
    )
    guard.attach(simulator, monitor_config=MonitorConfig(sample_period=PERIOD))
    simulator.run(total_cycles)

    # -- report ---------------------------------------------------------------
    report = guard.report
    print(report.format_timeline())
    print()
    print(f"detection latency   : {report.detection_latency} cycles")
    print(f"time to mitigation  : {report.time_to_mitigation} cycles")
    print(f"pre-attack latency  : {report.pre_attack_latency():.1f} cycles")
    print(f"attack latency      : {report.attack_latency():.1f} cycles")
    print(f"mitigated latency   : {report.post_mitigation_latency():.1f} cycles")
    print(f"engaged nodes       : {sorted(report.engaged_nodes)}")
    print(f"collateral nodes    : {sorted(report.collateral_nodes)} "
          f"({report.collateral_node_windows} node-windows)")

    recovery = report.recovery_ratio(baseline)
    print(f"\nrecovery: mitigated latency is {recovery:.2f}x the no-attack baseline")
    assert attacker_node in report.engaged_nodes, (
        "the guard failed to throttle the true attacker"
    )
    assert recovery <= 1.25, (
        f"post-mitigation latency did not recover to within 25% of baseline "
        f"({recovery:.2f}x)"
    )
    print("closed loop OK: true attacker throttled, benign latency recovered "
          "to within 25% of baseline")


if __name__ == "__main__":
    main()
