#!/usr/bin/env python3
"""Multi-attack closed-loop defense at the paper's 16x16 scale.

Two attackers flood two disjoint victims at FIR 0.5 on a live 16x16 mesh —
the concurrent distributed-DoS shape the paper handles through iterative
sampling rounds (Figure 3's multi-attacker rules).  The demo:

1. trains the CNN detector and localizer at 16x16 scale on benign and
   attacked runs of uniform_random and x264 traffic;
2. measures the no-attack benign latency baseline of the PARSEC workload
   (x264) — light phased traffic over which the flood signature is most
   prominent, exactly the property the paper relies on;
3. replays the workload with both floods switching on mid-run while a
   :class:`~repro.defense.DL2FenceGuard` streams every monitor window
   through the trained pipeline online — after the loudest attacker is
   fenced the guard keeps re-running the Table-Like Method, so quieter
   attackers surface in later localization rounds;
4. prints the defense timeline with per-attacker detection latencies and
   the time-to-full-containment, and checks that *both* attackers end up
   fenced with benign latency back near the baseline.

Run with:  python examples/multi_attack_defense_demo.py
"""

from __future__ import annotations

from repro import MitigationPolicy
from repro.experiments import (
    ExperimentConfig,
    baseline_benign_latency,
    default_multi_scenario,
    run_attack_episode,
    train_defense_pipeline,
)

ROWS = 16
PERIOD = 256
ATTACK_WINDOWS = 10
FIR = 0.5
BENCHMARK = "x264"


def main() -> None:
    print(f"== Multi-attack closed-loop DL2Fence defense on a {ROWS}x{ROWS} mesh ==\n")
    config = ExperimentConfig(
        rows=ROWS,
        sample_period=PERIOD,
        samples_per_run=6,
        detector_epochs=40,
        localizer_epochs=50,
        seed=7,
    )
    print(f"Training the CNN detector + localizer (uniform_random + {BENCHMARK})...")
    fence, builder = train_defense_pipeline(
        config, benchmarks=("uniform_random", BENCHMARK)
    )

    scenario = default_multi_scenario(builder, num_flows=2, fir=FIR)
    print(f"Attack: {scenario.describe()} over {BENCHMARK}")

    policy = MitigationPolicy.quarantine(
        engage_after=2, release_after=6, flush_queue=True
    )
    print(f"Policy: {policy.name} (engage after {policy.engage_after} detections, "
          f"re-engage backoff x{policy.reengage_backoff:g})\n")

    baseline = baseline_benign_latency(
        builder, BENCHMARK, attack_windows=ATTACK_WINDOWS
    )
    print(f"No-attack baseline benign packet latency: {baseline:.1f} cycles\n")
    # Each flow of the multi-attack scenario is one attack model of the episode.
    report = run_attack_episode(
        fence,
        builder,
        policy,
        scenario.flows,
        benchmark=BENCHMARK,
        attack_windows=ATTACK_WINDOWS,
    )

    # -- report ---------------------------------------------------------------
    print(report.format_timeline())
    print()
    print(f"detection latency        : {report.detection_latency} cycles")
    print(f"per-attacker detection   : {report.per_attacker_detection_latency()}")
    print(f"per-attacker mitigation  : {report.per_attacker_time_to_mitigation()}")
    print(f"time to full containment : {report.time_to_full_containment} cycles")
    print(f"localization rounds      : {report.localization_rounds}")
    print(f"engaged nodes            : {sorted(report.engaged_nodes)}")
    print(f"collateral nodes         : {sorted(report.collateral_nodes)} "
          f"({report.collateral_node_windows} node-windows)")

    recovery = report.recovery_ratio(baseline)
    print(f"\nrecovery: mitigated latency is {recovery:.2f}x the no-attack baseline")
    truth = set(scenario.attackers)
    fenced = truth & report.engaged_nodes
    assert fenced == truth, (
        f"the guard fenced only {sorted(fenced)} of {sorted(truth)}"
    )
    assert report.time_to_full_containment is not None
    assert recovery <= 1.25, (
        f"post-mitigation latency did not recover to within 25% of baseline "
        f"({recovery:.2f}x)"
    )
    print("closed loop OK: both attackers fenced, benign latency recovered "
          "to within 25% of baseline")


if __name__ == "__main__":
    main()
