"""Tests for the closed-loop mitigation experiment driver (quick scale)."""

import math

from repro.defense.policy import MitigationPolicy
from repro.defense.report import PHASES
from repro.experiments import ExperimentConfig, format_rows
from repro.experiments.mitigation import run_mitigation_sweep
from repro.experiments.robustness import (
    baseline_benign_latency,
    run_attack_episode,
    unmitigated_attack_episode_latency,
)
from repro.traffic.scenario import AttackScenario

QUICK = ExperimentConfig.quick()
WINDOWS = dict(pre_attack_windows=2, attack_windows=4, post_attack_windows=2)


def diagonal_flood(builder, fir=0.8):
    topology = builder.topology
    return AttackScenario(
        attackers=(topology.node_id(topology.columns - 2, topology.rows - 2),),
        victim=topology.node_id(1, 1),
        fir=fir,
    )


class TestDefendedEpisode:
    def test_report_and_baseline(self, trained_pipeline, small_builder):
        report = run_attack_episode(
            trained_pipeline,
            small_builder,
            MitigationPolicy.throttle(0.1),
            (diagonal_flood(small_builder),),
            **WINDOWS,
        )
        baseline = baseline_benign_latency(small_builder, **WINDOWS)
        assert baseline > 0.0
        assert len(report.windows) == 8
        assert all(window.phase in PHASES for window in report.windows)
        assert report.attack_start == (
            small_builder.config.warmup_cycles
            + 2 * small_builder.config.sample_period
        )
        # windows strictly before the attack can never be under mitigation
        for window in report.windows:
            if window.cycle < report.attack_start:
                assert window.phase in ("benign", "attack")
                assert window.restricted == ()

    def test_unmitigated_comparator(self, small_builder):
        latency = unmitigated_attack_episode_latency(
            small_builder, (diagonal_flood(small_builder),), **WINDOWS
        )
        assert not math.isnan(latency)
        assert latency > 0.0


class TestMitigationSweep:
    def test_sweep_structure(self):
        points = run_mitigation_sweep(
            firs=(0.8,),
            rows_values=(QUICK.rows,),
            policies=(MitigationPolicy.quarantine(engage_after=1),),
            config=QUICK,
        )
        assert len(points) == 1
        point = points[0]
        assert point.fir == 0.8
        assert point.rows == QUICK.rows
        assert point.policy == "quarantine"
        assert point.baseline_latency > 0.0
        assert point.unmitigated_latency > 0.0
        row = point.as_dict()
        assert {"fir", "policy", "recovery_ratio", "collateral"} <= set(row)
        assert "recovery_ratio" in format_rows([row])
