"""Seed-for-seed reproducibility of defended episodes.

The simulator's vectorized injection paths (active-node source-queue scan,
batched attacker draws, batched frame extraction) must stay deterministic:
the same ``ScenarioGenerator``/episode seed has to reproduce the *entire*
defense timeline bit for bit.  ``DefenseReport.as_dict()`` serializes every
window, event and metric (NaN-scrubbed so ``==`` works), making the
comparison exhaustive rather than spot-checked.
"""

from __future__ import annotations

from repro.defense.policy import MitigationPolicy
from repro.experiments.mitigation import default_multi_scenario
from repro.experiments.robustness import run_attack_episode
from repro.traffic.scenario import ScenarioGenerator


class TestEpisodeDeterminism:
    def test_same_seed_identical_report(self, trained_pipeline, small_builder):
        """Two identically seeded multi-attack episodes agree exactly."""
        scenario = default_multi_scenario(small_builder, num_flows=2, fir=0.8)
        policy = MitigationPolicy.quarantine(engage_after=2, release_after=4)

        def episode():
            return run_attack_episode(
                trained_pipeline, small_builder, policy, scenario.flows, seed=123
            )

        first = episode().as_dict()
        second = episode().as_dict()
        assert first == second

    def test_different_seed_changes_timeline(self, trained_pipeline, small_builder):
        """The comparison has teeth: another seed produces another timeline."""
        scenario = default_multi_scenario(small_builder, num_flows=2, fir=0.8)
        policy = MitigationPolicy.quarantine(engage_after=2, release_after=4)

        def episode(seed):
            report = run_attack_episode(
                trained_pipeline, small_builder, policy, scenario.flows, seed=seed
            )
            return report.as_dict()

        assert episode(123)["windows"] != episode(124)["windows"]

    def test_generator_suite_reproducible(self, small_topology):
        """Same generator seed -> identical multi-attack scenario draw."""
        first = ScenarioGenerator(small_topology, seed=9).random_multi_scenario(
            num_flows=2
        )
        second = ScenarioGenerator(small_topology, seed=9).random_multi_scenario(
            num_flows=2
        )
        assert first == second
