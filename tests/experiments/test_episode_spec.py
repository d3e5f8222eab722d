"""The one episode harness: spec cache keys and parallel determinism.

Every closed-loop driver (Fig-6 sweep, robustness matrix, chaos matrix) is
a generator of :class:`EpisodeSpec` run by :func:`run_episodes`.  These
tests pin the spec's cache key — it must change with every field that
shapes the simulated episode, including the resolved evidence and
degraded-mode configs, and specs of different drivers may share an entry
only when they describe the same episode — and that fanning the episodes
out across worker processes changes no result.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import replace

import pytest

from repro.attacks import default_attack
from repro.defense.degraded import DegradedModeConfig
from repro.defense.evidence import EvidenceConfig
from repro.experiments import robustness
from repro.experiments.config import ExperimentConfig
from repro.experiments.mitigation import DEFAULT_POLICIES, run_mitigation_sweep
from repro.experiments.robustness import (
    DEFAULT_ROBUSTNESS_POLICY,
    EpisodeSpec,
    _task_cache_payload,
    run_chaos_matrix,
    run_robustness_matrix,
)
from repro.faults import default_fault_suite
from repro.runtime.cache import ArtifactCache
from repro.runtime.engine import ExperimentEngine
from repro.runtime.hashing import cache_key
from repro.runtime.parallel import ParallelRunner
from repro.traffic.scenario import AttackScenario

QUICK = ExperimentConfig.quick()
TOPOLOGY = QUICK.dataset_config().topology()
PULSED = default_attack("pulsed", TOPOLOGY, QUICK.sample_period)
FLOOD = AttackScenario(attackers=(PULSED.attackers[0],), victim=PULSED.victim)
FAULTS = default_fault_suite(TOPOLOGY)


def key(spec: EpisodeSpec) -> str:
    return cache_key(*_task_cache_payload(spec))


def fig6_spec(**overrides) -> EpisodeSpec:
    """A guarded Fig-6 episode: constant flood, default evidence config."""
    values = dict(experiment=QUICK, attacks=(FLOOD,), policy=DEFAULT_POLICIES[0])
    values.update(overrides)
    return EpisodeSpec(**values)


class TestSpecKey:
    def test_key_changes_with_every_field(self):
        spec = fig6_spec(faults=FAULTS["none"])
        variants = {
            "experiment": QUICK.scaled(seed=QUICK.seed + 1),
            "training_benchmarks": ("uniform_random",),
            "benchmark": "tornado",
            "attacks": (PULSED,),
            "faults": FAULTS["dropout_silent"],
            "policy": DEFAULT_ROBUSTNESS_POLICY,
            "evidence": False,
            "attack_windows": spec.attack_windows + 1,
        }
        fields = {field.name for field in dataclasses.fields(EpisodeSpec)}
        assert set(variants) == fields
        for name, value in variants.items():
            assert key(replace(spec, **{name: value})) != key(spec), name

    def test_evidence_true_resolves_to_the_default_config(self):
        assert fig6_spec().evidence == EvidenceConfig()
        assert key(fig6_spec()) == key(fig6_spec(evidence=EvidenceConfig()))

    @pytest.mark.parametrize(
        "field", [field.name for field in dataclasses.fields(EvidenceConfig)]
    )
    def test_fig6_key_covers_evidence_config(self, field):
        default = EvidenceConfig()
        changed = replace(default, **{field: getattr(default, field) + 0.01})
        assert key(fig6_spec(evidence=changed)) != key(fig6_spec())

    @pytest.mark.parametrize(
        "field", [field.name for field in dataclasses.fields(DegradedModeConfig)]
    )
    def test_fig6_key_covers_degraded_mode_config(self, monkeypatch, field):
        before = key(fig6_spec())
        changed = DegradedModeConfig()
        # bypass validation: only the hashed value matters here
        object.__setattr__(changed, field, getattr(changed, field) + 1)
        monkeypatch.setattr(robustness, "DegradedModeConfig", lambda: changed)
        assert key(fig6_spec()) != before

    def test_comparators_ignore_the_guard(self):
        """An unmitigated run is the same episode whatever fence would defend it."""
        comparator = EpisodeSpec(QUICK, attacks=(FLOOD,))
        other_fence = replace(
            comparator, experiment=QUICK.scaled(detector_epochs=1), evidence=False
        )
        assert key(other_fence) == key(comparator)
        assert key(comparator) != key(replace(comparator, attacks=(PULSED,)))
        assert key(comparator) != key(replace(comparator, attacks=()))

    def test_faults_need_a_guarded_episode(self):
        with pytest.raises(ValueError):
            EpisodeSpec(QUICK, attacks=(FLOOD,), faults=FAULTS["none"])


class _Captured(Exception):
    pass


def driver_specs(monkeypatch, driver, **kwargs) -> list[EpisodeSpec]:
    """The specs one driver call generates (nothing is simulated)."""
    captured: list[EpisodeSpec] = []

    def capture(specs, engine=None):
        captured.extend(specs)
        raise _Captured

    monkeypatch.setattr(robustness, "run_episodes", capture)
    with pytest.raises(_Captured):
        driver(engine=ExperimentEngine.disabled(), **kwargs)
    return captured


class TestSpecsAcrossDrivers:
    def test_shared_keys_are_shared_episodes(self, monkeypatch):
        common = dict(rows_values=(QUICK.rows,), config=QUICK, attack_windows=6)
        fig6 = driver_specs(
            monkeypatch, run_mitigation_sweep, firs=(0.8,), **common
        )
        matrix = driver_specs(
            monkeypatch, run_robustness_matrix, attacks=("pulsed",), **common
        )
        chaos = driver_specs(
            monkeypatch,
            run_chaos_matrix,
            attacks=("pulsed",),
            fault_scenarios=("none",),
            **common,
        )
        # fig6: baseline, comparator, one episode per default policy
        assert len(fig6) == 2 + len(DEFAULT_POLICIES)
        assert len(matrix) == 3 and len(chaos) == 2
        # The no-attack baseline is one episode, whichever driver asks.
        assert key(fig6[0]) == key(matrix[0]) == key(chaos[0])
        # Everything else differs in what is simulated, and so in its key.
        keys = [key(spec) for spec in fig6[1:] + matrix[1:] + chaos[1:]]
        assert len(set(keys)) == len(keys)
        assert matrix[2].attacks == chaos[1].attacks
        assert matrix[2].faults is None and chaos[1].faults == FAULTS["none"]


class TestParallelEpisodes:
    def test_chaos_matrix_workers2_equals_workers1(self, tmp_path):
        # Each engine starts from its own empty cache, so both runs train
        # and simulate every episode.
        def engine(workers, name):
            return ExperimentEngine(
                cache=ArtifactCache(root=tmp_path / name, enabled=True),
                runner=ParallelRunner(workers=workers),
            )

        kwargs = dict(
            attacks=("pulsed", "colluding"),
            rows_values=(QUICK.rows,),
            fault_scenarios=("none", "dropout_silent"),
            config=QUICK,
            attack_windows=6,
        )
        serial_engine = engine(1, "serial")
        parallel_engine = engine(2, "parallel")
        serial = run_chaos_matrix(engine=serial_engine, **kwargs)
        parallel = run_chaos_matrix(engine=parallel_engine, **kwargs)
        assert parallel_engine.cache.stats.hits == 0
        assert len(serial) == 4
        assert json.dumps([p.to_payload() for p in serial], sort_keys=True) == (
            json.dumps([p.to_payload() for p in parallel], sort_keys=True)
        )
