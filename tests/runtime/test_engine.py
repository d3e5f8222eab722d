"""ExperimentEngine: cached runs/models round-trip by value, never retrain."""

import numpy as np
import pytest

from repro.core.config import DL2FenceConfig
from repro.core.pipeline import DL2Fence
from repro.defense.policy import MitigationPolicy
from repro.experiments.config import ExperimentConfig
from repro.experiments.robustness import run_attack_episode, train_defense_pipeline
from repro.monitor.dataset import DatasetBuilder, DatasetConfig
from repro.noc.topology import Direction
from repro.runtime.cache import ArtifactCache
from repro.runtime.engine import ExperimentEngine
from repro.runtime.parallel import ParallelRunner
from repro.traffic.scenario import AttackScenario

QUICK_DATASET = DatasetConfig(
    rows=5, sample_period=64, samples_per_run=2, warmup_cycles=16, seed=11
)
BENCHMARKS = ["uniform_random"]


def make_engine(tmp_path=None, workers=1) -> ExperimentEngine:
    cache = (
        ArtifactCache.disabled()
        if tmp_path is None
        else ArtifactCache(root=tmp_path / "cache", enabled=True)
    )
    return ExperimentEngine(cache=cache, runner=ParallelRunner(workers=workers))


def assert_runs_equal(first, second):
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert a.benchmark == b.benchmark
        assert a.scenario == b.scenario
        assert a.topology.rows == b.topology.rows
        assert len(a.samples) == len(b.samples)
        for sa, sb in zip(a.samples, b.samples):
            assert sa.cycle == sb.cycle
            assert sa.attack_active == sb.attack_active
            for direction in Direction.cardinal():
                assert np.array_equal(
                    sa.vco.frames[direction].values, sb.vco.frames[direction].values
                )
                assert np.array_equal(
                    sa.boc.frames[direction].values, sb.boc.frames[direction].values
                )


class TestBuildRuns:
    def test_matches_dataset_builder_exactly(self):
        legacy = DatasetBuilder(QUICK_DATASET).build_runs(
            benchmarks=BENCHMARKS, scenarios_per_benchmark=2, seed=11
        )
        engine = make_engine()
        fresh = engine.build_runs(
            QUICK_DATASET, benchmarks=BENCHMARKS, scenarios_per_benchmark=2, seed=11
        )
        assert_runs_equal(legacy, fresh)

    def test_cache_round_trip_is_bit_identical(self, tmp_path):
        engine = make_engine(tmp_path)
        fresh = engine.build_runs(
            QUICK_DATASET, benchmarks=BENCHMARKS, scenarios_per_benchmark=2, seed=11
        )
        cached = engine.build_runs(
            QUICK_DATASET, benchmarks=BENCHMARKS, scenarios_per_benchmark=2, seed=11
        )
        # One per-task entry per run: the second call is all hits.
        assert engine.cache.stats.hits == len(fresh)
        assert_runs_equal(fresh, cached)

    def test_overlapping_run_lists_share_entries(self, tmp_path):
        """A subset benchmark list reuses the superset's per-task entries."""
        engine = make_engine(tmp_path)
        both = engine.build_runs(
            QUICK_DATASET,
            benchmarks=["uniform_random", "tornado"],
            scenarios_per_benchmark=1,
            seed=11,
        )
        stores_before = engine.cache.stats.stores
        subset = engine.build_runs(
            QUICK_DATASET,
            benchmarks=["uniform_random"],
            scenarios_per_benchmark=1,
            seed=11,
        )
        assert engine.cache.stats.stores == stores_before, "no re-simulation"
        assert_runs_equal(both[: len(subset)], subset)

    def test_parallel_workers_identical_to_serial(self):
        serial = make_engine(workers=1).build_runs(
            QUICK_DATASET, benchmarks=BENCHMARKS, scenarios_per_benchmark=2, seed=11
        )
        parallel = make_engine(workers=4).build_runs(
            QUICK_DATASET, benchmarks=BENCHMARKS, scenarios_per_benchmark=2, seed=11
        )
        assert_runs_equal(serial, parallel)

    def test_corrupted_entry_is_rebuilt(self, tmp_path):
        engine = make_engine(tmp_path)
        fresh = engine.build_runs(QUICK_DATASET, benchmarks=BENCHMARKS, seed=11)
        entries = sorted((tmp_path / "cache").rglob("runs.npz"))
        assert len(entries) == len(fresh)
        entries[0].write_bytes(entries[0].read_bytes()[: entries[0].stat().st_size // 2])
        rebuilt = engine.build_runs(QUICK_DATASET, benchmarks=BENCHMARKS, seed=11)
        assert engine.cache.stats.invalid == 1
        assert_runs_equal(fresh, rebuilt)


class TestTrainedFence:
    FENCE = DL2FenceConfig(seed=3)

    def _train(self, engine):
        return engine.trained_fence(
            QUICK_DATASET,
            self.FENCE,
            benchmarks=BENCHMARKS,
            scenarios_per_benchmark=2,
            seed=11,
            detector_epochs=8,
            localizer_epochs=8,
        )

    def test_cached_weights_bit_identical(self, tmp_path):
        engine = make_engine(tmp_path)
        fresh, _ = self._train(engine)
        cached, _ = self._train(engine)
        for model_name in ("detector", "localizer"):
            fresh_model = getattr(fresh, model_name).model
            cached_model = getattr(cached, model_name).model
            assert cached_model.dtype == fresh_model.dtype
            for la, lb in zip(fresh_model.layers, cached_model.layers):
                for name in la.params:
                    assert np.array_equal(la.params[name], lb.params[name])

    def test_second_call_never_retrains(self, tmp_path, monkeypatch):
        engine = make_engine(tmp_path)
        self._train(engine)

        def forbidden(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("cache hit must not retrain")

        monkeypatch.setattr(DL2Fence, "fit_from_runs", forbidden)
        cached, _ = self._train(engine)
        assert cached.detector.trained
        assert cached.localizer.trained


class TestCachedVersusFreshDefense:
    """Satellite requirement: a cache-loaded pipeline defends identically."""

    EXPERIMENT = ExperimentConfig.quick()

    def test_identical_defense_report(self, tmp_path):
        policy = MitigationPolicy.quarantine(engage_after=2, release_after=4)

        fresh_fence, fresh_builder = train_defense_pipeline(
            self.EXPERIMENT, engine=make_engine()
        )
        cached_engine = make_engine(tmp_path)
        train_defense_pipeline(self.EXPERIMENT, engine=cached_engine)  # populate
        cached_fence, cached_builder = train_defense_pipeline(
            self.EXPERIMENT, engine=cached_engine
        )
        assert cached_engine.cache.stats.hits >= 1

        def episode(fence, builder):
            topology = builder.topology
            attack = AttackScenario(
                attackers=(topology.node_id(topology.columns - 2, topology.rows - 2),),
                victim=topology.node_id(1, 1),
            )
            report = run_attack_episode(
                fence, builder, policy, (attack,), seed=123, attack_windows=6
            )
            return report.as_dict()

        assert episode(fresh_fence, fresh_builder) == episode(
            cached_fence, cached_builder
        )


class TestCachedRecords:
    def test_round_trip_and_single_build(self, tmp_path):
        engine = make_engine(tmp_path)
        calls = []

        def build():
            calls.append(1)
            return [{"a": 1, "b": [1.5, None]}]

        first = engine.cached_records("records", {"k": 1}, build)
        second = engine.cached_records("records", {"k": 1}, build)
        assert first == second == [{"a": 1, "b": [1.5, None]}]
        assert len(calls) == 1
