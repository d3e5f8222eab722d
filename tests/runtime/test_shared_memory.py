"""Shared-memory frame transport: bit-identical to pickling, less IPC."""

import numpy as np
import pytest

from repro.monitor.dataset import DatasetBuilder, DatasetConfig, RunTask
from repro.monitor.features import FeatureKind
from repro.noc.topology import Direction
from repro.runtime.cache import ArtifactCache
from repro.runtime.engine import (
    ExperimentEngine,
    _runs_from_bundle,
    _runs_to_bundle,
    _simulate_chunk,
)
from repro.runtime.parallel import (
    ArrayBundle,
    ParallelRunner,
    _ShmCall,
    _unpack_handle,
    shared_memory_enabled,
)

CONFIG = DatasetConfig(
    rows=4, sample_period=64, samples_per_run=3, warmup_cycles=16, seed=5
)


def _bundle_fn(seed: int) -> ArrayBundle:
    rng = np.random.default_rng(seed)
    return ArrayBundle(
        meta={"seed": seed},
        arrays={
            "a": rng.random((3, 4, 5)),
            "b": rng.integers(0, 100, size=(7,)),
        },
    )


def assert_runs_equal(run_a, run_b):
    assert run_a.benchmark == run_b.benchmark
    assert run_a.scenario == run_b.scenario
    assert run_a.topology == run_b.topology
    assert len(run_a.samples) == len(run_b.samples)
    for sample_a, sample_b in zip(run_a.samples, run_b.samples):
        assert sample_a.cycle == sample_b.cycle
        assert sample_a.attack_active == sample_b.attack_active
        for kind in FeatureKind:
            for direction in Direction.cardinal():
                assert np.array_equal(
                    sample_a.feature(kind).frames[direction].values,
                    sample_b.feature(kind).frames[direction].values,
                )


class TestSegmentRoundTrip:
    def test_enabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHM_FRAMES", raising=False)
        assert shared_memory_enabled()
        monkeypatch.setenv("REPRO_SHM_FRAMES", "0")
        assert not shared_memory_enabled()

    def test_pack_unpack_preserves_arrays(self):
        """The segment writer/reader pair round-trips values and dtypes."""
        handle = _ShmCall(_bundle_fn)(9)
        rebuilt = _unpack_handle(handle)
        reference = _bundle_fn(9)
        assert rebuilt.meta == reference.meta
        assert set(rebuilt.arrays) == set(reference.arrays)
        for name in reference.arrays:
            assert rebuilt.arrays[name].dtype == reference.arrays[name].dtype
            assert np.array_equal(rebuilt.arrays[name], reference.arrays[name])

    def test_empty_bundle_falls_back_to_pickle(self):
        handle = _ShmCall(lambda _: ArrayBundle(meta={"x": 1}, arrays={}))(0)
        rebuilt = _unpack_handle(handle)
        assert rebuilt.meta == {"x": 1}
        assert rebuilt.arrays == {}

    def test_map_arrays_parallel_matches_serial(self):
        serial = ParallelRunner(workers=1).map_arrays(_bundle_fn, [1, 2, 3])
        parallel = ParallelRunner(workers=2).map_arrays(_bundle_fn, [1, 2, 3])
        for bundle_a, bundle_b in zip(serial, parallel):
            assert bundle_a.meta == bundle_b.meta
            for name in bundle_a.arrays:
                assert np.array_equal(bundle_a.arrays[name], bundle_b.arrays[name])


class TestScenarioRunTransport:
    def _tasks(self):
        return [
            RunTask(CONFIG, "uniform_random", None, 11),
            RunTask(CONFIG, "tornado", None, 12),
            RunTask(CONFIG, "uniform_random", None, 13),
        ]

    def test_bundle_round_trip_is_lossless(self):
        builder = DatasetBuilder(CONFIG)
        runs = [
            run
            for chunk in builder.chunk(self._tasks())
            for run in builder.simulate(chunk)
        ]
        rebuilt = _runs_from_bundle(_runs_to_bundle(runs))
        assert len(rebuilt) == len(runs)
        for run, run_back in zip(runs, rebuilt):
            assert_runs_equal(run, run_back)

    def test_worker_bundles_match_in_process_runs(self):
        builder = DatasetBuilder(CONFIG)
        tasks = self._tasks()[:2]
        for task in tasks:
            (shipped,) = _runs_from_bundle(_simulate_chunk([task]))
            assert_runs_equal(builder.simulate([task])[0], shipped)
        # An episode-batched chunk ships every lane's frames in one bundle.
        for chunk in builder.chunk(tasks):
            for task, shipped in zip(chunk, _runs_from_bundle(_simulate_chunk(chunk))):
                assert_runs_equal(builder.simulate([task])[0], shipped)

    @pytest.mark.parametrize("shm", ["1", "0"])
    def test_parallel_build_runs_bit_identical(self, shm, monkeypatch):
        """Workers + shared memory return the exact serial frames."""
        monkeypatch.setenv("REPRO_SHM_FRAMES", shm)
        serial = ExperimentEngine(
            cache=ArtifactCache.disabled(), runner=ParallelRunner(workers=1)
        ).build_runs(CONFIG, benchmarks=["uniform_random"], seed=3)
        parallel = ExperimentEngine(
            cache=ArtifactCache.disabled(), runner=ParallelRunner(workers=2)
        ).build_runs(CONFIG, benchmarks=["uniform_random"], seed=3)
        assert len(serial) == len(parallel)
        for run_a, run_b in zip(serial, parallel):
            assert_runs_equal(run_a, run_b)
