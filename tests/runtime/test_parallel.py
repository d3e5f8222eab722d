"""ParallelRunner: ordering, serial/parallel equivalence."""

import os
import time

import numpy as np
import pytest

from repro.faults import WorkerChaosFault
from repro.obs.metrics import METRICS, runner_events_counter, runner_task_histogram
from repro.runtime.engine import ArrayBundle
from repro.runtime.parallel import ParallelRunner, _GuardedCall, configured_workers


def _draw(task):
    """Module-level task: a seeded random draw (picklable for worker pools)."""
    index, seed = task
    rng = np.random.default_rng(seed)
    return index, float(rng.random())


def _boom(task):
    raise RuntimeError(f"task {task} failed")


def _pid(task):
    return os.getpid()


def _late_first(task):
    """Earlier tasks sleep longer, so workers finish them last."""
    index, count = task
    time.sleep(0.02 * (count - index))
    return index


def _arrays(task):
    rng = np.random.default_rng(task)
    return {
        "f64": rng.random((3, 4)),
        "f32": rng.random(5).astype(np.float32),
        "i16": rng.integers(-9, 9, size=(2, 2, 2)).astype(np.int16),
        "flags": rng.random(6) > 0.5,
        "empty": np.zeros((0, 3)),
    }


def _empty_bundle(task):
    return ArrayBundle(meta={"task": task}, arrays={})


class _RecordingFault:
    """In-process fault hook that logs its calls and crashes on request."""

    def __init__(self, crash_after=()):
        self.calls = []
        self.crash_after = set(crash_after)

    def before_task(self, index, attempt):
        self.calls.append(("before", index, attempt))

    def after_task(self, index, attempt):
        self.calls.append(("after", index, attempt))
        return index in self.crash_after


class TestConfiguredWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert configured_workers() == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert configured_workers() == 4
        assert ParallelRunner().workers == 4

    def test_env_floor_is_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert configured_workers() == 1

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError):
            configured_workers()


class TestRunnerSettings:
    def test_explicit_workers_floor_is_one(self):
        for workers in (0, -3):
            runner = ParallelRunner(workers=workers)
            assert runner.workers == 1
            assert runner.is_serial

    def test_explicit_workers_override_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        runner = ParallelRunner(workers=2)
        assert runner.workers == 2
        assert not runner.is_serial

    def test_non_positive_timeout_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "5")
        for timeout in (0, -1.0):
            runner = ParallelRunner(workers=2, task_timeout=timeout)
            assert runner.task_timeout is None
            assert not runner.resilient

    def test_explicit_timeout_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "5")
        assert ParallelRunner(workers=2, task_timeout=1.5).task_timeout == 1.5

    def test_explicit_retries_floor_is_zero(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_RETRIES", "7")
        assert ParallelRunner(task_retries=-2).task_retries == 0
        assert ParallelRunner(task_retries=3).task_retries == 3
        assert ParallelRunner().task_retries == 7


class TestMap:
    TASKS = [(i, 1000 + i) for i in range(8)]

    def test_serial_map_in_order(self):
        results = ParallelRunner(workers=1).map(_draw, self.TASKS)
        assert [index for index, _ in results] == list(range(8))

    def test_parallel_equals_serial(self):
        serial = ParallelRunner(workers=1).map(_draw, self.TASKS)
        parallel = ParallelRunner(workers=4).map(_draw, self.TASKS)
        assert serial == parallel

    def test_empty_and_single_task(self):
        runner = ParallelRunner(workers=4)
        assert runner.map(_draw, []) == []
        assert runner.map(_draw, [(0, 5)]) == ParallelRunner(workers=1).map(
            _draw, [(0, 5)]
        )

    def test_worker_exception_propagates(self):
        with pytest.raises(RuntimeError, match="failed"):
            ParallelRunner(workers=2).map(_boom, [1, 2, 3])

    def test_generator_tasks_accepted(self):
        tasks = ((i, 1000 + i) for i in range(8))
        assert ParallelRunner(workers=2).map(_draw, tasks) == ParallelRunner(
            workers=1
        ).map(_draw, self.TASKS)

    def test_order_is_task_order_not_completion_order(self):
        tasks = [(index, 4) for index in range(4)]
        assert ParallelRunner(workers=4).map(_late_first, tasks) == [0, 1, 2, 3]

    def test_more_workers_than_tasks(self):
        assert ParallelRunner(workers=16).map(_draw, self.TASKS[:3]) == (
            ParallelRunner(workers=1).map(_draw, self.TASKS[:3])
        )

    def test_serial_runs_in_process(self):
        assert ParallelRunner(workers=1).map(_pid, range(3)) == [os.getpid()] * 3
        # One task never pays for a pool, whatever the worker count.
        assert ParallelRunner(workers=4).map(_pid, [0]) == [os.getpid()]

    def test_parallel_runs_in_worker_processes(self):
        pids = ParallelRunner(workers=2).map(_pid, range(4))
        assert os.getpid() not in pids

    def test_array_results_keep_dtype_shape_and_values(self):
        serial = ParallelRunner(workers=1).map(_arrays, range(4))
        parallel = ParallelRunner(workers=2).map(_arrays, range(4))
        for expected, got in zip(serial, parallel):
            assert expected.keys() == got.keys()
            for name, array in expected.items():
                assert got[name].dtype == array.dtype
                assert got[name].shape == array.shape
                assert np.array_equal(got[name], array)

    def test_empty_bundles_come_back(self):
        bundles = ParallelRunner(workers=2).map(_empty_bundle, range(3))
        assert [bundle.meta for bundle in bundles] == [{"task": i} for i in range(3)]
        assert all(bundle.arrays == {} for bundle in bundles)


class TestGuardedCall:
    def test_without_fault_is_the_bare_task(self):
        assert _GuardedCall(_draw)((0, 0, (2, 7))) == _draw((2, 7))

    def test_hooks_see_index_and_attempt(self):
        fault = _RecordingFault()
        assert _GuardedCall(_draw, fault)((5, 2, (5, 9))) == _draw((5, 9))
        assert fault.calls == [("before", 5, 2), ("after", 5, 2)]

    def test_after_hook_true_raises(self):
        fault = _RecordingFault(crash_after={3})
        with pytest.raises(RuntimeError, match="after task 3 \\(attempt 1\\)"):
            _GuardedCall(_draw, fault)((3, 1, (3, 9)))

    def test_before_hook_error_skips_task(self):
        class Refuse:
            def before_task(self, index, attempt):
                raise OSError("refused")

        with pytest.raises(OSError, match="refused"):
            _GuardedCall(_boom, Refuse())((0, 0, 1))

    def test_fault_without_hooks_is_tolerated(self):
        assert _GuardedCall(_draw, object())((1, 0, (1, 3))) == _draw((1, 3))


class TestResilientDispatch:
    def test_serial_runner_never_invokes_fault(self):
        fault = WorkerChaosFault(crash_probability=1.0, seed=0)
        runner = ParallelRunner(workers=1, task_timeout=5.0, fault=fault)
        assert runner.map(_draw, TestMap.TASKS) == [_draw(t) for t in TestMap.TASKS]

    def test_zero_retries_fall_back_to_serial(self):
        fault = WorkerChaosFault(crash_probability=1.0, seed=0)
        runner = ParallelRunner(
            workers=2, task_timeout=10.0, task_retries=0, fault=fault
        )
        assert runner.map(_draw, TestMap.TASKS[:4]) == [
            _draw(t) for t in TestMap.TASKS[:4]
        ]

    def test_timeout_only_runner_equals_serial(self):
        runner = ParallelRunner(workers=2, task_timeout=30.0)
        assert runner.resilient
        assert runner.map(_draw, TestMap.TASKS) == ParallelRunner(workers=1).map(
            _draw, TestMap.TASKS
        )


@pytest.fixture
def metered():
    METRICS.reset()
    METRICS.enable()
    try:
        yield
    finally:
        METRICS.disable()
        METRICS.reset()


class TestRunnerMetrics:
    def test_serial_counts_each_task(self, metered):
        ParallelRunner(workers=1).map(_draw, TestMap.TASKS[:3])
        assert runner_events_counter().value(event="task", mode="serial") == 3
        assert runner_task_histogram().count(mode="serial") == 3

    def test_pool_counts_tasks_and_one_map(self, metered):
        ParallelRunner(workers=2).map(_draw, TestMap.TASKS[:5])
        assert runner_events_counter().value(event="task", mode="pool") == 5
        assert runner_task_histogram().count(mode="pool_map") == 1

    def test_resilient_counts_failures_retries_and_fallback(self, metered):
        fault = WorkerChaosFault(crash_probability=1.0, seed=0)
        runner = ParallelRunner(
            workers=2, task_timeout=10.0, task_retries=1, fault=fault
        )
        runner.map(_draw, TestMap.TASKS[:3])
        counter = runner_events_counter()
        assert counter.value(event="failure") == 6
        assert counter.value(event="retry") == 3
        assert counter.value(event="serial_fallback") == 3
        assert counter.value(event="task", mode="resilient") == 0

    def test_disabled_registry_records_nothing(self):
        was_active = METRICS.active
        METRICS.disable()
        METRICS.reset()
        try:
            ParallelRunner(workers=2).map(_draw, TestMap.TASKS[:3])
            assert runner_events_counter().value(event="task", mode="pool") == 0
            assert runner_task_histogram().count(mode="pool_map") == 0
        finally:
            METRICS.active = was_active
