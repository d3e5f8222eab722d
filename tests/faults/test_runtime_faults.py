"""Runtime-plane chaos: worker crashes/hangs and cache-entry corruption.

The headline regression here is bit-identical self-healing: a
:class:`ParallelRunner` whose workers crash or hang (via
:class:`WorkerChaosFault`) must return exactly the result of a fault-free
serial run — these tests fail on a retry-free runner by construction (the
resilience parameters they use do not exist there).
"""

import json

import numpy as np
import pytest

from repro.faults import CacheCorruptionFault, InjectedWorkerCrash, WorkerChaosFault
from repro.runtime.cache import ArtifactCache
from repro.runtime.engine import ArrayBundle
from repro.runtime.parallel import (
    ParallelRunner,
    configured_task_retries,
    configured_task_timeout,
)


def _square(task):
    return task * task


def _bundle(task):
    rng = np.random.default_rng(task)
    return ArrayBundle(meta={"task": task}, arrays={"values": rng.random(64)})


def _boom(task):
    raise ValueError(f"task {task} failed deterministically")


class TestEnvKnobs:
    def test_timeout_default_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_TASK_TIMEOUT", raising=False)
        assert configured_task_timeout() is None

    def test_timeout_parse(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "2.5")
        assert configured_task_timeout() == 2.5
        assert ParallelRunner(workers=2).task_timeout == 2.5

    def test_timeout_zero_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "0")
        assert configured_task_timeout() is None

    def test_timeout_invalid_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "soon")
        with pytest.raises(ValueError):
            configured_task_timeout()

    def test_retries_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TASK_RETRIES", raising=False)
        assert configured_task_retries() == 2

    def test_retries_parse_and_floor(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_RETRIES", "5")
        assert configured_task_retries() == 5
        monkeypatch.setenv("REPRO_TASK_RETRIES", "-3")
        assert configured_task_retries() == 0

    def test_runner_without_faults_is_not_resilient(self, monkeypatch):
        monkeypatch.delenv("REPRO_TASK_TIMEOUT", raising=False)
        assert not ParallelRunner(workers=2).resilient
        assert ParallelRunner(workers=2, task_timeout=1.0).resilient
        assert ParallelRunner(workers=2, fault=WorkerChaosFault()).resilient


class TestWorkerChaosFault:
    def test_draws_are_deterministic(self):
        fault = WorkerChaosFault(crash_probability=0.4, seed=9)
        draws = [fault._draw(index, 0) for index in range(32)]
        assert draws == [fault._draw(index, 0) for index in range(32)]

    def test_retry_rerolls(self):
        fault = WorkerChaosFault(crash_probability=0.4, seed=9)
        assert [fault._draw(3, attempt) for attempt in range(8)] != [
            fault._draw(3, 0)
        ] * 8

    def test_enter_crash_raises(self):
        fault = WorkerChaosFault(crash_probability=1.0, seed=0)
        with pytest.raises(InjectedWorkerCrash):
            fault.before_task(0, 0)
        assert fault.after_task(0, 0) is False

    def test_exit_crash_flagged(self):
        fault = WorkerChaosFault(crash_probability=1.0, crash_point="exit", seed=0)
        fault.before_task(0, 0)  # enter passes
        assert fault.after_task(0, 0) is True

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            WorkerChaosFault(crash_probability=0.8, hang_probability=0.4)


class TestResilientRunner:
    def test_crashes_heal_to_bit_identical_results(self):
        """Acceptance gate: crash probability >= 0.3, result == serial."""
        serial = [_square(task) for task in range(12)]
        fault = WorkerChaosFault(crash_probability=0.5, seed=17)
        runner = ParallelRunner(
            workers=3, task_timeout=30.0, task_retries=3, fault=fault
        )
        assert runner.map(_square, range(12)) == serial

    def test_exit_crashes_heal_too(self):
        serial = [_square(task) for task in range(12)]
        fault = WorkerChaosFault(crash_probability=0.5, crash_point="exit", seed=23)
        runner = ParallelRunner(
            workers=3, task_timeout=30.0, task_retries=3, fault=fault
        )
        assert runner.map(_square, range(12)) == serial

    def test_hangs_time_out_and_heal(self):
        serial = [_square(task) for task in range(8)]
        fault = WorkerChaosFault(
            hang_probability=0.4, hang_seconds=60.0, seed=29
        )
        runner = ParallelRunner(
            workers=2, task_timeout=0.5, task_retries=1, fault=fault
        )
        assert runner.map(_square, range(8)) == serial

    def test_total_crash_falls_back_to_serial(self):
        serial = [_square(task) for task in range(6)]
        fault = WorkerChaosFault(crash_probability=1.0, seed=1)
        runner = ParallelRunner(
            workers=2, task_timeout=10.0, task_retries=1, fault=fault
        )
        assert runner.map(_square, range(6)) == serial

    def test_bundle_results_heal_bit_identically(self):
        serial = [_bundle(task) for task in range(8)]
        fault = WorkerChaosFault(crash_probability=0.5, seed=31)
        runner = ParallelRunner(
            workers=3, task_timeout=30.0, task_retries=3, fault=fault
        )
        healed = runner.map(_bundle, range(8))
        for expected, got in zip(serial, healed):
            assert expected.meta == got.meta
            assert np.array_equal(expected.arrays["values"], got.arrays["values"])

    def test_deterministic_task_error_still_raises(self):
        runner = ParallelRunner(
            workers=2, task_timeout=10.0, task_retries=1
        )
        with pytest.raises(ValueError, match="deterministically"):
            runner.map(_boom, range(4))


class TestCacheCorruptionFault:
    def _seed_cache(self, tmp_path, entries=6):
        cache = ArtifactCache(root=tmp_path / "cache", enabled=True)
        paths = []
        for index in range(entries):
            paths.append(
                cache.store(
                    "chaos-test",
                    {"index": index},
                    lambda d, index=index: (d / "data.json").write_text(
                        json.dumps({"value": index, "pad": "x" * 256})
                    ),
                )
            )
        return cache, paths

    @staticmethod
    def _load(directory):
        return json.loads((directory / "data.json").read_text())["value"]

    def test_apply_is_deterministic(self, tmp_path):
        cache, _ = self._seed_cache(tmp_path)
        fault = CacheCorruptionFault(entry_probability=0.5, seed=3)
        first = [p.name for p in fault.apply(cache.root)]
        # Re-seeding an identical cache elsewhere damages the same entries.
        cache2, _ = self._seed_cache(tmp_path / "again")
        second = [p.name for p in fault.apply(cache2.root)]
        assert first == second
        assert first  # something was damaged at p=0.5 over 6 entries

    def test_damaged_entries_quarantined_and_rebuilt(self, tmp_path):
        cache, _ = self._seed_cache(tmp_path)
        fault = CacheCorruptionFault(entry_probability=1.0, seed=5)
        damaged = fault.apply(cache.root)
        assert len(damaged) == 6
        for index in range(6):
            with pytest.warns(RuntimeWarning, match="quarantined|corrupt"):
                value = cache.get_or_build(
                    "chaos-test",
                    {"index": index},
                    build=lambda index=index: index,
                    save=lambda value, d: (d / "data.json").write_text(
                        json.dumps({"value": value, "pad": "x" * 256})
                    ),
                    load=self._load,
                )
            assert value == index
        assert cache.stats.quarantined == 6
        assert cache.stats.invalid == 6
        quarantine = cache.root / ".quarantine"
        assert quarantine.is_dir()
        assert len(list(quarantine.iterdir())) == 6
        # Rebuilt entries load cleanly afterwards.
        for index in range(6):
            assert (
                cache.fetch("chaos-test", {"index": index}, self._load) == index
            )

    def test_quarantine_excluded_from_size_accounting(self, tmp_path):
        cache, _ = self._seed_cache(tmp_path)
        before = cache.total_bytes()
        CacheCorruptionFault(entry_probability=1.0, seed=5).apply(cache.root)
        with pytest.warns(RuntimeWarning):
            cache.fetch("chaos-test", {"index": 0}, self._load)
        assert cache.total_bytes() < before

    def test_quarantine_is_capped(self, tmp_path):
        from repro.runtime.cache import _QUARANTINE_KEEP

        cache, _ = self._seed_cache(tmp_path, entries=_QUARANTINE_KEEP + 4)
        CacheCorruptionFault(entry_probability=1.0, seed=5).apply(cache.root)
        for index in range(_QUARANTINE_KEEP + 4):
            with pytest.warns(RuntimeWarning):
                cache.fetch("chaos-test", {"index": index}, self._load)
        specimens = list((cache.root / ".quarantine").iterdir())
        assert len(specimens) <= _QUARANTINE_KEEP
