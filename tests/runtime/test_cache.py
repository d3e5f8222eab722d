"""ArtifactCache: round-trips, atomicity, corruption recovery, disabling."""

import json

import numpy as np
import pytest

from repro.runtime.cache import ArtifactCache


def _save_array(value: np.ndarray, directory):
    np.save(directory / "value.npy", value)


def _load_array(directory) -> np.ndarray:
    return np.load(directory / "value.npy")


@pytest.fixture()
def cache(tmp_path) -> ArtifactCache:
    return ArtifactCache(root=tmp_path / "cache", enabled=True)


class TestRoundTrip:
    def test_miss_on_empty_cache(self, cache):
        assert cache.fetch("k", {"a": 1}, _load_array) is None
        assert cache.stats.misses == 1

    def test_store_then_fetch_bit_identical(self, cache):
        value = np.random.default_rng(0).random((4, 5))
        cache.store("k", {"a": 1}, lambda d: _save_array(value, d))
        loaded = cache.fetch("k", {"a": 1}, _load_array)
        assert np.array_equal(loaded, value)
        assert loaded.dtype == value.dtype

    def test_payload_separates_entries(self, cache):
        cache.store("k", {"a": 1}, lambda d: _save_array(np.zeros(2), d))
        assert cache.fetch("k", {"a": 2}, _load_array) is None

    def test_get_or_build_builds_exactly_once(self, cache):
        calls = []

        def build():
            calls.append(1)
            return np.ones(3)

        for _ in range(3):
            value = cache.get_or_build(
                "k", {"a": 1}, build, _save_array, _load_array
            )
            assert np.array_equal(value, np.ones(3))
        assert len(calls) == 1
        assert cache.stats.hits == 2
        assert cache.stats.stores == 1


class TestCorruptionRecovery:
    def _stored_entry(self, cache):
        value = np.arange(12, dtype=np.float64).reshape(3, 4)
        entry = cache.store("k", {"a": 1}, lambda d: _save_array(value, d))
        assert entry is not None
        return value, entry

    def test_truncated_file_is_rebuilt_not_loaded(self, cache):
        value, entry = self._stored_entry(cache)
        data_file = entry / "value.npy"
        data_file.write_bytes(data_file.read_bytes()[:-7])
        assert cache.fetch("k", {"a": 1}, _load_array) is None
        assert not entry.exists(), "corrupt entry must be purged"
        assert cache.stats.invalid == 1
        # The rebuild path stores a fresh, loadable copy.
        rebuilt = cache.get_or_build(
            "k", {"a": 1}, lambda: value, _save_array, _load_array
        )
        assert np.array_equal(rebuilt, value)
        assert np.array_equal(cache.fetch("k", {"a": 1}, _load_array), value)

    def test_missing_manifest_is_a_miss(self, cache):
        _, entry = self._stored_entry(cache)
        (entry / "manifest.json").unlink()
        assert cache.fetch("k", {"a": 1}, _load_array) is None
        assert not entry.exists()

    def test_missing_data_file_is_a_miss(self, cache):
        _, entry = self._stored_entry(cache)
        (entry / "value.npy").unlink()
        assert cache.fetch("k", {"a": 1}, _load_array) is None

    def test_loader_exception_is_a_miss(self, cache):
        self._stored_entry(cache)

        def bad_load(directory):
            raise ValueError("scrambled bytes")

        assert cache.fetch("k", {"a": 1}, bad_load) is None
        assert cache.stats.invalid == 1

    def test_failed_save_leaves_no_entry(self, cache):
        def bad_save(directory):
            (directory / "value.npy").write_bytes(b"partial")
            raise OSError("disk full")

        with pytest.raises(OSError):
            cache.store("k", {"a": 1}, bad_save)
        assert cache.fetch("k", {"a": 1}, _load_array) is None
        staging = list(cache.root.rglob(".staging-*"))
        assert staging == [], "staging directories must not leak"


class TestDisabled:
    def test_disabled_cache_never_stores_or_hits(self, tmp_path):
        cache = ArtifactCache(root=tmp_path, enabled=False)
        assert cache.store("k", {}, lambda d: _save_array(np.zeros(1), d)) is None
        assert cache.fetch("k", {}, _load_array) is None
        assert list(tmp_path.iterdir()) == []

    def test_environment_disable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert ArtifactCache().enabled is False
        monkeypatch.setenv("REPRO_CACHE", "1")
        assert ArtifactCache().enabled is True
        monkeypatch.delenv("REPRO_CACHE")
        assert ArtifactCache().enabled is True

    def test_environment_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        cache = ArtifactCache()
        assert cache.root == tmp_path / "custom"


class TestManifest:
    def test_manifest_lists_every_file_with_sizes(self, cache):
        value = np.zeros(8)
        entry = cache.store("k", {}, lambda d: _save_array(value, d))
        manifest = json.loads((entry / "manifest.json").read_text())
        assert "value.npy" in manifest["files"]
        assert manifest["files"]["value.npy"] == (entry / "value.npy").stat().st_size
