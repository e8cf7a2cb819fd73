"""The sharded result cache and the artifact store's shard knob."""

import pytest

from repro.artifacts.store import (
    DEFAULT_SHARD_WIDTH,
    SHARD_ENV_VAR,
    ArtifactStore,
    shard_width_from_env,
)
from repro.serve.cache import ResultCache, default_result_cache


def test_shard_width_env_knob(monkeypatch):
    monkeypatch.delenv(SHARD_ENV_VAR, raising=False)
    assert shard_width_from_env() == DEFAULT_SHARD_WIDTH
    monkeypatch.setenv(SHARD_ENV_VAR, "3")
    assert shard_width_from_env() == 3
    monkeypatch.setenv(SHARD_ENV_VAR, "8")
    assert shard_width_from_env() == 8
    for junk in ("99", "-1", "junk"):  # out of range or malformed: raise
        monkeypatch.setenv(SHARD_ENV_VAR, junk)
        with pytest.raises(ValueError, match=SHARD_ENV_VAR):
            shard_width_from_env()


def test_result_cache_layout_and_round_trip(tmp_path):
    cache = ResultCache(tmp_path / "serve", shard_width=2)
    key = "ab" + "0" * 62
    assert cache.get(key) is None
    cache.put(key, b'{"x":1}\n')
    assert cache.get(key) == b'{"x":1}\n'
    assert (tmp_path / "serve" / "ab" / f"{key}.json").is_file()


def test_result_cache_unsharded_mode(tmp_path):
    cache = ResultCache(tmp_path, shard_width=0)
    key = "cd" + "1" * 62
    cache.put(key, b"data\n")
    assert (tmp_path / "_" / f"{key}.json").is_file()
    assert cache.get(key) == b"data\n"


def test_result_cache_stats(tmp_path):
    cache = ResultCache(tmp_path, shard_width=1)
    for prefix in ("a", "a", "b", "c"):
        for index in range(2 if prefix == "a" else 1):
            cache.put(prefix + f"{index}" + "0" * 62, b"x\n")
    stats = cache.stats()
    assert stats["shard_width"] == 1
    assert stats["entries"] == 4
    assert stats["shards"] == 3
    assert stats["hottest_shard"] == "a"
    assert stats["per_shard"]["a"] == 2


def test_result_cache_tolerates_unwritable_root(tmp_path):
    blocked = tmp_path / "file-not-dir"
    blocked.write_text("x")
    cache = ResultCache(blocked / "nested")
    cache.put("ee" + "0" * 62, b"x\n")  # must not raise
    assert cache.get("ee" + "0" * 62) is None


def test_default_result_cache_env_gates(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert default_result_cache().root == tmp_path / "serve"
    monkeypatch.setenv("REPRO_SERVE_CACHE", "0")
    assert default_result_cache() is None
    monkeypatch.delenv("REPRO_SERVE_CACHE")
    monkeypatch.setenv("REPRO_CACHE", "0")
    assert default_result_cache() is None


def test_artifact_store_shard_stats(tmp_path, monkeypatch):
    from repro.artifacts.keys import cache_key

    store = ArtifactStore(tmp_path, shard_width=2)
    key = cache_key("uint f(uint x) { return x; }", {"t": 1})
    assert store.shard_of(key) == key[:2]
    assert store._entry_dir(key) == tmp_path / key[:2] / key
    empty = store.shard_stats()
    assert empty["entries"] == 0
    assert empty["hottest_shard"] is None


def test_artifact_store_unsharded(tmp_path):
    store = ArtifactStore(tmp_path, shard_width=0)
    assert store.shard_of("ab" + "0" * 62) == "_"
