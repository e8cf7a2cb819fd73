"""LRU discipline of the identity-keyed executor caches.

A long-running ``lif serve`` process compiles thousands of distinct
modules; before this bound the compile/SoA/superblock caches grew without
limit (weakref eviction only fires when a module is garbage-collected,
and a warm server deliberately keeps modules alive).  These tests pin the
``REPRO_EXEC_CACHE_SIZE`` bound: least-recently-used entries are evicted,
a hit refreshes recency, and every eviction is counted in the stats the
serve layer reports.
"""

import pytest

from repro.exec import (
    EXEC_CACHE_SIZE_ENV_VAR,
    batch_cache_stats,
    clear_batch_caches,
    clear_compile_cache,
    compile_cache_stats,
    exec_cache_limit,
    executor_cache_stats,
    get_compiled,
    make_executor,
    run_many,
    trace_cache_stats,
)
from repro.exec.costs import DEFAULT_COST_MODEL
from repro.ir import parse_module

ADD_IR = """
func @add(a: int, b: int) {
entry:
  s = mov a + b
  ret s
}
"""

LOOP_IR = """
func @sum(a: ptr, n: int) {
entry:
  jmp head
head:
  i = phi [0, entry], [i2, body]
  s = phi [0, entry], [s2, body]
  p = mov i < n
  br p, body, done
body:
  x = load a[i]
  s2 = mov s + x
  i2 = mov i + 1
  jmp head
done:
  ret s
}
"""


@pytest.fixture(autouse=True)
def _clean_caches():
    clear_compile_cache()
    clear_batch_caches()
    yield
    clear_compile_cache()
    clear_batch_caches()


def _compile(module):
    return get_compiled(module, True, True, DEFAULT_COST_MODEL)


def _modules(count, text=ADD_IR):
    return [parse_module(text, name=f"m{index}") for index in range(count)]


def test_limit_env_knob(monkeypatch):
    monkeypatch.setenv(EXEC_CACHE_SIZE_ENV_VAR, "7")
    assert exec_cache_limit() == 7
    monkeypatch.delenv(EXEC_CACHE_SIZE_ENV_VAR)
    assert exec_cache_limit() == 128
    for junk in ("junk", "0", "-3"):
        monkeypatch.setenv(EXEC_CACHE_SIZE_ENV_VAR, junk)
        with pytest.raises(ValueError, match=EXEC_CACHE_SIZE_ENV_VAR):
            exec_cache_limit()


def test_compile_cache_evicts_least_recently_used(monkeypatch):
    monkeypatch.setenv(EXEC_CACHE_SIZE_ENV_VAR, "4")
    modules = _modules(6)
    for module in modules:
        _compile(module)
    stats = compile_cache_stats()
    assert stats["entries"] == 4
    assert stats["evictions"] == 2
    # The two oldest are gone: compiling them again is a miss.
    before = compile_cache_stats()["misses"]
    _compile(modules[0])
    assert compile_cache_stats()["misses"] == before + 1
    # The newest survived: a hit, not a rebuild.
    before_hits = compile_cache_stats()["hits"]
    _compile(modules[5])
    assert compile_cache_stats()["hits"] == before_hits + 1


def test_compile_cache_hit_refreshes_recency(monkeypatch):
    monkeypatch.setenv(EXEC_CACHE_SIZE_ENV_VAR, "3")
    modules = _modules(4)
    for module in modules[:3]:
        _compile(module)
    _compile(modules[0])  # refresh: module 1 is now the oldest
    _compile(modules[3])  # evicts module 1, not module 0
    before_hits = compile_cache_stats()["hits"]
    _compile(modules[0])
    assert compile_cache_stats()["hits"] == before_hits + 1
    before_misses = compile_cache_stats()["misses"]
    _compile(modules[1])
    assert compile_cache_stats()["misses"] == before_misses + 1


def test_batch_caches_are_bounded(monkeypatch):
    monkeypatch.setenv(EXEC_CACHE_SIZE_ENV_VAR, "2")
    modules = _modules(4, text=LOOP_IR)
    vectors = [[[1, 2, 3], 3], [[4, 5, 6], 3]]
    for module in modules:
        run_many(make_executor(module, backend="batch"), "sum", vectors)
    stats = batch_cache_stats()
    assert stats["entries"] <= 2
    assert stats["evictions"] >= 2
    assert trace_cache_stats()["entries"] <= 2


def test_executor_cache_stats_shape():
    stats = executor_cache_stats()
    assert set(stats) == {"limit", "compile", "batch", "trace"}
    for name in ("compile", "batch", "trace"):
        assert set(stats[name]) == {"hits", "misses", "evictions", "entries"}
    assert stats["limit"] == exec_cache_limit()
