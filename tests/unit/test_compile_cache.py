"""The module-level compile cache: identity keying, option keying, and
staleness — a rebuilt module must never be served another module's code."""

import gc
import threading

import pytest

from repro.exec import (
    CompiledExecutor,
    clear_compile_cache,
    compile_cache_stats,
    get_compiled,
)
from repro.exec import compiled
from repro.exec.costs import DEFAULT_COST_MODEL
from repro.ir import parse_module

TEXT = "func @f(a: int) { entry: x = mov a + 1 ret x }"


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_compile_cache()
    yield
    clear_compile_cache()


class TestKeying:
    def test_same_module_hits(self):
        module = parse_module(TEXT)
        first = get_compiled(module, False, False, DEFAULT_COST_MODEL)
        second = get_compiled(module, False, False, DEFAULT_COST_MODEL)
        assert first is second
        stats = compile_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_identity_not_name(self):
        # Two distinct modules with identical text (and name) compile
        # separately: the cache must key on the object, not the name.
        module_a = parse_module(TEXT)
        module_b = parse_module(TEXT)
        assert module_a.name == module_b.name
        compiled_a = get_compiled(module_a, False, False, DEFAULT_COST_MODEL)
        compiled_b = get_compiled(module_b, False, False, DEFAULT_COST_MODEL)
        assert compiled_a is not compiled_b
        assert compile_cache_stats()["misses"] == 2

    def test_options_compile_separately(self):
        module = parse_module(TEXT)
        plain = get_compiled(module, False, False, DEFAULT_COST_MODEL)
        tracing = get_compiled(module, True, False, DEFAULT_COST_MODEL)
        caching = get_compiled(module, False, True, DEFAULT_COST_MODEL)
        assert plain is not tracing
        assert plain is not caching
        assert compile_cache_stats() == {
            "hits": 0, "misses": 3, "evictions": 0, "entries": 1,
        }

    def test_executors_share_compilation(self):
        module = parse_module(TEXT)
        a = CompiledExecutor(module, record_trace=False)
        b = CompiledExecutor(module, record_trace=False)
        assert a._compiled is b._compiled


class TestStaleness:
    def test_repair_then_optimize_then_rerun(self):
        """The bench/runner lifecycle: each transformation yields a new
        module object and therefore a fresh compilation of the same-named
        function — never the stale original code."""
        from repro.core import repair_module
        from repro.opt import optimize
        from repro.verify import adapt_inputs

        source = """
        func @f(a: ptr, c: int) {
        entry:
          x = load a[0]
          br c, yes, done
        yes:
          y = mov x * 2
          store y, a[0]
          jmp done
        done:
          r = phi [x, entry], [0, yes]
          ret r
        }
        """
        original = parse_module(source)
        ran = CompiledExecutor(
            original, record_trace=False
        ).run("f", [[21], 1])
        assert ran.arrays[0] == [42]

        repaired = repair_module(original)
        optimized = optimize(repaired)
        inputs = adapt_inputs(original, "f", [[[21], 1]])
        for module in (repaired, optimized):
            result = CompiledExecutor(
                module, record_trace=False, strict_memory=False
            ).run("f", list(inputs[0]))
            assert result.arrays[0] == [42], (
                "stale compilation served for a rebuilt module"
            )
        # Three distinct module objects, three distinct compilations.
        assert compile_cache_stats()["misses"] == 3

    def test_mutating_rebuild_of_same_name(self):
        module = parse_module(TEXT)
        assert CompiledExecutor(
            module, record_trace=False
        ).run("f", [1]).value == 2
        rebuilt = parse_module(
            "func @f(a: int) { entry: x = mov a + 100 ret x }"
        )
        assert CompiledExecutor(
            rebuilt, record_trace=False
        ).run("f", [1]).value == 101


class TestLifecycle:
    def test_entries_evicted_when_module_dies(self):
        module = parse_module(TEXT)
        get_compiled(module, False, False, DEFAULT_COST_MODEL)
        assert compile_cache_stats()["entries"] == 1
        del module
        gc.collect()
        assert compile_cache_stats()["entries"] == 0

    def test_module_dying_under_the_cache_lock_does_not_deadlock(self):
        # Garbage collection can run the weakref callback inside any
        # allocation, including one made while the cache lock is held.
        modules = [parse_module(TEXT)]
        get_compiled(modules[0], False, False, DEFAULT_COST_MODEL)
        collected = threading.Event()

        def collect_while_locked():
            with compiled._COMPILE_CACHE._lock:
                modules.clear()
                gc.collect()
            collected.set()

        threading.Thread(target=collect_while_locked, daemon=True).start()
        assert collected.wait(30)
        assert compile_cache_stats()["entries"] == 0

    def test_clear_resets_everything(self):
        module = parse_module(TEXT)
        get_compiled(module, False, False, DEFAULT_COST_MODEL)
        clear_compile_cache()
        assert compile_cache_stats() == {"hits": 0, "misses": 0, "evictions": 0, "entries": 0}
