"""The compiled backend's two tiers: closures first, generated code once hot.

Every block body starts on the reference closures and is replaced by
generated Python source at the entry that reaches ``TIER_UP_THRESHOLD``.
These tests pin the transition: it may happen in the middle of a run
without changing any observable, it happens exactly at the threshold, and
a block whose generation fails stays on the closures and says so.
"""

import pytest

from repro.cache import CacheHierarchy
from repro.exec import CompiledExecutor, Interpreter, compiled
from repro.ir import parse_module
from repro.obs import OBS

SUM_IR = """
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
  store s2, a[i]
  jmp head
done:
  ret s
}
"""

HEAD, BODY, DONE = 1, 2, 3


@pytest.fixture(autouse=True)
def fresh_compile_cache():
    compiled.clear_compile_cache()
    yield
    compiled.clear_compile_cache()


def _generated(fn) -> bool:
    return fn.__code__.co_filename.startswith("<repro.exec.compiled:")


def _blocks(executor):
    return executor._compiled.functions["sum"].blocks


def _observe(result):
    trace = result.trace
    return (
        result.value, result.cycles, result.steps, result.arrays,
        [str(v) for v in result.violations],
        None if trace is None else (trace.instructions, trace.memory),
    )


@pytest.mark.parametrize("mode", ["trace", "cache"])
def test_loop_tiers_up_mid_run_and_matches_interpreter(monkeypatch, mode):
    monkeypatch.setattr(compiled, "TIER_UP_THRESHOLD", 5)
    module = parse_module(SUM_IR)
    args = [list(range(1, 21)), 20]
    observed = {}
    for backend in (Interpreter, CompiledExecutor):
        hierarchy = CacheHierarchy() if mode == "cache" else None
        executor = backend(module, record_trace=mode == "trace",
                           cache=hierarchy)
        result = executor.run("sum", [list(args[0]), args[1]])
        observed[backend] = (
            _observe(result),
            hierarchy.report().signature() if hierarchy else None,
        )
    assert observed[CompiledExecutor] == observed[Interpreter]
    blocks = _blocks(executor)
    # The loop crossed the threshold at its fifth iteration; the exit
    # block ran once and is still on the closures.
    assert _generated(blocks[HEAD].fn) and _generated(blocks[BODY].fn)
    assert not _generated(blocks[DONE].fn)


def test_block_fn_is_generated_from_the_threshold_on(monkeypatch):
    monkeypatch.setattr(compiled, "TIER_UP_THRESHOLD", 3)
    executor = CompiledExecutor(parse_module(SUM_IR), record_trace=False)
    with OBS.capture(force=True) as window:
        for run in range(1, 4):
            assert executor.run("sum", [[7], 1]).value == 7
            assert _generated(_blocks(executor)[BODY].fn) == (run >= 3)
    # head, entered twice a run, tiers up on the second run; entry, body
    # and done on the third.
    assert _generated(_blocks(executor)[HEAD].fn)
    assert window.counters["exec.tier.up"] == 4
    generated = _blocks(executor)[BODY].fn
    executor.run("sum", [[7], 1])
    assert _blocks(executor)[BODY].fn is generated


def test_failed_generation_keeps_the_closures(monkeypatch):
    monkeypatch.setattr(compiled, "TIER_UP_THRESHOLD", 1)
    attempts = []

    def broken(label, *rest):
        attempts.append(label)
        raise RuntimeError("generator bug")

    monkeypatch.setattr(compiled, "_codegen_block_fn", broken)
    module = parse_module(SUM_IR)
    args = [[3, 4, 5], 3]
    ref = Interpreter(module).run("sum", [list(args[0]), 3])
    executor = CompiledExecutor(module)
    with OBS.capture(force=True) as window:
        for _ in range(2):
            got = executor.run("sum", [list(args[0]), 3])
            assert _observe(got) == _observe(ref)
    assert sorted(attempts) == ["body", "done", "entry", "head"]
    assert window.counters["exec.tier.fallback"] == 4
    assert "exec.tier.up" not in window.counters
    assert not any(_generated(b.fn) for b in _blocks(executor))
