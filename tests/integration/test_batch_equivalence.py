"""Differential testing of the batch backend against scalar execution.

Every bundled benchmark — original, repaired, and repaired at -O1 — runs
as one lane family under the batch backend and scalar under the compiled
backend and the interpreter.  Per-lane results must be bit-identical on
every observable: return value, simulated cycles, dynamic step count,
access violations, array outputs, global state, and the full instruction
and memory traces.

This is the acceptance gate for ``repro.exec.batch``: any per-lane
divergence from a scalar loop is a lock-step engine bug.  The divergence
tests additionally pin the lock-step protocol itself: a lane whose branch
condition disagrees with the first live lane must leave lock-step, re-run
on the compiled backend, increment the ``exec.batch.diverge`` counter,
and still produce the exact scalar results.
"""

import pytest

from repro.exec import BatchExecutor, make_executor, run_many
from repro.ir import parse_module
from repro.obs import OBS, configure

from tests.integration.test_backend_equivalence import (
    ALL_NAMES,
    _copy,
    _observation,
    _variants,
)


def _full_observation(result):
    return _observation(result) + (result.trace,)


def _lanes(inputs, repeats=3):
    """A lane family from the benchmark inputs: each vector several times,
    interleaved, so deduplication and chunking both see realistic shapes."""
    vectors = []
    for _ in range(repeats):
        for args in inputs:
            vectors.append([_copy(a) for a in args])
    return vectors


class TestBatchMatchesScalar:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_all_variants_agree_with_traces(self, name):
        entry, variants = _variants(name)
        for label, module, inputs in variants:
            scalar = make_executor(
                module, backend="compiled", strict_memory=False,
            )
            vectors = _lanes(inputs)
            ref = [scalar.run(entry, [_copy(a) for a in v]) for v in vectors]
            batch = BatchExecutor(module, strict_memory=False)
            got = batch.run_batch(entry, vectors)
            assert len(got) == len(ref)
            for lane, (r, g) in enumerate(zip(ref, got)):
                assert _full_observation(g) == _full_observation(r), (
                    f"{name}/{label}: lane {lane} diverges"
                )

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_three_way_with_interpreter(self, name):
        """batch ≡ scalar-compiled ≡ interp on the no-trace observables."""
        entry, variants = _variants(name)
        for label, module, inputs in variants:
            interp = make_executor(
                module, backend="interp", record_trace=False,
                strict_memory=False,
            )
            batch = make_executor(
                module, backend="batch", record_trace=False,
                strict_memory=False,
            )
            vectors = [[_copy(a) for a in args] for args in inputs]
            ref = [interp.run(entry, [_copy(a) for a in v]) for v in vectors]
            got = run_many(batch, entry, vectors)
            for lane, (r, g) in enumerate(zip(ref, got)):
                assert _observation(g) == _observation(r), (
                    f"{name}/{label}: batch and interpreter diverge "
                    f"on lane {lane}"
                )


#: Secret-dependent branching (the paper's oFdF): lanes whose first words
#: differ take the early exit, lanes with equal first words fall through —
#: exactly the divergence shape that splits lanes off mid-function.
GUARD_IR = """
func @ofdf(a: ptr, b: ptr) {
l0:
  x0 = load a[0]
  y0 = load b[0]
  p0 = mov x0 != y0
  br p0, l4, l1
l1:
  x1 = load a[1]
  y1 = load b[1]
  p1 = mov x1 != y1
  br p1, l4, l3
l3:
  jmp l5
l4:
  jmp l5
l5:
  r = phi [1, l3], [0, l4]
  ret r
}
"""


class TestTraceGuardAbort:
    """Lanes that disagree at a branch leave lock-step and re-run scalar."""

    def _vectors(self):
        # Lane 0 (the first live lane) takes the equal-equal path; the
        # marked lanes diverge at the first or second branch respectively.
        return [
            [[1, 2], [1, 2]],  # both compares equal -> ret 1
            [[1, 2], [1, 2]],  # duplicate of lane 0 (dedup path)
            [[9, 2], [1, 2]],  # diverges at the first branch -> ret 0
            [[1, 9], [1, 2]],  # diverges at the second branch -> ret 0
            [[1, 2], [1, 3]],  # diverges at the second branch -> ret 0
        ]

    def test_divergent_lanes_abort_to_scalar_with_identical_results(self):
        module = parse_module(GUARD_IR)
        scalar = make_executor(
            module, backend="compiled", strict_memory=False,
        )
        batch = BatchExecutor(module, strict_memory=False)
        vectors = self._vectors()
        ref = [scalar.run("ofdf", [_copy(a) for a in v]) for v in vectors]
        assert [r.value for r in ref] == [1, 1, 0, 0, 0]
        got = batch.run_batch("ofdf", vectors)
        for lane, (r, g) in enumerate(zip(ref, got)):
            assert _full_observation(g) == _full_observation(r), (
                f"lane {lane} differs after leaving lock-step"
            )

    def test_lockstep_tier_counts_divergence(self):
        module = parse_module(GUARD_IR)
        batch = BatchExecutor(module, strict_memory=False)
        scalar = make_executor(
            module, backend="compiled", strict_memory=False,
        )
        vectors = self._vectors()
        ref = [scalar.run("ofdf", [_copy(a) for a in v]) for v in vectors]
        configure(enabled=True)
        try:
            OBS.counters.pop("exec.batch.diverge", None)
            got = batch.run_batch("ofdf", vectors)
            assert OBS.counters.get("exec.batch.diverge") == 3
        finally:
            configure(enabled=False)
        for lane, (r, g) in enumerate(zip(ref, got)):
            assert _full_observation(g) == _full_observation(r)
