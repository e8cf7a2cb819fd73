"""The top-level convenience API (`repro/api.py`) and package surface."""

import repro
from repro import (
    check_isochronous,
    compile_minic,
    optimize_module,
    repair_module,
    run_function,
)

SOURCE = """
uint ofdt(secret uint *a, secret uint *b) {
  uint r = 1;
  for (uint i = 0; i < 2; i = i + 1) {
    if (a[i] != b[i]) { r = 0; }
  }
  return r;
}
"""


class TestApi:
    def test_version_exposed(self):
        assert repro.__version__

    def test_compile_run_roundtrip(self):
        module = compile_minic(SOURCE)
        assert run_function(module, "ofdt", [[1, 2], [1, 2]]) == 1
        assert run_function(module, "ofdt", [[1, 2], [1, 3]]) == 0

    def test_run_with_trace(self):
        module = compile_minic(SOURCE)
        result = run_function(module, "ofdt", [[1, 2], [1, 2]], trace=True)
        assert result.value == 1
        assert result.trace is not None
        assert result.cycles > 0

    def test_repair_with_manual_sizes(self):
        module = compile_minic(SOURCE)
        repaired = repair_module(module, sizes={"ofdt": {"a": 2, "b": 2}})
        assert run_function(repaired, "ofdt", [[1, 2], 2, [1, 2], 2]) == 1

    def test_optimize_levels(self):
        module = compile_minic(SOURCE)
        assert (optimize_module(module, level=0).instruction_count()
                == module.instruction_count())
        assert (optimize_module(module).instruction_count()
                <= module.instruction_count())

    def test_check_isochronous_end_to_end(self):
        module = compile_minic(SOURCE)
        leaky = check_isochronous(
            module, "ofdt", [[[1, 2], [1, 2]], [[1, 2], [9, 9]]]
        )
        assert not leaky.operation_invariant

        repaired = repair_module(module)
        clean = check_isochronous(
            repaired, "ofdt",
            [[[1, 2], 2, [1, 2], 2], [[1, 2], 2, [9, 9], 2]],
        )
        assert clean.isochronous
