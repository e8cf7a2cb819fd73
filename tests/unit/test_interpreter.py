"""The tracing interpreter: semantics, traces, error handling."""

import pytest

from repro.exec import (
    Interpreter,
    InterpreterError,
    MemorySafetyViolation,
    StepLimitExceeded,
)
from repro.ir import parse_module


def run(text: str, name: str, args, **kwargs):
    return Interpreter(parse_module(text), **kwargs).run(name, args)


class TestBasics:
    def test_arithmetic_and_return(self):
        result = run("func @f(a: int, b: int) { entry: x = mov a * b ret x + 1 }",
                     "f", [6, 7])
        assert result.value == 43

    def test_array_argument_roundtrip(self):
        result = run("""
        func @f(a: ptr) {
        entry:
          x = load a[0]
          y = mov x + 1
          store y, a[1]
          ret x
        }
        """, "f", [[10, 0]])
        assert result.value == 10
        assert result.arrays[0] == [10, 11]

    def test_global_state_captured(self):
        result = run("""
        global @g[2]
        func @f(v: int) {
        entry:
          store v, g[1]
          ret 0
        }
        """, "f", [9])
        assert result.global_state["g"] == [0, 9]

    def test_branching(self):
        text = """
        func @f(c: int) {
        entry:
          br c, yes, no
        yes:
          jmp done
        no:
          jmp done
        done:
          r = phi [1, yes], [2, no]
          ret r
        }
        """
        assert run(text, "f", [5]).value == 1
        assert run(text, "f", [0]).value == 2

    def test_phi_parallel_evaluation(self):
        # Swapping phis must read both old values before writing either.
        result = run("""
        func @f(n: int) {
        entry:
          jmp body
        body:
          a = phi [1, entry]
          b = phi [2, entry]
          jmp swap
        swap:
          x = phi [b, body]
          y = phi [a, body]
          r = mov x * 10
          ret r + y
        }
        """, "f", [0])
        assert result.value == 21

    def test_ctsel(self):
        text = "func @f(c: int) { entry: x = ctsel c, 10, 20 ret x }"
        assert run(text, "f", [1]).value == 10
        assert run(text, "f", [0]).value == 20

    def test_alloc_local_memory(self):
        result = run("""
        func @f() {
        entry:
          buf = alloc 3
          store 7, buf[2]
          x = load buf[2]
          ret x
        }
        """, "f", [])
        assert result.value == 7

    def test_call_and_return(self):
        result = run("""
        func @add(a: int, b: int) { entry: ret a + b }
        func @f() {
        entry:
          x = call @add(2, 3)
          y = call @add(x, x)
          ret y
        }
        """, "f", [])
        assert result.value == 10

    def test_call_passing_pointer(self):
        result = run("""
        func @fill(p: ptr, v: int) {
        entry:
          store v, p[0]
          ret 0
        }
        func @f() {
        entry:
          buf = alloc 1
          c = call @fill(buf, 42)
          x = load buf[0]
          ret x
        }
        """, "f", [])
        assert result.value == 42


class TestTraces:
    def test_instruction_trace_records_sites(self):
        result = run("func @f() { entry: x = mov 1 ret x }", "f", [])
        sites = [str(s) for s in result.trace.instructions]
        assert sites == ["@f:entry[0]", "@f:entry[1]"]

    def test_memory_trace_records_accesses(self):
        result = run("""
        func @f(a: ptr) {
        entry:
          x = load a[1]
          store x, a[0]
          ret x
        }
        """, "f", [[5, 6]])
        kinds = [(a.kind, a.index) for a in result.trace.memory]
        assert kinds == [("load", 1), ("store", 0)]

    def test_trace_can_be_disabled(self):
        module = parse_module("func @f() { entry: ret 0 }")
        result = Interpreter(module, record_trace=False).run("f", [])
        assert result.trace is None

    def test_cycles_accumulate(self):
        result = run("func @f(a: ptr) { entry: x = load a[0] ret x }",
                     "f", [[1]])
        assert result.cycles > result.steps >= 2


class TestErrors:
    def test_wrong_arity(self):
        with pytest.raises(InterpreterError, match="expects"):
            run("func @f(a: int) { entry: ret a }", "f", [])

    def test_pointer_arithmetic_rejected(self):
        with pytest.raises(InterpreterError, match="pointer"):
            run("func @f(a: ptr) { entry: x = mov a + 1 ret x }", "f", [[1]])

    def test_pointer_equality_allowed(self):
        result = run("func @f(a: ptr) { entry: x = mov a == a ret x }",
                     "f", [[1]])
        assert result.value == 1

    def test_returning_pointer_rejected(self):
        with pytest.raises(InterpreterError, match="pointer"):
            run("func @f(a: ptr) { entry: xp = mov a ret xp }", "f", [[1]])

    def test_loop_hits_step_limit(self):
        module = parse_module("""
        func @f() {
        entry:
          jmp entry
        }
        """)
        with pytest.raises(StepLimitExceeded):
            Interpreter(module, max_steps=100).run("f", [])

    def test_recursion_depth_limit(self):
        module = parse_module("""
        func @f(n: int) {
        entry:
          x = call @f(n)
          ret x
        }
        """)
        with pytest.raises(InterpreterError, match="depth"):
            Interpreter(module).run("f", [1])

    def test_strict_oob_raises(self):
        with pytest.raises(MemorySafetyViolation):
            run("func @f(a: ptr) { entry: x = load a[5] ret x }", "f", [[1]])

    def test_permissive_oob_recorded(self):
        result = run("func @f(a: ptr) { entry: x = load a[5] ret 0 }",
                     "f", [[1]], strict_memory=False)
        assert len(result.violations) == 1

    VIOLATING = ("func @f(a: ptr) {\nentry:\n  x = load a[5]\n"
                 "  store x, a[3]\n  ret x\n}\n")

    def test_strict_violation_message(self):
        with pytest.raises(MemorySafetyViolation) as excinfo:
            run(self.VIOLATING, "f", [[1]])
        assert str(excinfo.value) == (
            "out-of-bounds load of arg:a[5] (size 1) at f:x = load a[5]"
        )
        assert excinfo.value.access.site == "f:x = load a[5]"

    def test_permissive_violation_messages(self):
        result = run(self.VIOLATING, "f", [[1]], strict_memory=False)
        assert [str(v) for v in result.violations] == [
            "out-of-bounds load of arg:a[5] (size 1) at f:x = load a[5]",
            "out-of-bounds store of arg:a[3] (size 1) at f:store x, a[3]",
        ]

    def test_in_bounds_accesses_render_no_site(self, monkeypatch):
        from repro.ir.instructions import Load, Store

        rendered = []

        def counting(render):
            def counted(instr):
                rendered.append(instr)
                return render(instr)
            return counted

        for cls in (Load, Store):
            monkeypatch.setattr(cls, "__str__", counting(cls.__str__))
        in_bounds = self.VIOLATING.replace("a[5]", "a[0]").replace(
            "a[3]", "a[0]")
        assert run(in_bounds, "f", [[1]]).value == 1
        assert rendered == []

    def test_wrapping_of_argument_words(self):
        result = run("func @f(a: int) { entry: ret a }", "f", [2**64 + 5])
        assert result.value == 5


class TestOutputsObservation:
    def test_outputs_tuple_is_comparable(self):
        text = """
        global @g[1]
        func @f(a: ptr, n: int) {
        entry:
          store n, a[0]
          store n, g[0]
          ret n
        }
        """
        first = run(text, "f", [[0], 3]).outputs()
        second = run(text, "f", [[0], 3]).outputs()
        third = run(text, "f", [[0], 4]).outputs()
        assert first == second
        assert first != third
