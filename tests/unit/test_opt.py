"""Optimisation passes: each in isolation, then the pipeline."""

import pytest

from repro.exec import Interpreter
from repro.ir import Const, parse_function, parse_module, validate_module
from repro.ir.instructions import BinExpr, Br, CtSel, Jmp, Load, Mov, Store
from repro.opt import (
    eliminate_dead_code,
    optimize,
    simplify_cfg,
    simplify_ssa,
)


def instructions_of(function):
    return [i for _, i in function.iter_instructions()]


class TestConstFold:
    def test_binary_folding(self):
        function = parse_function(
            "func @f() { entry: x = mov 2 + 3 ret x }"
        )
        assert simplify_ssa(function)
        assert function.entry.instructions[0] == Mov("x", Const(5))

    def test_unary_folding(self):
        function = parse_function("func @f() { entry: x = mov ! 0 ret x }")
        simplify_ssa(function)
        assert function.entry.instructions[0] == Mov("x", Const(1))

    def test_ctsel_with_constant_condition(self):
        function = parse_function(
            "func @f(a: int, b: int) { entry: x = ctsel 1, a, b ret x }"
        )
        simplify_ssa(function)
        assert function.entry.instructions[0] == Mov("x", Const(0)) or \
            function.entry.instructions[0].expr.name == "a"

    def test_ret_expression_folds(self):
        function = parse_function("func @f() { entry: ret 2 * 21 }")
        simplify_ssa(function)
        assert function.entry.terminator.expr == Const(42)

    def test_wrapping_fold(self):
        function = parse_function(
            "func @f() { entry: x = mov 9223372036854775807 + 1 ret x }"
        )
        simplify_ssa(function)
        assert function.entry.instructions[0].expr == Const(-(1 << 63))

    def test_no_change_reports_false(self):
        function = parse_function("func @f(a: int) { entry: x = mov a ret x }")
        # The walk propagates the copy into ``ret``; a second walk has
        # nothing left to rewrite.
        assert simplify_ssa(function)
        assert not simplify_ssa(function)


class TestSimplify:
    @pytest.mark.parametrize("expr,expected", [
        ("a + 0", "a"), ("0 + a", "a"), ("a - 0", "a"), ("a - a", "0"),
        ("a * 1", "a"), ("a * 0", "0"), ("a / 1", "a"),
        ("a & 0", "0"), ("a & a", "a"), ("a | 0", "a"), ("a | a", "a"),
        ("a ^ 0", "a"), ("a ^ a", "0"), ("a << 0", "a"), ("a >> 0", "a"),
        ("a == a", "1"), ("a != a", "0"), ("a <= a", "1"), ("a < a", "0"),
    ])
    def test_identities(self, expr, expected):
        function = parse_function(
            f"func @f(a: int) {{ entry: x = mov {expr} ret x }}"
        )
        simplify_ssa(function)
        assert str(function.entry.instructions[0].expr) == expected

    def test_boolean_or_true_collapses(self):
        # b is known boolean (comparison result): b | 1 == 1.
        function = parse_function("""
        func @f(a: int) {
        entry:
          b = mov a < 5
          x = mov b | 1
          ret x
        }
        """)
        simplify_ssa(function)
        assert str(function.entry.instructions[1].expr) == "1"

    def test_non_boolean_or_one_untouched(self):
        function = parse_function("""
        func @f(a: int) {
        entry:
          x = mov a | 1
          ret x
        }
        """)
        simplify_ssa(function)
        assert str(function.entry.instructions[0].expr) == "a | 1"

    def test_ctsel_same_arms(self):
        function = parse_function(
            "func @f(c: int, v: int) { entry: x = ctsel c, v, v ret x }"
        )
        simplify_ssa(function)
        assert function.entry.instructions[0] == Mov("x", parse_function(
            "func @g(v: int) { entry: ret v }").entry.terminator.expr)

    def test_boolean_ctsel_one_zero_is_identity(self):
        function = parse_function("""
        func @f(a: int) {
        entry:
          b = mov a != 0
          x = ctsel b, 1, 0
          ret x
        }
        """)
        simplify_ssa(function)
        assert str(function.entry.instructions[1]) == "x = mov b"


class TestCopyProp:
    def test_copies_propagate_to_uses(self):
        function = parse_function("""
        func @f(a: int) {
        entry:
          x = mov a
          y = mov x + 1
          ret y
        }
        """)
        simplify_ssa(function)
        assert str(function.entry.instructions[1].expr) == "a + 1"

    def test_chains_resolve(self):
        function = parse_function("""
        func @f() {
        entry:
          x = mov 7
          y = mov x
          z = mov y
          ret z
        }
        """)
        simplify_ssa(function)
        assert function.entry.terminator.expr == Const(7)


class TestCSE:
    def test_duplicate_expression_merged(self):
        function = parse_function("""
        func @f(a: int, b: int) {
        entry:
          x = mov a + b
          y = mov a + b
          r = mov x ^ y
          ret r
        }
        """)
        simplify_ssa(function)
        # The merge gives ``r = x ^ x``, which the same walk folds to 0.
        assert str(function.entry.instructions[1]) == "y = mov x"
        assert str(function.entry.instructions[2].expr) == "0"

    def test_commutative_normalisation(self):
        function = parse_function("""
        func @f(a: int, b: int) {
        entry:
          x = mov a + b
          y = mov b + a
          r = mov x ^ y
          ret r
        }
        """)
        simplify_ssa(function)
        # The merge gives ``r = x ^ x``, which the same walk folds to 0.
        assert str(function.entry.instructions[1]) == "y = mov x"
        assert str(function.entry.instructions[2].expr) == "0"

    def test_loads_never_merged(self):
        function = parse_function("""
        func @f(a: ptr) {
        entry:
          x = load a[0]
          y = load a[0]
          r = mov x + y
          ret r
        }
        """)
        assert not simplify_ssa(function)

    def test_only_dominating_definitions_reused(self):
        function = parse_function("""
        func @f(a: int, c: int) {
        entry:
          br c, l, r
        l:
          x = mov a + 1
          jmp join
        r:
          y = mov a + 1
          jmp join
        join:
          p = phi [x, l], [y, r]
          ret p
        }
        """)
        # Neither arm dominates the other: no merge is legal.
        assert not simplify_ssa(function)


class TestDCE:
    def test_unused_mov_removed(self):
        function = parse_function("""
        func @f(a: int) {
        entry:
          dead = mov a + 1
          ret a
        }
        """)
        eliminate_dead_code(function)
        assert function.entry.instructions == []

    def test_transitively_dead_chain_removed(self):
        function = parse_function("""
        func @f(a: int) {
        entry:
          t1 = mov a + 1
          t2 = mov t1 + 1
          ret a
        }
        """)
        eliminate_dead_code(function)
        assert function.entry.instructions == []

    def test_dead_load_removed(self):
        function = parse_function("""
        func @f(a: ptr) {
        entry:
          dead = load a[0]
          ret 0
        }
        """)
        eliminate_dead_code(function)
        assert function.entry.instructions == []

    def test_stores_and_calls_kept(self):
        module = parse_module("""
        func @g() { entry: ret 0 }
        func @f(a: ptr) {
        entry:
          store 1, a[0]
          unused = call @g()
          ret 0
        }
        """)
        function = module.function("f")
        eliminate_dead_code(function)
        kinds = [type(i).__name__ for i in function.entry.instructions]
        assert kinds == ["Store", "Call"]


class TestSimplifyCFG:
    def test_constant_branch_folds(self):
        function = parse_function("""
        func @f() {
        entry:
          br 1, yes, no
        yes:
          ret 1
        no:
          ret 2
        }
        """)
        simplify_cfg(function)
        assert list(function.blocks) == ["entry"]
        assert function.entry.terminator.expr == Const(1)

    def test_straight_line_chain_merges(self):
        function = parse_function("""
        func @f() {
        entry:
          x = mov 1
          jmp mid
        mid:
          y = mov x + 1
          jmp end
        end:
          ret y
        }
        """)
        simplify_cfg(function)
        assert list(function.blocks) == ["entry"]

    def test_merge_converts_phis_to_movs(self):
        function = parse_function("""
        func @f() {
        entry:
          jmp next
        next:
          x = phi [3, entry]
          ret x
        }
        """)
        simplify_cfg(function)
        assert str(function.entry.instructions[0]) == "x = mov 3"

    def test_phi_labels_updated_after_merge(self):
        function = parse_function("""
        func @f(c: int) {
        entry:
          br c, pre, other
        pre:
          x = mov 1
          jmp mid
        mid:
          y = mov x + 1
          jmp join
        other:
          jmp join
        join:
          r = phi [y, mid], [0, other]
          ret r
        }
        """)
        simplify_cfg(function)
        validate_module_of(function)

    def test_equal_branch_targets_fold(self):
        function = parse_function("""
        func @f(c: int) {
        entry:
          br c, next, next
        next:
          ret 0
        }
        """)
        simplify_cfg(function)
        # The fold turns br into jmp, and the merge pass then absorbs the
        # target entirely.
        assert list(function.blocks) == ["entry"]
        assert function.entry.terminator.expr == Const(0)


def validate_module_of(function):
    from repro.ir import Module, validate_module

    module = Module()
    module.add_function(function)
    validate_module(module)


class TestPipeline:
    def test_optimize_preserves_semantics(self, fig1_module):
        optimized = optimize(fig1_module)
        validate_module(optimized)
        interp_a = Interpreter(fig1_module)
        interp_b = Interpreter(optimized)
        for a, b in [([1, 2], [1, 2]), ([1, 2], [3, 4]), ([5, 5], [5, 6])]:
            for name in ("ofdf", "ofdt", "otdt"):
                assert (
                    interp_a.run(name, [list(a), list(b)]).value
                    == interp_b.run(name, [list(a), list(b)]).value
                ), name

    def test_level_zero_is_identity(self, fig1_module):
        untouched = optimize(fig1_module, level=0)
        assert str(untouched) == str(fig1_module)

    def test_optimize_does_not_mutate_input(self, fig1_module):
        before = str(fig1_module)
        optimize(fig1_module)
        assert str(fig1_module) == before

    def test_repaired_code_shrinks_substantially(self, ofdf_module):
        from repro.core import repair_module

        repaired = repair_module(ofdf_module)
        optimized = optimize(repaired)
        assert optimized.instruction_count() < repaired.instruction_count()

    def test_optimized_repaired_code_stays_isochronous(self, ofdf_module):
        from repro.core import repair_module
        from repro.verify import check_invariance

        optimized = optimize(repair_module(ofdf_module))
        report = check_invariance(
            optimized, "ofdf",
            [[[1, 2], 2, [1, 2], 2], [[3, 4], 2, [9, 9], 2]],
        )
        assert report.operation_invariant
        assert report.data_invariant
        assert report.memory_safe


# A counted loop: the back edge carries ``i2`` and the copy ``s4``, both
# defined after the walk has passed the header's phis.
LOOP = """
func @f(n: int, a: int) {
entry:
  z = mov 0
  one = mov 1
  jmp head
head:
  i = phi [z, entry], [i2, body]
  s = phi [a, entry], [s4, body]
  c = mov i < n
  br c, body, exit
body:
  t = mov a + 0
  u = mov a * 1
  s2 = mov s + t
  s3 = mov s2 + u
  s4 = mov s3
  k = mov one
  i2 = mov i + k
  jmp head
exit:
  ret s
}
"""


class TestBackEdges:
    def test_back_edge_phi_operands_resolve_after_the_walk(self):
        function = parse_function(LOOP)
        assert simplify_ssa(function)
        validate_module_of(function)
        phis = [str(i) for i in function.blocks["head"].instructions[:2]]
        assert phis == ["i = phi [0, entry], [i2, body]",
                        "s = phi [a, entry], [s3, body]"]
        body = [str(i) for i in function.blocks["body"].instructions]
        assert "s3 = mov s2 + a" in body and "i2 = mov i + 1" in body

    def test_loop_carried_flag_stays_boolean(self):
        # ``b`` is 0 or a comparison result carried round the loop, so
        # ``b | 1`` is 1 although ``c`` is defined after the phi.
        function = parse_function("""
        func @f(n: int) {
        entry:
          jmp head
        head:
          i = phi [0, entry], [i2, body]
          b = phi [0, entry], [c, body]
          t = mov i < n
          br t, body, exit
        body:
          c = mov i == 3
          i2 = mov i + 1
          jmp head
        exit:
          s = mov b | 1
          ret s
        }
        """)
        simplify_ssa(function)
        assert function.blocks["exit"].terminator.expr == Const(1)

    def test_optimised_loop_matches_the_interpreter(self):
        module = parse_module(LOOP)
        optimized = optimize(module)
        assert optimized.instruction_count() < module.instruction_count()
        for n, a in [(0, 5), (1, 5), (4, -3), (7, 1 << 40)]:
            assert (
                Interpreter(optimized).run("f", [n, a]).value
                == Interpreter(module).run("f", [n, a]).value
            ), (n, a)
