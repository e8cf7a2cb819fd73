"""MiniC lexer, parser, and loop unrolling (done by code generation)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.frontend import (
    MiniCSyntaxError,
    UnrollError,
    compile_source,
    parse_source,
    tokenize,
)
from repro.frontend import ast_nodes as ast
from repro.ir.instructions import Alloc, Store
from repro.ir.values import Const

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


class TestLexer:
    def test_hex_and_decimal_literals(self):
        tokens = tokenize("0xff 255")
        assert [t.text for t in tokens[:2]] == ["0xff", "255"]

    def test_comments_stripped(self):
        tokens = tokenize("a // line\n /* block\n comment */ b")
        assert [t.text for t in tokens if t.kind == "name"] == ["a", "b"]

    def test_unterminated_comment(self):
        with pytest.raises(MiniCSyntaxError):
            tokenize("/* oops")

    def test_multichar_operators(self):
        tokens = tokenize("a <<= b")  # lexes as <<, =
        ops = [t.text for t in tokens if t.kind == "op"]
        assert ops == ["<<", "="]

    def test_line_numbers(self):
        tokens = tokenize("a\nb\nc")
        assert [t.line for t in tokens[:3]] == [1, 2, 3]


class TestParser:
    def test_function_with_params(self):
        program = parse_source(
            "uint f(secret u32 *key, uint n, u8 data[]) { return n; }"
        )
        (func,) = program.functions
        assert [p.name for p in func.params] == ["key", "n", "data"]
        assert func.params[0].secret and func.params[0].is_pointer
        assert not func.params[1].is_pointer
        assert func.params[2].is_pointer

    def test_global_declarations(self):
        program = parse_source("const u8 tab[4] = {1, 2, 3, 4}; uint g[2];")
        assert program.globals[0].const
        assert len(program.globals[0].init) == 4
        assert not program.globals[1].const

    def test_operator_precedence(self):
        program = parse_source("uint f(uint a, uint b) { return a + b * 2; }")
        ret = program.functions[0].body[0]
        assert isinstance(ret.value, ast.Binary) and ret.value.op == "+"
        assert isinstance(ret.value.rhs, ast.Binary) and ret.value.rhs.op == "*"

    def test_ternary(self):
        program = parse_source("uint f(uint c) { return c ? 1 : 2; }")
        assert isinstance(program.functions[0].body[0].value, ast.Ternary)

    def test_cast(self):
        program = parse_source("uint f(uint a) { return (u8) a; }")
        assert isinstance(program.functions[0].body[0].value, ast.Cast)

    def test_else_if_chain(self):
        program = parse_source("""
        uint f(uint a) {
          if (a == 0) { return 1; } else if (a == 1) { return 2; }
          return 3;
        }
        """)
        outer = program.functions[0].body[0]
        assert isinstance(outer.else_body[0], ast.If)

    def test_for_loop_shape_enforced(self):
        with pytest.raises(MiniCSyntaxError, match="counter"):
            parse_source("uint f() { for (i = 0; 1 < 2; i = i + 1) { } return 0; }")
        with pytest.raises(MiniCSyntaxError, match="step"):
            parse_source("uint f() { for (i = 0; i < 2; i = i * 2) { } return 0; }")

    def test_void_return(self):
        program = parse_source("void f() { return; }")
        assert isinstance(program.functions[0].body[0], ast.Return)

    def test_keyword_in_expression_rejected(self):
        with pytest.raises(MiniCSyntaxError):
            parse_source("uint f() { return if; }")


class TestUnroller:
    @staticmethod
    def compiled(text: str):
        """The instructions of ``f``, which must compile to one block."""
        (block,) = compile_source(text).functions["f"].blocks.values()
        return block.instructions

    @staticmethod
    def stores(text: str) -> list:
        return [
            (i.index, i.value)
            for i in TestUnroller.compiled(text) if isinstance(i, Store)
        ]

    def test_loop_local_names_ignore_the_hash_seed(self):
        # Each unrolled copy renames the body's locals in declaration order;
        # a set-ordered numbering made `lif compile` depend on the seed.
        root = Path(__file__).resolve().parents[2]
        fixture = root / "tests" / "fixtures" / "loop_locals.mc"
        outputs = set()
        for seed in range(8):
            env = dict(os.environ, PYTHONHASHSEED=str(seed))
            env["PYTHONPATH"] = str(root / "src")
            result = subprocess.run(
                [sys.executable, "-m", "repro.cli", "compile", str(fixture)],
                env=env, capture_output=True, text=True, check=True,
            )
            outputs.add(result.stdout)
        assert len(outputs) == 1

    def test_loop_locals_fixture_prints_unchanged(self, capsys):
        # loop_locals.ir pins the printed IR of loop_locals.mc, including
        # the per-copy `.uN` numbering of its loop-body locals.
        assert main(["compile", str(FIXTURES / "loop_locals.mc")]) == 0
        expected = (FIXTURES / "loop_locals.ir").read_text()
        assert capsys.readouterr().out == expected

    def test_simple_loop_expands(self):
        stores = self.stores("""
        uint f(uint *a) {
          for (uint i = 0; i < 3; i = i + 1) { a[i] = i; }
          return 0;
        }
        """)
        assert stores == [(Const(n), Const(n)) for n in range(3)]

    def test_descending_loop(self):
        stores = self.stores("""
        uint f(uint *a) {
          for (uint i = 2; i >= 1; i = i - 1) { a[i] = 0; }
          return 0;
        }
        """)
        assert [index for index, _ in stores] == [Const(2), Const(1)]

    def test_nested_loops(self):
        stores = self.stores("""
        uint f(uint *a) {
          for (uint i = 0; i < 2; i = i + 1) {
            for (uint j = i; j < 2; j = j + 1) { a[i * 2 + j] = j; }
          }
          return 0;
        }
        """)
        # The counters read as literals, so the index arithmetic folds; the
        # inner loop's start depends on the outer counter.
        assert stores == [
            (Const(0), Const(0)), (Const(1), Const(1)), (Const(3), Const(1)),
        ]

    def test_zero_trip_loop(self):
        assert self.compiled("""
        uint f() {
          for (uint i = 5; i < 5; i = i + 1) { i = i; }
          return 0;
        }
        """) == []

    def test_per_iteration_locals_are_renamed(self):
        instructions = self.compiled("""
        uint f(uint *a) {
          for (uint i = 0; i < 2; i = i + 1) {
            uint t[1];
            uint u[1];
            t[0] = a[i];
          }
          return 0;
        }
        """)
        allocs = [i.dest for i in instructions if isinstance(i, Alloc)]
        # One fresh name per copy (t.u1, u.u2, t.u3, u.u4, in declaration
        # order), to which the builder appends its temporary counter.
        assert allocs == ["t.u10", "u.u21", "t.u33", "u.u44"]

    def test_static_if_folds(self):
        stores = self.stores("""
        uint f(uint *a) {
          for (uint i = 0; i < 3; i = i + 1) {
            if (i < 2) { a[i] = 1; } else { a[i] = 2; }
          }
          return 0;
        }
        """)
        assert [value for _, value in stores] == [Const(1), Const(1), Const(2)]

    def test_loop_after_return_is_not_unrolled(self):
        # Dead code is never compiled, so its loop is neither unrolled nor
        # checked: a dynamic bound there is no error.
        assert self.compiled("""
        uint f(uint n) {
          return n;
          for (uint i = 0; i < n; i = i + 1) { n = n + 1; }
        }
        """) == []

    def test_copies_after_a_return_are_dead(self):
        stores = self.stores("""
        uint f(uint *a) {
          for (uint i = 0; i < 3; i = i + 1) { a[i] = i; return i; }
          return 7;
        }
        """)
        assert stores == [(Const(0), Const(0))]

    def test_statement_budget_names_the_limit(self, monkeypatch):
        monkeypatch.setattr("repro.frontend.codegen.MAX_STATEMENTS", 8)
        source = """
        uint f(uint a) {
          for (uint i = 0; i < 4; i = i + 1) { a = a + 1; }
          return a;
        }
        """
        compile_source(source)  # five statements fit
        with pytest.raises(UnrollError, match="exceeded 8 statements"):
            compile_source(source.replace("i < 4", "i < 9"))

    def test_dynamic_bound_rejected(self):
        with pytest.raises(UnrollError, match="constant"):
            compile_source("""
            uint f(uint n) {
              for (uint i = 0; i < n; i = i + 1) { i = i; }
              return 0;
            }
            """)

    def test_zero_step_rejected(self):
        with pytest.raises(UnrollError, match="zero step"):
            compile_source("""
            uint f() {
              for (uint i = 0; i < 3; i = i + 0) { }
              return 0;
            }
            """)

    def test_counter_assignment_in_body_rejected(self):
        with pytest.raises(UnrollError, match="counter"):
            compile_source("""
            uint f() {
              for (uint i = 0; i < 3; i = i + 1) { i = 7; }
              return 0;
            }
            """)

    def test_trip_count_limit(self):
        with pytest.raises(UnrollError, match="iterations"):
            compile_source("""
            uint f() {
              for (uint i = 0; i < 100000; i = i + 1) { }
              return 0;
            }
            """)

    def test_shadowing_counter_rejected(self):
        with pytest.raises(UnrollError, match="shadows"):
            compile_source("""
            uint f() {
              for (uint i = 0; i < 2; i = i + 1) { uint i = 3; }
              return 0;
            }
            """)
