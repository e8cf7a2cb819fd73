"""MiniC lexer, parser, and unroller."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.frontend import (
    MiniCSyntaxError,
    UnrollError,
    compile_source,
    parse_source,
    tokenize,
    unroll_program,
)
from repro.frontend import ast_nodes as ast


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
    def unrolled(self, text: str):
        return unroll_program(parse_source(text)).functions[0].body

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

    def test_simple_loop_expands(self):
        body = self.unrolled("""
        uint f(uint *a) {
          for (uint i = 0; i < 3; i = i + 1) { a[i] = i; }
          return 0;
        }
        """)
        stores = [s for s in body if isinstance(s, ast.StoreStmt)]
        assert [s.index.value for s in stores] == [0, 1, 2]
        assert [s.value.value for s in stores] == [0, 1, 2]

    def test_descending_loop(self):
        body = self.unrolled("""
        uint f(uint *a) {
          for (uint i = 2; i >= 1; i = i - 1) { a[i] = 0; }
          return 0;
        }
        """)
        stores = [s for s in body if isinstance(s, ast.StoreStmt)]
        assert [s.index.value for s in stores] == [2, 1]

    def test_nested_loops(self):
        body = self.unrolled("""
        uint f(uint *a) {
          for (uint i = 0; i < 2; i = i + 1) {
            for (uint j = 0; j < 2; j = j + 1) { a[i * 2 + j] = 0; }
          }
          return 0;
        }
        """)
        stores = [s for s in body if isinstance(s, ast.StoreStmt)]
        # Indices fold to constants at codegen; here still expressions with
        # the counters substituted.
        assert len(stores) == 4

    def test_zero_trip_loop(self):
        body = self.unrolled("""
        uint f() {
          for (uint i = 5; i < 5; i = i + 1) { i = i; }
          return 0;
        }
        """)
        assert len(body) == 1  # only the return

    def test_per_iteration_locals_are_renamed(self):
        body = self.unrolled("""
        uint f(uint *a) {
          for (uint i = 0; i < 2; i = i + 1) {
            uint t = a[i];
            a[i] = t + 1;
          }
          return 0;
        }
        """)
        decls = [s.name for s in body if isinstance(s, ast.Decl)]
        assert len(decls) == 2
        assert len(set(decls)) == 2  # distinct names per iteration

    def test_static_if_folds(self):
        body = self.unrolled("""
        uint f(uint *a) {
          for (uint i = 0; i < 3; i = i + 1) {
            if (i < 2) { a[i] = 1; } else { a[i] = 2; }
          }
          return 0;
        }
        """)
        stores = [s for s in body if isinstance(s, ast.StoreStmt)]
        assert [s.value.value for s in stores] == [1, 1, 2]
        assert not any(isinstance(s, ast.If) for s in body)

    def test_dynamic_bound_rejected(self):
        with pytest.raises(UnrollError, match="constant"):
            unroll_program(parse_source("""
            uint f(uint n) {
              for (uint i = 0; i < n; i = i + 1) { i = i; }
              return 0;
            }
            """))

    def test_zero_step_rejected(self):
        with pytest.raises(UnrollError, match="zero step"):
            unroll_program(parse_source("""
            uint f() {
              for (uint i = 0; i < 3; i = i + 0) { }
              return 0;
            }
            """))

    def test_counter_assignment_in_body_rejected(self):
        with pytest.raises(UnrollError, match="counter"):
            unroll_program(parse_source("""
            uint f() {
              for (uint i = 0; i < 3; i = i + 1) { i = 7; }
              return 0;
            }
            """))

    def test_trip_count_limit(self):
        with pytest.raises(UnrollError, match="iterations"):
            unroll_program(parse_source("""
            uint f() {
              for (uint i = 0; i < 100000; i = i + 1) { }
              return 0;
            }
            """))

    def test_shadowing_counter_rejected(self):
        with pytest.raises(UnrollError, match="shadows"):
            unroll_program(parse_source("""
            uint f() {
              for (uint i = 0; i < 2; i = i + 1) { uint i = 3; }
              return 0;
            }
            """))
