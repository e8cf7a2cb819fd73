"""Textual IR parser and printer."""

import pytest

from repro.ir import (
    Const,
    IRSyntaxError,
    UnaryExpr,
    Var,
    module_to_str,
    parse_function,
    parse_module,
)
from repro.ir.instructions import BinExpr, Mov


def roundtrip(text: str) -> None:
    module = parse_module(text)
    printed = module_to_str(module)
    assert module_to_str(parse_module(printed)) == printed


class TestRoundTrips:
    def test_minimal_function(self):
        roundtrip("func @f() { entry: ret 0 }")

    def test_all_instructions(self):
        roundtrip("""
        const global @tab[4] = [1, 2, 3, 4]
        global @buf[8]
        func @f(a: ptr, n: int) {
        entry:
          t = alloc 4
          x = mov n + 1
          y = load a[x]
          store y, t[0]
          s = ctsel x, y, 0
          c = call @g(a, s)
          br c, then, done
        then:
          jmp done
        done:
          p = phi [s, entry], [c, then]
          ret p
        }
        func @g(a: ptr, v: int) {
        entry:
          ret v
        }
        """)

    def test_guard_select_round_trips(self):
        # The repair pass's guard marker must survive the text round-trip
        # (the artifact cache stores repaired modules as IR text).
        function = parse_function("""
        func @f(a: ptr, i: int, c: int) {
        entry:
          s = ctsel c, i, 0, guard
          t = ctsel c, i, 0
          ret s
        }
        """)
        guarded, plain = function.entry.instructions
        assert guarded.guard and not plain.guard
        assert str(guarded).endswith(", guard")
        roundtrip("""
        func @f(a: ptr, i: int, c: int) {
        entry:
          s = ctsel c, i, 0, guard
          ret s
        }
        """)

    def test_negative_literals(self):
        module = parse_function("func @f() { entry: x = mov -5 ret x }")
        instr = module.entry.instructions[0]
        assert instr == Mov("x", Const(-5))

    def test_unary_minus_on_variable(self):
        function = parse_function(
            "func @f(v: int) { entry: x = mov - v ret x }"
        )
        assert function.entry.instructions[0] == Mov("x", UnaryExpr("-", Var("v")))

    def test_subtraction_not_negative_literal(self):
        function = parse_function(
            "func @f(v: int) { entry: x = mov v -5 ret x }"
        )
        assert function.entry.instructions[0] == Mov(
            "x", BinExpr("-", Var("v"), Const(5))
        )

    def test_comments_ignored(self):
        roundtrip("""
        ; leading comment
        func @f() {  # trailing comment style
        entry:
          ret 0   ; done
        }
        """)

    @pytest.mark.parametrize("text, expr", [
        ("x = mov a-3 ret x", BinExpr("-", Var("a"), Const(3))),
        ("x = mov -a ret x", UnaryExpr("-", Var("a"))),
        ("x = mov a - -3 ret x", BinExpr("-", Var("a"), Const(-3))),
        ("ret -1", Const(-1)),
    ])
    def test_minus_shapes(self, text, expr):
        function = parse_function(f"func @f(a: int) {{ entry: {text} }}")
        block = function.entry
        got = block.instructions[0].expr if block.instructions \
            else block.terminator.expr
        assert got == expr

    def test_several_statements_and_free_whitespace(self):
        function = parse_function(
            "func @f(a:\tint){entry:x=mov a+1  ;\n"
            "  y = load  a [ x ]\tstore y,a[0] jmp\tdone done: ret y}  # end"
        )
        assert str(function) == (
            "func @f(a: int) {\nentry:\n  x = mov a + 1\n  y = load a[x]\n"
            "  store y, a[0]\n  jmp done\ndone:\n  ret y\n}"
        )

    def test_all_binary_operators(self):
        for op in ("+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
                   "==", "!=", "<", "<=", ">", ">="):
            function = parse_function(
                f"func @f(a: int, b: int) {{ entry: x = mov a {op} b ret x }}"
            )
            assert function.entry.instructions[0] == Mov(
                "x", BinExpr(op, Var("a"), Var("b"))
            )


class TestErrors:
    def test_missing_terminator(self):
        with pytest.raises(IRSyntaxError):
            parse_module("func @f() { entry: x = mov 1 }")

    def test_unknown_instruction(self):
        with pytest.raises(IRSyntaxError):
            parse_module("func @f() { entry: x = frobnicate 1 ret x }")

    def test_duplicate_global(self):
        with pytest.raises(ValueError):
            parse_module("global @g[1] global @g[1]")

    @pytest.mark.parametrize("text, line", [
        ("global @g[1] global @g[1]", 1),
        ("global @g[1]\n\nglobal @g[2]", 3),
        ("global @g[1] = [1, 2]", 1),
        ("func @f() {\nentry:\n  jmp entry\nentry:\n  ret 0\n}", 4),
        ("func @f() { entry: ret 0 }\nfunc @f() { entry: ret 1 }", 2),
        ("func @f() {\nentry:\n  x = mov " + "9" * 4301 + "\n  ret x\n}",
         3),
    ], ids=["duplicate-global", "duplicate-global-later", "long-initializer",
            "duplicate-label", "duplicate-function", "long-literal"])
    def test_invalid_declaration_names_its_line(self, text, line):
        with pytest.raises(IRSyntaxError) as excinfo:
            parse_module(text)
        assert excinfo.value.line == line

    def test_statement_may_not_span_lines(self):
        with pytest.raises(IRSyntaxError) as excinfo:
            parse_module("func @f(a: int) {\nentry:\n  x =\n  mov a\n"
                         "  ret x\n}")
        assert excinfo.value.line == 3

    def test_unclosed_function_names_its_last_line(self):
        with pytest.raises(IRSyntaxError) as excinfo:
            parse_module("func @f() {\nentry:\n  ret 0\n\n; trailing\n")
        assert excinfo.value.line == 3

    def test_bad_param_kind(self):
        with pytest.raises(IRSyntaxError):
            parse_module("func @f(a: float) { entry: ret 0 }")

    def test_unexpected_character(self):
        with pytest.raises(IRSyntaxError):
            parse_module("func @f() { entry: ret $ }")

    def test_error_carries_line_number(self):
        with pytest.raises(IRSyntaxError) as excinfo:
            parse_module("func @f() {\nentry:\n  x = bogus 1\n  ret 0\n}")
        assert excinfo.value.line == 3

    def test_parse_function_rejects_multiple(self):
        with pytest.raises(ValueError):
            parse_function(
                "func @f() { entry: ret 0 } func @g() { entry: ret 0 }"
            )


class TestStatementTable:
    """``parse_module(..., statements=table)`` reuses statements by line."""

    FIRST = "func @f(a: int) {\nentry:\n  x = mov a + 1\n  ret x\n}\n"

    def _table(self) -> dict:
        table: dict = {}
        parse_module(self.FIRST, statements=table)
        return table

    def test_only_body_statements_are_memoised(self):
        table = self._table()
        assert set(table) == {"  x = mov a + 1", "  ret x"}

    def test_a_later_text_shares_the_statement_objects(self):
        table = self._table()
        text = ("func @g(a: int, b: int) {\nentry:\n  x = mov a + 1\n"
                "  y = mov x * b\n  ret x\n}\n")
        module = parse_module(text, statements=table)
        block = module.function("g").entry
        assert block.instructions[0] is table["  x = mov a + 1"]
        assert block.terminator is table["  ret x"]
        assert block.instructions[1] is table["  y = mov x * b"]
        assert module_to_str(module) == module_to_str(parse_module(text))

    @pytest.mark.parametrize("text, line", [
        ("func @f(a: int) {\nentry:\n  ret x\n  x = mov a + 1\n}\n", 4),
        ("func @f(a: int) {\nentry:\n  ret x\n  ret x\n}\n", 4),
        ("func @f(a: int) {\n  x = mov a + 1\nentry:\n  ret x\n}\n", 2),
        ("  x = mov a + 1\n", 1),
    ], ids=["after-terminator", "terminator-twice", "before-label",
            "outside-function"])
    def test_memoised_line_outside_a_block_is_an_error(self, text, line):
        with pytest.raises(IRSyntaxError) as plain:
            parse_module(text)
        with pytest.raises(IRSyntaxError) as shared:
            parse_module(text, statements=self._table())
        assert shared.value.line == plain.value.line == line
        assert str(shared.value) == str(plain.value)
