"""AST-level full loop unrolling.

The repair transformation requires cycle-free programs (paper Section
III-A): loops must have compile-time trip counts and be fully unrolled.
MiniC unrolls at the AST level, substituting the literal counter value into
each copy of the body — so after unrolling, array indices that depend only
on loop counters are constants, which is what lets the data-consistency
classifier and the optimiser do their jobs (mirroring what LLVM's unroller
plus SCCP achieve in the authors' pipeline).

Loops whose bounds cannot be evaluated statically are rejected with a clear
error; per the paper, repairing a program whose trip count depends on a
secret is not even a well-defined problem.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Union

from repro.frontend import ast_nodes as ast
from repro.ir.ops import eval_binop, eval_unop, wrap


class UnrollError(ValueError):
    """A loop that cannot be statically unrolled."""


#: Upper bound on a single loop's trip count; beyond this the program is
#: almost certainly wrong (or adversarial), not cryptographic.
MAX_TRIP_COUNT = 1 << 16

#: Upper bound on total statements emitted per function.
MAX_STATEMENTS = 1 << 20


def const_eval(expr: ast.Expression) -> int:
    """Evaluate a compile-time-constant expression (word semantics)."""
    if isinstance(expr, ast.Num):
        return wrap(expr.value)
    if isinstance(expr, ast.Unary):
        return eval_unop(expr.op, const_eval(expr.operand))
    if isinstance(expr, ast.Binary):
        if expr.op == "&&":
            return int(const_eval(expr.lhs) != 0 and const_eval(expr.rhs) != 0)
        if expr.op == "||":
            return int(const_eval(expr.lhs) != 0 or const_eval(expr.rhs) != 0)
        return eval_binop(expr.op, const_eval(expr.lhs), const_eval(expr.rhs))
    if isinstance(expr, ast.Ternary):
        return (
            const_eval(expr.if_true)
            if const_eval(expr.cond) != 0
            else const_eval(expr.if_false)
        )
    if isinstance(expr, ast.Cast):
        from repro.frontend.ast_nodes import mask_of

        mask = mask_of(expr.type_name)
        value = const_eval(expr.operand)
        return value & mask if mask is not None else value
    if isinstance(expr, ast.Name):
        raise UnrollError(
            f"line {expr.line}: '{expr.ident}' is not a compile-time constant "
            "(loop bounds and array sizes must be static)"
        )
    raise UnrollError(f"expression {expr!r} is not a compile-time constant")


#: A substitution maps a name to a literal value (loop counters) or to a new
#: name (alpha-renaming of per-iteration local declarations).
Substitution = Mapping[str, Union[int, str]]


def substitute(expr: ast.Expression, mapping: Substitution) -> ast.Expression:
    """Replace names per the substitution (counters → literals, renames)."""
    if isinstance(expr, ast.Name):
        target = mapping.get(expr.ident)
        if isinstance(target, int):
            return ast.Num(target, expr.line)
        if isinstance(target, str):
            return ast.Name(target, expr.line)
        return expr
    if isinstance(expr, ast.Num):
        return expr
    if isinstance(expr, ast.Unary):
        return replace(expr, operand=substitute(expr.operand, mapping))
    if isinstance(expr, ast.Binary):
        return replace(
            expr,
            lhs=substitute(expr.lhs, mapping),
            rhs=substitute(expr.rhs, mapping),
        )
    if isinstance(expr, ast.Ternary):
        return replace(
            expr,
            cond=substitute(expr.cond, mapping),
            if_true=substitute(expr.if_true, mapping),
            if_false=substitute(expr.if_false, mapping),
        )
    if isinstance(expr, ast.Index):
        return replace(
            expr,
            array=_rename(expr.array, mapping),
            index=substitute(expr.index, mapping),
        )
    if isinstance(expr, ast.CallExpr):
        return replace(
            expr, args=tuple(substitute(a, mapping) for a in expr.args)
        )
    if isinstance(expr, ast.Cast):
        return replace(expr, operand=substitute(expr.operand, mapping))
    raise TypeError(f"unknown expression {expr!r}")


def _rename(name: str, mapping: Substitution) -> str:
    target = mapping.get(name)
    if isinstance(target, str):
        return target
    if isinstance(target, int):
        raise UnrollError(
            f"loop counter '{name}' used where a variable name is required"
        )
    return name


def _declared_names(statements: tuple[ast.Statement, ...]) -> dict[str, None]:
    """Names declared anywhere in a statement list, in declaration order."""
    declared: dict[str, None] = {}
    for statement in statements:
        if isinstance(statement, (ast.Decl, ast.ArrayDecl)):
            declared[statement.name] = None
        elif isinstance(statement, ast.If):
            declared |= _declared_names(statement.then_body)
            declared |= _declared_names(statement.else_body)
        elif isinstance(statement, ast.For):
            declared |= _declared_names(statement.body)
    return declared


class _Unroller:
    def __init__(self) -> None:
        self.emitted = 0
        self._rename_counter = 0

    def unroll_body(
        self,
        statements: tuple[ast.Statement, ...],
        mapping: Mapping[str, int],
    ) -> list[ast.Statement]:
        result: list[ast.Statement] = []
        for statement in statements:
            result.extend(self._unroll_statement(statement, mapping))
        return result

    def _emit(self, statement: ast.Statement) -> list[ast.Statement]:
        self.emitted += 1
        if self.emitted > MAX_STATEMENTS:
            raise UnrollError(
                f"unrolling exceeded {MAX_STATEMENTS} statements; "
                "the loop structure is too large to isochronify"
            )
        return [statement]

    def _unroll_statement(
        self, statement: ast.Statement, mapping: Mapping[str, int]
    ) -> list[ast.Statement]:
        if isinstance(statement, ast.For):
            return self._unroll_for(statement, mapping)
        if isinstance(statement, ast.If):
            cond = substitute(statement.cond, mapping)
            try:
                taken = const_eval(cond) != 0
            except UnrollError:
                then_body = self.unroll_body(statement.then_body, mapping)
                else_body = self.unroll_body(statement.else_body, mapping)
                return self._emit(
                    ast.If(cond, tuple(then_body), tuple(else_body), statement.line)
                )
            # Statically-decided conditionals (common at unrolled loop edges,
            # e.g. the min() guards of the paper's Fig. 2) fold away.
            branch = statement.then_body if taken else statement.else_body
            return self.unroll_body(branch, mapping)
        if isinstance(statement, ast.Decl):
            if isinstance(mapping.get(statement.name), int):
                raise UnrollError(
                    f"line {statement.line}: declaration of '{statement.name}' "
                    "shadows an enclosing loop counter"
                )
            init = (
                substitute(statement.init, mapping)
                if statement.init is not None
                else None
            )
            return self._emit(
                replace(statement, name=_rename(statement.name, mapping),
                        init=init)
            )
        if isinstance(statement, ast.ArrayDecl):
            return self._emit(
                replace(
                    statement,
                    name=_rename(statement.name, mapping),
                    size=substitute(statement.size, mapping),
                    init=tuple(substitute(v, mapping) for v in statement.init),
                )
            )
        if isinstance(statement, ast.Assign):
            if isinstance(mapping.get(statement.name), int):
                raise UnrollError(
                    f"line {statement.line}: assignment to loop counter "
                    f"'{statement.name}' inside the loop body"
                )
            return self._emit(
                replace(statement, name=_rename(statement.name, mapping),
                        value=substitute(statement.value, mapping))
            )
        if isinstance(statement, ast.StoreStmt):
            return self._emit(
                replace(
                    statement,
                    array=_rename(statement.array, mapping),
                    index=substitute(statement.index, mapping),
                    value=substitute(statement.value, mapping),
                )
            )
        if isinstance(statement, ast.Return):
            return self._emit(
                replace(statement, value=substitute(statement.value, mapping))
            )
        if isinstance(statement, ast.ExprStmt):
            return self._emit(
                replace(statement, expr=substitute(statement.expr, mapping))
            )
        raise TypeError(f"unknown statement {statement!r}")

    def _unroll_for(
        self, loop: ast.For, mapping: Mapping[str, int]
    ) -> list[ast.Statement]:
        try:
            counter = const_eval(substitute(loop.init, mapping))
            bound = const_eval(substitute(loop.bound, mapping))
            step = const_eval(substitute(loop.step, mapping))
        except UnrollError as error:
            raise UnrollError(
                f"line {loop.line}: cannot unroll loop over '{loop.var}': {error}"
            ) from None
        if step == 0:
            raise UnrollError(
                f"line {loop.line}: loop over '{loop.var}' has a zero step"
            )

        compare = {
            "<": lambda a, b: a < b,
            "<=": lambda a, b: a <= b,
            ">": lambda a, b: a > b,
            ">=": lambda a, b: a >= b,
            "!=": lambda a, b: a != b,
        }[loop.cond_op]

        # Locals declared in the body are fresh in every iteration (C block
        # scope): alpha-rename them per copy so SSA construction stays exact.
        body_locals = _declared_names(loop.body)
        if loop.var in body_locals:
            raise UnrollError(
                f"line {loop.line}: declaration of '{loop.var}' shadows the "
                "loop counter"
            )

        result: list[ast.Statement] = []
        trips = 0
        while compare(counter, bound):
            trips += 1
            if trips > MAX_TRIP_COUNT:
                raise UnrollError(
                    f"line {loop.line}: loop over '{loop.var}' exceeds "
                    f"{MAX_TRIP_COUNT} iterations"
                )
            iteration_mapping: dict[str, "int | str"] = dict(mapping)
            iteration_mapping[loop.var] = counter
            for local in body_locals:
                self._rename_counter += 1
                iteration_mapping[local] = f"{local}.u{self._rename_counter}"
            result.extend(self.unroll_body(loop.body, iteration_mapping))
            counter = wrap(counter + step if loop.step_op == "+" else counter - step)
        return result


def unroll_function(function: ast.FuncDef) -> ast.FuncDef:
    """Return a copy of the function with every loop fully unrolled."""
    unroller = _Unroller()
    body = unroller.unroll_body(function.body, {})
    return replace(function, body=tuple(body))


def unroll_program(program: ast.Program) -> ast.Program:
    result = ast.Program(globals=list(program.globals))
    result.functions = [unroll_function(f) for f in program.functions]
    return result
