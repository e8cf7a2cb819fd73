"""What full loop unrolling shares: its limits, constant evaluation and the
trip walk.

The repair transformation requires cycle-free programs (paper Section
III-A): loops must have compile-time trip counts and be fully unrolled.
MiniC unrolls during code generation (:mod:`repro.frontend.codegen`),
compiling the body once per trip with the literal counter value in place
of the counter — so array indices that depend only on loop counters are
constants, which is what lets the data-consistency classifier and the
optimiser do their jobs (mirroring what LLVM's unroller plus SCCP achieve
in the authors' pipeline).  The IR unroller
(:mod:`repro.transforms.unroll_ir`) walks its trips with the same
:func:`trip_values` and limit.

Loops whose bounds cannot be evaluated statically are rejected with a clear
error; per the paper, repairing a program whose trip count depends on a
secret is not even a well-defined problem.
"""

from __future__ import annotations

import operator
from types import MappingProxyType
from typing import Callable, Mapping, Union

from repro.frontend import ast_nodes as ast
from repro.ir.ops import eval_binop, eval_unop, wrap


class UnrollError(ValueError):
    """A loop that cannot be statically unrolled."""


#: Upper bound on a single loop's trip count; beyond this the program is
#: almost certainly wrong (or adversarial), not cryptographic.
MAX_TRIP_COUNT = 1 << 16

#: Upper bound on total statements emitted per function.
MAX_STATEMENTS = 1 << 20

#: While unrolling, a name maps to a literal value (a loop counter) or to a
#: new name (a per-iteration local declaration, alpha-renamed).
Substitution = Mapping[str, Union[int, str]]

_NO_NAMES: Substitution = MappingProxyType({})

_COMPARE = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "!=": operator.ne,
    "==": operator.eq,
}


def const_eval(expr: ast.Expression, names: Substitution = _NO_NAMES) -> int:
    """Evaluate a compile-time-constant expression (word semantics).

    A name is constant only when ``names`` maps it to a value (an enclosing
    loop counter).
    """
    if isinstance(expr, ast.Num):
        return wrap(expr.value)
    if isinstance(expr, ast.Unary):
        return eval_unop(expr.op, const_eval(expr.operand, names))
    if isinstance(expr, ast.Binary):
        if expr.op == "&&":
            return int(const_eval(expr.lhs, names) != 0
                       and const_eval(expr.rhs, names) != 0)
        if expr.op == "||":
            return int(const_eval(expr.lhs, names) != 0
                       or const_eval(expr.rhs, names) != 0)
        return eval_binop(
            expr.op, const_eval(expr.lhs, names), const_eval(expr.rhs, names)
        )
    if isinstance(expr, ast.Ternary):
        return (
            const_eval(expr.if_true, names)
            if const_eval(expr.cond, names) != 0
            else const_eval(expr.if_false, names)
        )
    if isinstance(expr, ast.Cast):
        mask = ast.mask_of(expr.type_name)
        value = const_eval(expr.operand, names)
        return value & mask if mask is not None else value
    if isinstance(expr, ast.Name):
        value = names.get(expr.ident, expr.ident)
        if isinstance(value, int):
            return value
        raise UnrollError(
            f"line {expr.line}: '{value}' is not a compile-time constant "
            "(loop bounds and array sizes must be static)"
        )
    raise UnrollError(f"expression {expr!r} is not a compile-time constant")


def trip_values(
    counter: int,
    op: str,
    bound: int,
    step: int,
    too_many: Callable[[], Exception],
    negate: bool = False,
) -> list[int]:
    """The counter's value in each trip of a counted loop.

    The loop runs while ``counter op bound`` holds (fails, with ``negate``)
    and adds the signed ``step`` with word wrap-around after each trip.
    Raises ``too_many()`` when the loop would run more than
    :data:`MAX_TRIP_COUNT` times.
    """
    compare = _COMPARE[op]
    values: list[int] = []
    while compare(counter, bound) != negate:
        if len(values) == MAX_TRIP_COUNT:
            raise too_many()
        values.append(counter)
        counter = wrap(counter + step)
    return values


def unroll_program(program: ast.Program) -> ast.Program:
    """Never called: code generation unrolls loops, but
    ``perfbench/layers.py`` still hooks this name when it times the
    ``frontend.unroll`` layer.  Delete it together with that hook."""
    raise NotImplementedError("code generation unrolls MiniC loops")
