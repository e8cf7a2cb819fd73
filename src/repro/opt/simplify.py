"""The combined SSA simplification pass: one walk over the dominator tree.

Constant folding, algebraic identities, the ctsel rules, copy propagation
and common-subexpression elimination are one transfer function here
(Click and Cooper, "Combining Analyses, Combining Optimizations", TOPLAS
1995), so a single walk reaches the fixpoint the separate passes needed
several pipeline round trips for.

The walk visits the blocks in dominator-tree preorder, children in reverse
postorder, so every definition is seen before its uses (phi operands on
back edges excepted).  Each instruction

1. has its operands substituted through the *value map* (a definition the
   walk turned into a copy maps to the copied value);
2. is rewritten by the first rule that applies; a rewrite into a plain
   copy enters the value map, so later uses read the copied value;
3. if it is still a pure computation (``mov`` of an expression, ``ctsel``),
   is hash-consed into a dominator-scoped table: an identical computation
   that dominates it replaces it with a copy of the earlier result.

A phi operand on a back edge names a definition the walk has not reached
yet; its value is unknown during the walk (never substituted) and is
resolved through the value map after it.  Whether it holds 0 or 1 is read
off its definition as written, so a loop-carried flag stays boolean.

The rewritten copies stay in place for :mod:`repro.opt.dce` to delete.
Loads are never merged: two loads of the same address are distinct
memory-trace events, and preserving the access sequence is what the
repaired programs are about.

The boolean-aware identities (``b | 1 → 1``, ``b & 1 → b`` for a ``b``
known to be 0/1) collapse the repair pass's guard arithmetic when bounds
are statically known — the main reason optimised repaired code is so much
smaller than unoptimised repaired code in the paper's Figures 15/16.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.dominators import compute_dominators
from repro.ir.function import Function
from repro.ir.instructions import BinExpr, CtSel, Mov, Phi, Ret, UnaryExpr
from repro.ir.ops import BOOLEAN_OPS, eval_binop, eval_unop, wrap
from repro.ir.values import Const, Value, Var

_COMMUTATIVE = frozenset(("+", "*", "&", "|", "^", "==", "!="))
_ALL_ONES = Const(-1)
_ZERO = Const(0)
_ONE = Const(1)


def _is_bool(value: Value, booleans: set[str]) -> bool:
    if type(value) is Const:
        return value.value in (0, 1)
    return value.name in booleans


def _simplify_binexpr(
    op: str, lhs: Value, rhs: Value, booleans: set[str]
) -> "Optional[tuple[str, Value]]":
    """``(rule, value)`` equal to ``lhs op rhs``, or None when nothing applies."""
    lhs_const = type(lhs) is Const
    rhs_const = type(rhs) is Const
    if lhs_const and rhs_const:
        return "fold", Const(eval_binop(op, wrap(lhs.value), wrap(rhs.value)))

    if not lhs_const and not rhs_const:
        # Two variables — only the identical-operand identities can fire.
        if lhs.name != rhs.name:
            return None
        if op in ("-", "^", "!=", "<", ">"):
            return "algebraic", _ZERO
        if op in ("==", "<=", ">="):
            return "algebraic", _ONE
        if op in ("&", "|"):
            return "algebraic", lhs
        return None

    lv = lhs.value if lhs_const else None
    rv = rhs.value if rhs_const else None
    if op == "+":
        if lv == 0:
            return "algebraic", rhs
        if rv == 0:
            return "algebraic", lhs
    elif op == "-":
        if rv == 0:
            return "algebraic", lhs
    elif op == "*":
        if lv == 1:
            return "algebraic", rhs
        if rv == 1:
            return "algebraic", lhs
        if lv == 0 or rv == 0:
            return "algebraic", _ZERO
    elif op == "/":
        if rv == 1:
            return "algebraic", lhs
    elif op == "&":
        if lv == 0 or rv == 0:
            return "algebraic", _ZERO
        if lv == -1:
            return "algebraic", rhs
        if rv == -1:
            return "algebraic", lhs
        if rv == 1 and _is_bool(lhs, booleans):
            return "boolean", lhs
        if lv == 1 and _is_bool(rhs, booleans):
            return "boolean", rhs
    elif op == "|":
        if lv == 0:
            return "algebraic", rhs
        if rv == 0:
            return "algebraic", lhs
        if (lv == 1 and _is_bool(rhs, booleans)) or (
            rv == 1 and _is_bool(lhs, booleans)
        ):
            return "boolean", _ONE
        if lv == -1 or rv == -1:
            return "algebraic", _ALL_ONES
    elif op == "^":
        if lv == 0:
            return "algebraic", rhs
        if rv == 0:
            return "algebraic", lhs
    elif op in ("<<", ">>"):
        if rv == 0:
            return "algebraic", lhs
    return None


def _simplify_expr(expr, booleans: set[str]) -> "Optional[tuple[str, Value]]":
    """``(rule, value)`` for a foldable or simplifiable expression, or None."""
    if type(expr) is BinExpr:
        return _simplify_binexpr(expr.op, expr.lhs, expr.rhs, booleans)
    if type(expr) is UnaryExpr and type(expr.operand) is Const:
        return "fold", Const(eval_unop(expr.op, wrap(expr.operand.value)))
    return None


def _simplify_ctsel(instr: CtSel, booleans: set[str]) -> "Optional[tuple[str, Mov]]":
    """``(rule, mov)`` replacing a select, or None when nothing applies."""
    cond, if_true, if_false = instr.cond, instr.if_true, instr.if_false
    if type(cond) is Const:
        return "ctsel", Mov(instr.dest, if_true if cond.value != 0 else if_false)
    if if_true == if_false:
        return "ctsel", Mov(instr.dest, if_true)
    if cond.name in booleans and type(if_true) is Const and type(if_false) is Const:
        if if_true.value == 1 and if_false.value == 0:
            return "boolean", Mov(instr.dest, cond)
        if if_true.value == 0 and if_false.value == 1:
            return "boolean", Mov(instr.dest, UnaryExpr("!", cond))
    return None


def _rep(value):
    """A primitive stand-in for a value: Const -> int, Var -> name.

    ints and strs never compare equal, so the two kinds cannot collide in
    the availability table, and hashing primitives is much cheaper than
    hashing the dataclass values themselves.
    """
    return value.value if type(value) is Const else value.name


def _operand_order(rep) -> tuple:
    """A cheap total order over reps (Const before Var, then by payload)."""
    return (1, rep) if type(rep) is str else (0, rep)


def _key(instr) -> tuple:
    """The hash-consing key of a pure computation (an expression ``mov``
    or a ``ctsel``)."""
    if type(instr) is CtSel:
        # guard is part of the key: merging a guard select into an ordinary
        # one (or vice versa) would change how the taint channels treat it.
        return (
            "sel", instr.guard, _rep(instr.cond), _rep(instr.if_true),
            _rep(instr.if_false),
        )
    expr = instr.expr
    if type(expr) is UnaryExpr:
        return ("un", expr.op, _rep(expr.operand))
    lhs, rhs = _rep(expr.lhs), _rep(expr.rhs)
    if expr.op in _COMMUTATIVE and _operand_order(rhs) < _operand_order(lhs):
        lhs, rhs = rhs, lhs
    return ("bin", expr.op, lhs, rhs)


def _defines_boolean(instr, holds) -> bool:
    """True when ``instr`` yields 0 or 1, given ``holds(value)``: whether an
    operand is known to."""
    kind = type(instr)
    if kind is Mov:
        expr = instr.expr
        if type(expr) is BinExpr:
            if expr.op in BOOLEAN_OPS:
                return True
            return expr.op in ("&", "|", "^") and holds(expr.lhs) and holds(
                expr.rhs
            )
        if type(expr) is UnaryExpr:
            return expr.op == "!"
        return holds(expr)
    if kind is CtSel:
        return holds(instr.if_true) and holds(instr.if_false)
    if kind is Phi:
        return all(holds(value) for value, _ in instr.incomings)
    return False


def simplify_ssa(function: Function, rules: "Optional[dict]" = None) -> bool:
    """One simplification walk over ``function``, in place.

    Returns True when any instruction or terminator was rewritten.
    ``rules``, when given, accumulates the number of rewrites per rule:
    ``fold`` (constant operands), ``algebraic`` (identities), ``boolean``
    (identities that need a 0/1 operand), ``ctsel`` (constant condition
    or equal arms), ``copy`` (operands substituted through the value map)
    and ``cse`` (a dominating identical computation reused).
    """
    children = compute_dominators(function).children()
    values: dict[str, Value] = {}  # the value map: copy dest -> its value
    booleans: set[str] = set()  # names known to hold 0 or 1
    available: dict[tuple, str] = {}  # hash-cons key -> dominating dest
    counts: dict[str, int] = {}
    phi_blocks = []
    visited: set[str] = set()  # blocks the walk has left
    written = None  # see written_booleans

    def count(rule: str) -> None:
        counts[rule] = counts.get(rule, 0) + 1

    def is_bool(value) -> bool:
        return value.value in (0, 1) if type(value) is Const else (
            value.name in booleans
        )

    def written_booleans() -> set:
        """Names that hold 0 or 1 by their definitions as they stand: the
        least fixpoint of the boolean rules over the whole function, for
        back-edge phi operands, which the walk reaches after their phi.
        Computed at the first back edge; rewrites keep values, so it stays
        true for the rest of the walk."""
        nonlocal written
        if written is None:
            written = set(booleans)

            def holds(value) -> bool:
                return _is_bool(value, written)

            changed = True
            while changed:
                changed = False
                for block in function.blocks.values():
                    for instr in block.instructions:
                        dest = instr.dest
                        if dest is not None and dest not in written \
                                and _defines_boolean(instr, holds):
                            written.add(dest)
                            changed = True
        return written

    # Iterative preorder; a ``None`` entry closes the scope pushed by the
    # block visited before it, so the table only holds dominating entries.
    stack: list = [function.entry.label]
    scopes: list[list[tuple]] = []
    while stack:
        label = stack.pop()
        if label is None:
            for key in scopes.pop():
                del available[key]
            continue
        block = function.blocks[label]
        instructions = block.instructions
        scope: list[tuple] = []
        for index, instr in enumerate(instructions):
            rewritten = False
            if values and not values.keys().isdisjoint(instr.used_vars()):
                instr = instr.replace_uses(values)
                rewritten = True
                count("copy")
            kind = type(instr)
            if kind is Phi:
                if not phi_blocks or phi_blocks[-1] is not block:
                    phi_blocks.append(block)
            elif kind is CtSel:
                hit = _simplify_ctsel(instr, booleans)
                if hit is not None:
                    rule, instr = hit
                    rewritten = True
                    count(rule)
                    kind = type(instr)
            if kind is Mov:
                expr = instr.expr
                if type(expr) is BinExpr or type(expr) is UnaryExpr:
                    hit = _simplify_expr(expr, booleans)
                    if hit is not None:
                        rule, expr = hit
                        instr = Mov(instr.dest, expr)
                        rewritten = True
                        count(rule)
                if type(expr) is Const or type(expr) is Var:
                    # A copy: its uses read ``expr`` instead (a self-copy,
                    # impossible in valid SSA, maps to nothing).
                    if type(expr) is Const or expr.name != instr.dest:
                        values[instr.dest] = expr
                    kind = None
            if kind is Mov or kind is CtSel:
                key = _key(instr)
                earlier = available.get(key)
                if earlier is None:
                    available[key] = instr.dest
                    scope.append(key)
                    if _defines_boolean(instr, is_bool):
                        booleans.add(instr.dest)
                else:
                    instr = Mov(instr.dest, Var(earlier))
                    values[instr.dest] = instr.expr
                    rewritten = True
                    count("cse")
            elif kind is Phi and all(
                is_bool(value) or (
                    pred not in visited and type(value) is Var
                    and value.name in written_booleans()
                )
                for value, pred in instr.incomings
            ):
                booleans.add(instr.dest)
            if rewritten:
                instructions[index] = instr

        terminator = block.terminator
        if terminator is not None:
            if values and not values.keys().isdisjoint(terminator.used_vars()):
                terminator = terminator.replace_uses(values)
                count("copy")
            if type(terminator) is Ret:
                hit = _simplify_expr(terminator.expr, booleans)
                if hit is not None:
                    rule, value = hit
                    terminator = Ret(value)
                    count(rule)
            block.terminator = terminator

        visited.add(label)
        scopes.append(scope)
        stack.append(None)
        stack.extend(reversed(children.get(label, ())))

    # Back-edge phi operands name definitions visited after their phi.
    for block in phi_blocks:
        for index, instr in enumerate(block.instructions):
            if type(instr) is Phi and not values.keys().isdisjoint(
                instr.used_vars()
            ):
                block.instructions[index] = instr.replace_uses(values)
                count("copy")

    if rules is not None:
        for rule, n in counts.items():
            rules[rule] = rules.get(rule, 0) + n
    return bool(counts)
