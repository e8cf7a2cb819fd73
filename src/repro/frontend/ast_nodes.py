"""Abstract syntax tree for MiniC."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union


# -- types ---------------------------------------------------------------------

#: Scalar types and their value masks (None = full machine word).
TYPE_MASKS: dict[str, Optional[int]] = {
    "uint": None,
    "int": None,
    "u32": 0xFFFF_FFFF,
    "u8": 0xFF,
}


def mask_of(type_name: str) -> Optional[int]:
    try:
        return TYPE_MASKS[type_name]
    except KeyError:
        raise ValueError(f"unknown type {type_name!r}") from None


def wider_type(a: str, b: str) -> str:
    """Result type of mixed arithmetic: the wider of the two operands."""
    order = {"u8": 0, "u32": 1, "int": 2, "uint": 2}
    return a if order[a] >= order[b] else b


# -- expressions ------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: int
    line: int = 0


@dataclass(frozen=True)
class Name:
    ident: str
    line: int = 0


@dataclass(frozen=True)
class Unary:
    op: str
    operand: "Expression"
    line: int = 0


@dataclass(frozen=True)
class Binary:
    op: str
    lhs: "Expression"
    rhs: "Expression"
    line: int = 0


@dataclass(frozen=True)
class Ternary:
    """``c ? t : f`` — compiled to a branch-free ``ctsel``."""

    cond: "Expression"
    if_true: "Expression"
    if_false: "Expression"
    line: int = 0


@dataclass(frozen=True)
class Index:
    array: str
    index: "Expression"
    line: int = 0


@dataclass(frozen=True)
class CallExpr:
    callee: str
    args: tuple["Expression", ...]
    line: int = 0


@dataclass(frozen=True)
class Cast:
    type_name: str
    operand: "Expression"
    line: int = 0


Expression = Union[Num, Name, Unary, Binary, Ternary, Index, CallExpr, Cast]


# -- statements -----------------------------------------------------------------

@dataclass(frozen=True)
class Decl:
    type_name: str
    name: str
    init: Optional[Expression]
    line: int = 0


@dataclass(frozen=True)
class ArrayDecl:
    elem_type: str
    name: str
    size: Expression  # must be a compile-time constant
    init: tuple[Expression, ...] = ()
    line: int = 0


@dataclass(frozen=True)
class Assign:
    name: str
    value: Expression
    line: int = 0


@dataclass(frozen=True)
class StoreStmt:
    array: str
    index: Expression
    value: Expression
    line: int = 0


@dataclass(frozen=True)
class If:
    cond: Expression
    then_body: tuple["Statement", ...]
    else_body: tuple["Statement", ...] = ()
    line: int = 0


@dataclass(frozen=True)
class For:
    """``for (var = init; var OP bound; var = var STEP_OP step) body``.

    Fully unrolled by code generation, which checks that the header is
    statically evaluable before it compiles the first copy of the body.
    """

    var: str
    init: Expression
    cond_op: str
    bound: Expression
    step_op: str
    step: Expression
    body: tuple["Statement", ...]
    line: int = 0


@dataclass(frozen=True)
class Return:
    value: Expression
    line: int = 0


@dataclass(frozen=True)
class ExprStmt:
    expr: Expression
    line: int = 0


Statement = Union[Decl, ArrayDecl, Assign, StoreStmt, If, For, Return, ExprStmt]


# -- top level --------------------------------------------------------------------

@dataclass(frozen=True)
class ParamDecl:
    type_name: str
    name: str
    is_pointer: bool
    secret: bool = False
    line: int = 0


@dataclass(frozen=True)
class FuncDef:
    return_type: str
    name: str
    params: tuple[ParamDecl, ...]
    body: tuple[Statement, ...]
    line: int = 0


@dataclass(frozen=True)
class GlobalDecl:
    elem_type: str
    name: str
    size: Expression
    init: tuple[Expression, ...] = ()
    const: bool = False
    line: int = 0


@dataclass
class Program:
    globals: list[GlobalDecl] = field(default_factory=list)
    functions: list[FuncDef] = field(default_factory=list)
