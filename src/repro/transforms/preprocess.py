"""Preprocessing pipeline (paper Section III-A).

The repair rules are defined on programs that (1) are in SSA form, (2) have
a single return point, (3) are cycle-free, and (4) are well-formed.  The
MiniC front end already produces SSA and unrolls loops; this pipeline
enforces and completes the remaining obligations on arbitrary IR input.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.cfg import is_acyclic, remove_unreachable_blocks
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.validate import validate_function
from repro.transforms.single_return import ensure_single_return


class PreprocessError(ValueError):
    """The program cannot be brought into repairable shape."""


@dataclass
class PreprocessReport:
    """What the pipeline did to each function."""

    unreachable_blocks_removed: int = 0
    returns_merged: int = 0


def preprocess_function(function: Function, module: Module) -> PreprocessReport:
    """Canonicalise one function in place.

    Raises :class:`PreprocessError` if the function still contains a loop —
    per the paper, isochronification of programs with secret-bounded loops is
    not even well-defined, so loops must have been unrolled beforehand.
    """
    report = PreprocessReport()
    report.unreachable_blocks_removed = remove_unreachable_blocks(function)
    if not is_acyclic(function):
        raise PreprocessError(
            f"@{function.name} contains a loop; unroll it before repair "
            "(paper Section III-A: maximum trip counts must be static)"
        )
    if ensure_single_return(function):
        report.returns_merged = 1
    validate_function(function, module)
    return report


def preprocess_module(module: Module) -> dict[str, PreprocessReport]:
    """Canonicalise every function; also rejects recursive call graphs.

    Each function is validated once, in :func:`preprocess_function`; that
    verdict reads only globals and callee arities, which no rewrite changes.
    """
    _reject_recursion(module)
    reports = {}
    for function in module.functions.values():
        reports[function.name] = preprocess_function(function, module)
    return reports


def _reject_recursion(module: Module) -> None:
    from repro.ir.instructions import Call

    callees: dict[str, set[str]] = {}
    for function in module.functions.values():
        called = set()
        for _, instr in function.iter_instructions():
            if isinstance(instr, Call):
                called.add(instr.callee)
        callees[function.name] = called

    visiting: set[str] = set()
    done: set[str] = set()

    def visit(name: str, chain: list[str]) -> None:
        if name in done:
            return
        if name in visiting:
            cycle = " -> ".join(chain + [name])
            raise PreprocessError(
                f"recursive call graph is not repairable: {cycle}"
            )
        visiting.add(name)
        for callee in callees.get(name, ()):  # undefined callees caught later
            if callee in callees:
                visit(callee, chain + [name])
        visiting.discard(name)
        done.add(name)

    for name in callees:
        visit(name, [])


def call_topological_order(module: Module) -> list[str]:
    """Functions ordered callees-first (the order the repair processes them)."""
    from repro.ir.instructions import Call

    order: list[str] = []
    done: set[str] = set()

    def visit(name: str) -> None:
        if name in done:
            return
        done.add(name)
        function = module.functions[name]
        for _, instr in function.iter_instructions():
            if isinstance(instr, Call) and instr.callee in module.functions:
                visit(instr.callee)
        order.append(name)

    for name in module.functions:
        visit(name)
    return order
