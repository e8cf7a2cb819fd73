"""Dead-code elimination.

Removable: pure definitions whose result is unused — arithmetic, selects,
phis, allocs, and loads.  A dead *load* is removable because deleting it
affects every execution identically (invariance is preserved uniformly) and
removing an access can never introduce an out-of-bounds access.  Stores and
calls are never removed: stores are observable, and callees may store.
"""

from __future__ import annotations

from repro.ir.function import Function
from repro.ir.instructions import Alloc, CtSel, Load, Mov, Phi

_REMOVABLE = (Mov, CtSel, Phi, Alloc, Load)


def eliminate_dead_code(function: Function) -> bool:
    """One mark-and-sweep over the function, in place.

    Marking starts from what every non-removable instruction and every
    terminator reads and follows removable definitions to their operands;
    the sweep drops each removable definition left unmarked.  A dead cycle
    (a loop phi feeding only itself) is never marked, so it falls too.
    """
    definitions: dict[str, object] = {}
    pending: list[str] = []
    for block in function.blocks.values():
        for instr in block.instructions:
            if isinstance(instr, _REMOVABLE):
                definitions[instr.dest] = instr
            else:
                pending.extend(instr.used_vars())
        if block.terminator is not None:
            pending.extend(block.terminator.used_vars())

    live: set[str] = set()
    while pending:
        name = pending.pop()
        if name not in live:
            live.add(name)
            instr = definitions.get(name)
            if instr is not None:
                pending.extend(instr.used_vars())

    if live.issuperset(definitions):
        return False
    for block in function.blocks.values():
        kept = [
            instr
            for instr in block.instructions
            if instr.dest in live or not isinstance(instr, _REMOVABLE)
        ]
        if len(kept) != len(block.instructions):
            block.instructions = kept
    return True
