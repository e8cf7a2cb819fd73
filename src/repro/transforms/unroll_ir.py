"""IR-level full unrolling of counted natural loops.

The MiniC front end unrolls while it generates code; this pass provides
the same preprocessing for programs written directly in the IR (the
paper's pipeline unrolls at the LLVM level).  Scope — the *counted natural
loop*:

* a back edge ``latch → header`` where the header dominates the latch;
* the header holds the induction phi ``i = phi [init, preheader],
  [i.step, latch]`` with constant ``init``;
* the header ends in ``br p, body, exit`` (either arm order) where ``p``
  is a comparison of ``i`` against a constant bound, defined in the header;
* the step is ``i.step = mov i ± c`` inside the loop, with constant ``c``;
* the loop has a single exit edge (from the header) and a single back edge.

Each iteration's blocks are cloned with fresh names, the induction variable
is replaced by its literal value, and loop-carried phis are threaded from
one copy to the next.  Nested loops unroll inside-out by iterating to a
fixpoint.  Loops outside this shape raise :class:`IRUnrollError` — per the
paper, a loop whose trip count cannot be bounded statically cannot be
isochronified at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.dominators import compute_dominators
from repro.frontend.unroll import MAX_TRIP_COUNT, trip_values
from repro.ir.cfg import predecessor_map, remove_unreachable_blocks
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import (
    BinExpr,
    Br,
    Instruction,
    Jmp,
    Mov,
    Phi,
    substitute_expr,
)
from repro.ir.module import Module
from repro.ir.ops import wrap
from repro.ir.values import Const, Value, Var


class IRUnrollError(ValueError):
    """A loop that the unroller cannot bound statically."""


@dataclass
class _CountedLoop:
    header: str
    latch: str
    preheader: str
    body_label: str  # the in-loop successor of the header
    exit_label: str
    blocks: set[str]  # all blocks of the natural loop (header included)
    induction: Phi
    predicate_op: str
    bound: int
    init: int
    step: int
    negate: bool  # True when the *exit* is the br's true arm


def unroll_function_loops(function: Function, module: Module) -> int:
    """Fully unroll every counted loop in place; returns loops unrolled.

    Raises :class:`IRUnrollError` when a cycle remains that does not match
    the counted-loop shape.
    """
    total = 0
    for _ in range(64):  # fixpoint over nested loops
        loop = _find_innermost_loop(function)
        if loop is None:
            from repro.ir.cfg import is_acyclic

            if not is_acyclic(function):
                raise IRUnrollError(
                    f"@{function.name}: a cycle remains that is not a "
                    "counted natural loop; its bound cannot be derived"
                )
            return total
        _unroll_loop(function, loop)
        remove_unreachable_blocks(function)
        total += 1
    raise IRUnrollError(f"@{function.name}: too many nested loops")


def unroll_module_loops(module: Module) -> int:
    return sum(
        unroll_function_loops(function, module)
        for function in module.functions.values()
    )


# -- loop discovery -------------------------------------------------------------


def _find_innermost_loop(function: Function) -> Optional[_CountedLoop]:
    domtree = compute_dominators(function)
    preds = predecessor_map(function)

    candidates: list[_CountedLoop] = []
    for block in function.blocks.values():
        for successor in block.successors():
            if domtree.dominates(successor, block.label):
                loop = _match_counted_loop(
                    function, preds, header=successor, latch=block.label
                )
                if loop is None:
                    raise IRUnrollError(
                        f"@{function.name}: back edge {block.label} -> "
                        f"{successor} is not a counted loop"
                    )
                candidates.append(loop)
    if not candidates:
        return None
    # Innermost = smallest body; nested loops are strict subsets.
    return min(candidates, key=lambda l: len(l.blocks))


def _loop_blocks(function: Function, header: str, latch: str) -> set[str]:
    """Natural-loop membership: blocks reaching the latch without passing
    through the header."""
    preds = predecessor_map(function)
    members = {header, latch}
    stack = [latch]
    while stack:
        current = stack.pop()
        for pred in preds[current]:
            if pred not in members:
                members.add(pred)
                stack.append(pred)
    return members


def _match_counted_loop(
    function: Function,
    preds: dict[str, list[str]],
    header: str,
    latch: str,
) -> Optional[_CountedLoop]:
    blocks = _loop_blocks(function, header, latch)
    header_block = function.blocks[header]

    outside_preds = [p for p in preds[header] if p not in blocks]
    if len(outside_preds) != 1:
        return None
    preheader = outside_preds[0]

    terminator = header_block.terminator
    if not isinstance(terminator, Br):
        return None
    in_loop = [t for t in terminator.successors() if t in blocks]
    out_loop = [t for t in terminator.successors() if t not in blocks]
    if len(in_loop) != 1 or len(out_loop) != 1:
        return None
    body_label, exit_label = in_loop[0], out_loop[0]
    negate = terminator.if_true == exit_label

    # The predicate: a comparison of the induction phi against a constant,
    # defined in the header.
    if not isinstance(terminator.cond, Var):
        return None
    predicate_def = _find_def(header_block, terminator.cond.name)
    if not (isinstance(predicate_def, Mov)
            and isinstance(predicate_def.expr, BinExpr)):
        return None
    comparison = predicate_def.expr
    if comparison.op not in ("<", "<=", ">", ">=", "!=", "=="):
        return None
    if not (isinstance(comparison.lhs, Var)
            and isinstance(comparison.rhs, Const)):
        return None
    induction_name = comparison.lhs.name
    bound = wrap(comparison.rhs.value)

    induction = next(
        (i for i in header_block.phis() if i.dest == induction_name), None
    )
    if induction is None or len(induction.incomings) != 2:
        return None
    init_value = induction.incoming_from(preheader)
    step_value = induction.incoming_from(latch)
    if not isinstance(init_value, Const) or not isinstance(step_value, Var):
        return None

    step_def = None
    for label in blocks:
        candidate = _find_def(function.blocks[label], step_value.name)
        if candidate is not None:
            step_def = candidate
            break
    if not (isinstance(step_def, Mov) and isinstance(step_def.expr, BinExpr)):
        return None
    step_expr = step_def.expr
    if step_expr.op not in ("+", "-"):
        return None
    if not (isinstance(step_expr.lhs, Var)
            and step_expr.lhs.name == induction_name
            and isinstance(step_expr.rhs, Const)):
        return None
    step = wrap(step_expr.rhs.value)
    if step_expr.op == "-":
        step = -step
    if step == 0:
        return None

    return _CountedLoop(
        header=header,
        latch=latch,
        preheader=preheader,
        body_label=body_label,
        exit_label=exit_label,
        blocks=blocks,
        induction=induction,
        predicate_op=comparison.op,
        bound=bound,
        init=wrap(init_value.value),
        step=step,
        negate=negate,
    )


def _find_def(block: BasicBlock, name: str) -> Optional[Instruction]:
    for instr in block.instructions:
        if instr.dest == name:
            return instr
    return None


# -- unrolling -------------------------------------------------------------------


def _unroll_loop(function: Function, loop: _CountedLoop) -> None:
    values = trip_values(
        loop.init, loop.predicate_op, loop.bound, loop.step,
        lambda: IRUnrollError(
            f"loop at {loop.header} exceeds {MAX_TRIP_COUNT} iterations"
        ),
        negate=loop.negate,
    )
    carried = [phi for phi in function.blocks[loop.header].phis()
               if phi.dest != loop.induction.dest]

    # Initial values flowing in from the preheader.
    incoming: dict[str, Value] = {
        phi.dest: phi.incoming_from(loop.preheader) for phi in carried
    }

    template = {label: function.blocks[label] for label in loop.blocks}
    entry_labels: list[str] = []
    exit_bindings = incoming  # used when the loop runs zero times

    for iteration, counter in enumerate(values):
        suffix = f"{loop.header}.it{iteration}"
        mapping: dict[str, Value] = {loop.induction.dest: Const(counter)}
        mapping.update(incoming)
        rename = {
            name: f"{name}.{suffix}"
            for label in loop.blocks
            for name in _defined_in(template[label])
            if name != loop.induction.dest and name not in incoming
        }
        label_map = {label: f"{label}.{suffix}" for label in loop.blocks}

        for label in loop.blocks:
            source = template[label]
            clone = function.add_block(label_map[label])
            for instr in source.instructions:
                if isinstance(instr, Phi) and label == loop.header:
                    continue  # induction and carried phis are substituted
                clone.append(_rewrite(instr, mapping, rename))
            terminator = source.terminator
            assert terminator is not None
            if label == loop.header:
                clone.terminator = Jmp(label_map[loop.body_label])
            elif label == loop.latch:
                clone.terminator = None  # patched to the next iteration
            else:
                clone.terminator = _retarget_terminator(
                    terminator, mapping, rename, label_map
                )
        entry_labels.append(label_map[loop.header])

        # Loop-carried values for the next iteration come from the latch.
        next_incoming: dict[str, Value] = {}
        for phi in carried:
            value = phi.incoming_from(loop.latch)
            next_incoming[phi.dest] = _rewrite_value(value, mapping, rename)
        incoming = next_incoming
        exit_bindings = incoming

    # Chain the iterations together and into the exit block.
    for index in range(len(values)):
        latch_label = f"{loop.latch}.{loop.header}.it{index}"
        target = (
            entry_labels[index + 1]
            if index + 1 < len(values)
            else loop.exit_label
        )
        function.blocks[latch_label].terminator = Jmp(target)

    first = entry_labels[0] if values else loop.exit_label
    _redirect(function, loop.preheader, loop.header, first)

    # Uses of the carried phis after the loop see the final iteration's
    # values (or the preheader's, for zero-trip loops); the induction
    # variable's final value is also exposed.
    final_map: dict[str, Value] = dict(exit_bindings)
    final_counter = values[-1] + loop.step if values else loop.init
    final_map[loop.induction.dest] = Const(wrap(final_counter))
    _substitute_everywhere(function, loop, final_map)

    # Exit-block phis keyed on the header now come from the last latch copy.
    last_latch = (
        f"{loop.latch}.{loop.header}.it{len(values) - 1}"
        if values else loop.preheader
    )
    _relabel_phis(function.blocks[loop.exit_label], loop.header, last_latch)

    for label in loop.blocks:
        del function.blocks[label]


def _defined_in(block: BasicBlock) -> list[str]:
    return [i.dest for i in block.instructions if i.dest is not None]


def _rewrite_value(value: Value, mapping, rename) -> Value:
    if isinstance(value, Var):
        if value.name in mapping:
            return mapping[value.name]
        if value.name in rename:
            return Var(rename[value.name])
    return value


def _rewrite(instr: Instruction, mapping, rename) -> Instruction:
    substitution = dict(mapping)
    substitution.update({name: Var(new) for name, new in rename.items()})
    rewritten = instr.replace_uses(substitution)
    if rewritten.dest is not None and rewritten.dest in rename:
        rewritten = rewritten.with_dest(rename[rewritten.dest])
    return rewritten


def _retarget_terminator(terminator, mapping, rename, label_map):
    substitution = dict(mapping)
    substitution.update({name: Var(new) for name, new in rename.items()})
    rewritten = terminator.replace_uses(substitution)
    if isinstance(rewritten, Jmp):
        return Jmp(label_map.get(rewritten.target, rewritten.target))
    if isinstance(rewritten, Br):
        return Br(
            rewritten.cond,
            label_map.get(rewritten.if_true, rewritten.if_true),
            label_map.get(rewritten.if_false, rewritten.if_false),
        )
    return rewritten


def _redirect(function: Function, block_label: str, old: str, new: str) -> None:
    block = function.blocks[block_label]
    terminator = block.terminator
    if isinstance(terminator, Jmp) and terminator.target == old:
        block.terminator = Jmp(new)
    elif isinstance(terminator, Br):
        block.terminator = Br(
            terminator.cond,
            new if terminator.if_true == old else terminator.if_true,
            new if terminator.if_false == old else terminator.if_false,
        )


def _substitute_everywhere(function: Function, loop: _CountedLoop,
                           mapping: dict[str, Value]) -> None:
    for label, block in function.blocks.items():
        if label in loop.blocks:
            continue
        block.instructions = [
            instr.replace_uses(mapping) for instr in block.instructions
        ]
        if block.terminator is not None:
            block.terminator = block.terminator.replace_uses(mapping)


def _relabel_phis(block: BasicBlock, old: str, new: str) -> None:
    rewritten = []
    for instr in block.instructions:
        if isinstance(instr, Phi):
            arms = tuple(
                (value, new if label == old else label)
                for value, label in instr.incomings
            )
            instr = Phi(instr.dest, arms)
        rewritten.append(instr)
    block.instructions = rewritten
