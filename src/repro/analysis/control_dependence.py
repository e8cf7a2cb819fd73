"""Control-dependence analysis (Ferrante–Ottenstein–Warren).

Block B is control-dependent on a branch in block A when A has a successor
S such that B postdominates S but B does not postdominate A: the branch in A
decides whether B runs.  The taint engine (:mod:`repro.statics.interproc`)
uses this to track *implicit* information flows (a variable assigned under a
secret-dependent branch is itself secret), following the FlowTracker
approach the paper cites for side-channel detection.
"""

from __future__ import annotations

from repro.analysis.dominators import compute_postdominators
from repro.ir.function import Function
from repro.ir.instructions import Br


def compute_control_dependence(
    function: Function, allow_multiple_exits: bool = False
) -> dict[str, set[str]]:
    """Map each block label to the labels of the branch blocks it depends on.

    Requires a single-exit function (run the single-return canonicalisation
    first); raises ``ValueError`` otherwise.  Pass
    ``allow_multiple_exits=True`` to analyse raw multi-exit CFGs through a
    virtual exit node instead — an early ``ret`` under a branch then makes
    the blocks it skips control-dependent on that branch, which is exactly
    the implicit flow a secret-steered early return creates.
    """
    postdom = compute_postdominators(
        function, virtual_exit=allow_multiple_exits
    )
    if postdom is None:
        raise ValueError(
            f"@{function.name}: control dependence requires a single exit block"
        )

    depends_on: dict[str, set[str]] = {label: set() for label in function.blocks}
    for block in function.blocks.values():
        if not isinstance(block.terminator, Br):
            continue
        for successor in set(block.terminator.successors()):
            # Walk up the postdominator tree from the successor to (but not
            # including) the branch block's own postdominator parent; every
            # node on the way is control-dependent on this branch.
            runner = successor
            stop = postdom.idom.get(block.label)
            while runner is not None and runner != stop:
                # The virtual exit is not a real block; skip it but keep
                # walking (its parent is itself, so the loop ends below).
                if runner != block.label and runner in depends_on:
                    depends_on[runner].add(block.label)
                parent = postdom.idom.get(runner)
                if parent == runner:
                    break
                runner = parent
    return depends_on
