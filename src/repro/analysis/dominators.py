"""Dominator and postdominator trees.

Implemented with the Cooper–Harvey–Kennedy iterative algorithm over reverse
postorder, which is simple and fast enough for the program sizes this
project handles (hundreds of thousands of instructions, but few blocks per
function after linearisation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.ir.cfg import exit_blocks, predecessor_map, reverse_postorder
from repro.ir.function import Function


@dataclass
class DominatorTree:
    """Immediate-dominator map plus query helpers.

    ``idom[entry]`` is ``entry`` itself (the classic convention).
    Dominance queries use Euler-interval numbering, computed lazily, so each
    query is O(1) — the validator issues one per SSA use.
    """

    root: str
    idom: dict[str, str]
    _intervals: Optional[dict[str, tuple[int, int]]] = None

    def dominates(self, a: str, b: str) -> bool:
        """True when block ``a`` dominates block ``b`` (reflexive)."""
        intervals = self._ensure_intervals()
        if a not in intervals or b not in intervals:
            return False
        enter_a, leave_a = intervals[a]
        enter_b, _ = intervals[b]
        return enter_a <= enter_b < leave_a

    def _ensure_intervals(self) -> dict[str, tuple[int, int]]:
        if self._intervals is None:
            children = self.children()
            intervals: dict[str, tuple[int, int]] = {}
            clock = 0
            stack: list[tuple[str, bool]] = [(self.root, False)]
            while stack:
                node, done = stack.pop()
                if done:
                    intervals[node] = (intervals[node][0], clock)
                    clock += 1
                    continue
                intervals[node] = (clock, -1)
                clock += 1
                stack.append((node, True))
                for child in children.get(node, ()):  # pre-order descent
                    stack.append((child, False))
            self._intervals = intervals
        return self._intervals

    def strictly_dominates(self, a: str, b: str) -> bool:
        return a != b and self.dominates(a, b)

    def children(self) -> dict[str, list[str]]:
        kids: dict[str, list[str]] = {label: [] for label in self.idom}
        for label, parent in self.idom.items():
            if label != parent:
                kids[parent].append(label)
        return kids

    def dominance_frontier(self, preds: dict[str, list[str]]) -> dict[str, set[str]]:
        """Cytron-style dominance frontiers (used by tests and SSA checks)."""
        frontier: dict[str, set[str]] = {label: set() for label in self.idom}
        for label, block_preds in preds.items():
            if len(block_preds) < 2:
                continue
            for pred in block_preds:
                runner = pred
                while runner != self.idom[label] and runner in self.idom:
                    frontier[runner].add(label)
                    if runner == self.idom[runner]:
                        break
                    runner = self.idom[runner]
        return frontier


def compute_dominators(function: Function) -> DominatorTree:
    """Dominator tree of the reachable CFG."""
    order = reverse_postorder(function)
    preds = predecessor_map(function)
    reachable = set(order)
    restricted = {b: [p for p in preds[b] if p in reachable] for b in order}
    return _iterate(order, restricted, function.entry.label)


#: Synthetic postdominator root joining every exit of a multi-exit CFG.
#: Angle brackets keep it disjoint from parseable block labels.
VIRTUAL_EXIT = "<virtual-exit>"


def compute_postdominators(
    function: Function, virtual_exit: bool = False
) -> Optional[DominatorTree]:
    """Postdominator tree, or ``None`` when the function has no single exit.

    The preprocessing pipeline canonicalises functions to a single return
    point (paper Section III-A), after which this always succeeds.  With
    ``virtual_exit=True`` a multi-exit CFG is handled by rooting the tree
    at a synthetic :data:`VIRTUAL_EXIT` node that every exit block jumps
    to — the standard construction, used by the analyses that must also
    cover *unpreprocessed* input (the taint engine behind the certifier).
    """
    exits = exit_blocks(function)
    if len(exits) == 1:
        root = exits[0].label
        synthetic = False
    elif exits and virtual_exit:
        root = VIRTUAL_EXIT
        synthetic = True
    else:
        return None

    # Reverse the CFG and reuse the same engine.
    preds = predecessor_map(function)
    reverse_succ = {label: list(p) for label, p in preds.items()}
    if synthetic:
        reverse_succ[VIRTUAL_EXIT] = [e.label for e in exits]
    order = _reverse_postorder_from(root, reverse_succ)
    reachable = set(order)
    # reverse_preds of X = successors of X in the original graph, restricted.
    reverse_preds: dict[str, list[str]] = {label: [] for label in order}
    for label in order:
        if label == root and synthetic:
            continue
        for orig_succ in _original_successors(function, label):
            if orig_succ in reachable:
                reverse_preds[label].append(orig_succ)
    if synthetic:
        for exit_block in exits:
            if exit_block.label in reachable:
                reverse_preds[exit_block.label].append(VIRTUAL_EXIT)
    return _iterate(order, reverse_preds, root)


def _original_successors(function: Function, label: str) -> list[str]:
    return function.blocks[label].successors()


def _reverse_postorder_from(root: str, succ: dict[str, list[str]]) -> list[str]:
    visited: set[str] = set()
    postorder: list[str] = []

    stack = [(root, iter(succ[root]))]
    visited.add(root)
    while stack:
        current, it = stack[-1]
        advanced = False
        for nxt in it:
            if nxt not in visited:
                visited.add(nxt)
                stack.append((nxt, iter(succ[nxt])))
                advanced = True
                break
        if not advanced:
            postorder.append(current)
            stack.pop()
    return list(reversed(postorder))


def _iterate(order: list[str], preds: dict[str, list[str]], root: str) -> DominatorTree:
    position = {label: i for i, label in enumerate(order)}
    idom: dict[str, str] = {root: root}

    def intersect(a: str, b: str) -> str:
        while a != b:
            while position[a] > position[b]:
                a = idom[a]
            while position[b] > position[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for label in order:
            if label == root:
                continue
            candidates = [p for p in preds[label] if p in idom]
            if not candidates:
                continue
            new_idom = candidates[0]
            for other in candidates[1:]:
                new_idom = intersect(new_idom, other)
            if idom.get(label) != new_idom:
                idom[label] = new_idom
                changed = True
    return DominatorTree(root, idom)
