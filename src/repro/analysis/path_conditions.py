"""Path-condition analysis (paper Fig. 6).

Each basic block ``l`` has:

* a set of *incoming* conditions ``In[l]``, one per CFG predecessor: the
  predecessor's outgoing condition conjoined with the branch predicate (or
  its negation) that steers control to ``l``;
* a single *outgoing* condition ``Out[l]``: the disjunction of all incoming
  conditions.  The block executes exactly when ``Out[l]`` holds.

This module computes the conditions *symbolically*, as formulas in
disjunctive normal form over branch predicates.  The symbolic form is what
the data-consistency classifier and the tests
(which reproduce the paper's Fig. 5 example) consume.

The repair pass does **not** use this DNF representation — DNF can grow
exponentially, while the paper's transformation is linear.  The repair
materialises conditions as IR instructions with sharing instead (see
:mod:`repro.core.conditions`); this module is the analysis-side mirror.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.ir.cfg import predecessor_map, topological_order
from repro.ir.function import Function
from repro.ir.instructions import Br
from repro.ir.values import Const, Value, Var


@dataclass(frozen=True)
class BranchAtom:
    """A branch predicate or its negation: ``p`` or ``!p``."""

    predicate: str  # the SSA variable (or constant rendering) of the predicate
    negated: bool = False

    def negate(self) -> "BranchAtom":
        return BranchAtom(self.predicate, not self.negated)

    def __str__(self) -> str:
        return f"!{self.predicate}" if self.negated else self.predicate


#: A conjunction of atoms; the empty conjunction is ``true``.
Conjunction = frozenset[BranchAtom]


class FormulaBudgetExceeded(Exception):
    """The DNF grew past the analysis budget (deep branch chains).

    Clients that only need a safe approximation (e.g. the data-consistency
    classifier) catch this and treat the affected blocks as guarded; the
    repair pass itself never builds DNF formulas, so it is unaffected.
    """


#: Maximum number of DNF terms before the symbolic analysis gives up.
MAX_FORMULA_TERMS = 512


@dataclass(frozen=True)
class Formula:
    """A DNF formula: a set of conjunctions.  Empty set = ``false``."""

    terms: frozenset[Conjunction]

    def __post_init__(self) -> None:
        if len(self.terms) > MAX_FORMULA_TERMS:
            raise FormulaBudgetExceeded(
                f"path-condition formula grew to {len(self.terms)} terms"
            )

    @staticmethod
    def true() -> "Formula":
        return Formula(frozenset([frozenset()]))

    @staticmethod
    def false() -> "Formula":
        return Formula(frozenset())

    @staticmethod
    def atom(predicate: str, negated: bool = False) -> "Formula":
        return Formula(frozenset([frozenset([BranchAtom(predicate, negated)])]))

    def is_true(self) -> bool:
        return frozenset() in self.terms

    def is_false(self) -> bool:
        return not self.terms

    def conjoin_atom(self, atom: BranchAtom) -> "Formula":
        """AND an atom onto every term, dropping contradictions."""
        new_terms = set()
        for term in self.terms:
            if atom.negate() in term:
                continue  # p & !p — contradiction, drop the term
            new_terms.add(term | {atom})
        return Formula(frozenset(new_terms))

    def disjoin(self, other: "Formula") -> "Formula":
        if self.is_true() or other.is_true():
            return Formula.true()
        return Formula(self.terms | other.terms)

    def atoms(self) -> set[str]:
        return {atom.predicate for term in self.terms for atom in term}

    def __str__(self) -> str:
        if self.is_true():
            return "true"
        if self.is_false():
            return "false"
        rendered_terms = []
        for term in sorted(self.terms, key=lambda t: sorted(str(a) for a in t)):
            atoms = sorted(str(a) for a in term)
            rendered_terms.append(" & ".join(atoms) if atoms else "true")
        return " | ".join(rendered_terms)


@dataclass
class PathConditions:
    """Result of the dataflow analysis of Fig. 6."""

    #: ``incoming[label][pred_label]`` — condition on the edge pred → label.
    incoming: dict[str, dict[str, Formula]]
    #: ``outgoing[label]`` — the block's unique outgoing condition.
    outgoing: dict[str, Formula]

    def controls(self, label: str) -> Formula:
        return self.outgoing[label]


def _predicate_name(value: Value) -> str:
    if isinstance(value, Var):
        return value.name
    assert isinstance(value, Const)
    return str(value.value)


def compute_path_conditions(function: Function) -> PathConditions:
    """Run the analysis of Fig. 6 over an acyclic CFG.

    The paper observes that, because outgoing conditions are unique and the
    program is a well-formed SSA DAG, a single pre-order (topological)
    traversal suffices; this implementation does exactly that, so it is
    linear in the number of edges (though the *formulas* it builds may be
    large — see the module docstring).
    """
    order = topological_order(function)
    preds = predecessor_map(function)
    incoming: dict[str, dict[str, Formula]] = {}
    outgoing: dict[str, Formula] = {}

    for label in order:
        block_preds = [p for p in preds[label] if p in outgoing]
        if label == order[0]:
            incoming[label] = {}
            outgoing[label] = Formula.true()
            continue
        edge_conditions: dict[str, Formula] = {}
        for pred in block_preds:
            pred_out = outgoing[pred]
            terminator = function.blocks[pred].terminator
            if isinstance(terminator, Br):
                predicate = _predicate_name(terminator.cond)
                if terminator.if_true == label and terminator.if_false == label:
                    edge_conditions[pred] = pred_out
                elif terminator.if_true == label:
                    edge_conditions[pred] = pred_out.conjoin_atom(
                        BranchAtom(predicate, negated=False)
                    )
                else:
                    edge_conditions[pred] = pred_out.conjoin_atom(
                        BranchAtom(predicate, negated=True)
                    )
            else:
                edge_conditions[pred] = pred_out
        incoming[label] = edge_conditions
        out = Formula.false()
        for formula in edge_conditions.values():
            out = out.disjoin(formula)
        outgoing[label] = out

    # Unreachable blocks never execute: their path condition is false.
    # (topological_order only visits reachable blocks, so without this the
    # maps would silently lack entries for dead code.)
    for label in function.blocks:
        if label not in outgoing:
            incoming[label] = {}
            outgoing[label] = Formula.false()

    return PathConditions(incoming, outgoing)
