"""Data-consistency classification (paper Definition 1 and Section IV).

A program is *data consistent* when it touches the same **set** of data
addresses regardless of inputs.  Covenant 1 promises data invariance for the
repaired version of every data-consistent program; for the others, the paper
still delivers operation invariance and memory safety.

The evaluation (Section IV, "Validation") splits the 24 benchmarks into:

* programs the repair makes data invariant,
* programs that are *inherently* data inconsistent, because the input itself
  indexes memory (e.g. S-box lookups keyed by secret bytes),
* programs whose array bounds the static analysis cannot find.

This classifier reproduces that triage statically: an access is inherently
inconsistent when its index is tainted by an input; an access prevents the
data-invariance guarantee when the accessed array has no symbolic bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.analysis.array_sizes import infer_array_sizes
from repro.analysis.path_conditions import compute_path_conditions
from repro.ir.function import Function
from repro.ir.instructions import Load, Store
from repro.ir.module import Module
from repro.ir.values import Var


@dataclass(frozen=True)
class AccessClassification:
    """Static classification of one memory access."""

    block: str
    description: str
    input_indexed: bool  # index depends on an input (inherent inconsistency)
    guarded: bool        # executes only on some paths
    bound_known: bool    # the accessed array has a symbolic size
    #: the function containing the access ("" in pre-interprocedural records)
    function: str = ""


@dataclass
class ConsistencyReport:
    function: str
    accesses: list[AccessClassification] = field(default_factory=list)

    @property
    def inherently_inconsistent(self) -> bool:
        """Inputs index memory: no transformation can give data invariance."""
        return any(a.input_indexed for a in self.accesses)

    @property
    def has_unknown_bounds(self) -> bool:
        return any(not a.bound_known for a in self.accesses)

    @property
    def source_data_consistent(self) -> bool:
        """Definition 1 on the *original* program: every access runs on every
        path and no index depends on inputs."""
        return all(
            not a.input_indexed and not a.guarded for a in self.accesses
        )

    @property
    def repaired_data_invariant(self) -> bool:
        """Will the repaired program be data invariant?

        Yes when no index is input-dependent and every zombie access can be
        kept on its original address by a known contract (paper Covenant 1
        plus the Section III-C compromise).
        """
        return not self.inherently_inconsistent and not self.has_unknown_bounds


def classify_data_consistency(
    module: Module,
    function_name: str,
    sensitive_params: Optional[Sequence[str]] = None,
    contracts: Optional[dict[str, str]] = None,
) -> ConsistencyReport:
    """Classify every memory access of ``@function_name``.

    ``sensitive_params`` are the entry's secret inputs (default: all of
    them, the paper's assumption).  For the purpose of this classifier an
    index "depends on an input" whenever the interprocedural taint engine
    (:func:`repro.statics.interproc.analyze_module_taint`) taints it.
    """
    # Imported here: the engine itself builds on repro.analysis.
    from repro.statics.interproc import analyze_module_taint

    function = module.function(function_name)
    roots = {
        function_name: (
            list(sensitive_params) if sensitive_params is not None
            else function.param_names()
        )
    }
    taint = analyze_module_taint(module, roots, include_unreached=False)

    report = ConsistencyReport(function_name)
    report.accesses.extend(_classify_function(
        module, function, taint.functions[function_name].tainted_full,
        contracts, forced_guarded=False,
    ))

    # Covenant 1 speaks about the whole dynamic extent of the entry, so the
    # accesses of its transitive callees (every other function the engine
    # reached) count too, tainted under the contexts the call sites produce.
    callees = sorted(set(taint.functions) - {function_name})
    if callees:
        guarded_calls = _guarded_callee_map(module, function_name)
        for name in callees:
            report.accesses.extend(_classify_function(
                module, module.function(name),
                taint.functions[name].tainted_full, None,
                forced_guarded=guarded_calls.get(name, True),
            ))
    return report


def _classify_function(
    module: Module,
    function: Function,
    tainted_vars: set,
    contracts: Optional[dict[str, str]],
    forced_guarded: bool,
) -> list[AccessClassification]:
    """Classify the accesses of one function given its tainted variables."""
    # Pointer params count as having known bounds here: the repair will
    # *create* their contracts.  Only truly untrackable pointers (unknown
    # joins, pointers to pointers) lack bounds.
    contract_stub = {
        p.name: f"__len_{p.name}" for p in function.params if p.is_pointer
    }
    if contracts:
        contract_stub.update(contracts)
    sizes = infer_array_sizes(module, function, contract_stub)

    from repro.analysis.path_conditions import FormulaBudgetExceeded

    try:
        conditions = compute_path_conditions(function)
    except (ValueError, FormulaBudgetExceeded):
        # Cyclic CFG or formula blow-up: fall back to "every access may be
        # guarded", which only weakens the source_data_consistent verdict.
        conditions = None

    accesses: list[AccessClassification] = []
    for block in function.blocks.values():
        if conditions is not None:
            condition = conditions.outgoing[block.label]
            if condition.is_false():
                # Unreachable block: its accesses touch no addresses on any
                # execution, so they cannot affect data consistency.
                continue
            guarded = not condition.is_true()
        else:
            guarded = True
        for instr in block.instructions:
            if not isinstance(instr, (Load, Store)):
                continue
            index_tainted = (
                isinstance(instr.index, Var)
                and instr.index.name in tainted_vars
            )
            bound_known = sizes.get(instr.array.name) is not None
            accesses.append(
                AccessClassification(
                    block=block.label,
                    description=str(instr),
                    input_indexed=index_tainted,
                    guarded=guarded or forced_guarded,
                    bound_known=bound_known,
                    function=function.name,
                )
            )
    return accesses


def _guarded_callee_map(module: Module, entry: str) -> dict:
    """For each reachable callee: is *every* call chain from the entry
    guarded?  ``False`` means some chain of unconditional call sites reaches
    it, so its unguarded accesses execute on every run of the entry."""
    from repro.analysis.path_conditions import FormulaBudgetExceeded
    from repro.ir.instructions import Call

    guarded: dict[str, bool] = {}
    # (function, reached-only-through-guards) pairs; revisit when a less
    # guarded path appears.  Call graphs are acyclic in practice (the
    # frontend forbids recursion); the `guarded[name] <= flag` check also
    # terminates cyclic graphs since flags only improve monotonically.
    worklist: list = [(entry, False)]
    while worklist:
        name, inherited = worklist.pop()
        function = module.functions.get(name)
        if function is None:
            continue
        try:
            conditions = compute_path_conditions(function)
        except (ValueError, FormulaBudgetExceeded):
            conditions = None
        for block in function.blocks.values():
            if conditions is not None:
                condition = conditions.outgoing[block.label]
                if condition.is_false():
                    continue
                block_guarded = not condition.is_true()
            else:
                block_guarded = True
            for instr in block.instructions:
                if not isinstance(instr, Call):
                    continue
                flag = inherited or block_guarded
                if instr.callee in guarded and guarded[instr.callee] <= flag:
                    continue
                guarded[instr.callee] = flag
                worklist.append((instr.callee, flag))
    guarded.pop(entry, None)
    return guarded
