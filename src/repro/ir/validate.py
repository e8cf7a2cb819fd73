"""Well-formedness and SSA validation.

The paper's transformation is only defined on *well-formed* SSA programs:
every variable has a single definition, and that definition dominates all of
its uses (Section III-B1).  The validator enforces this, plus the structural
invariants the rest of the code base relies on.

Every check reports through the structured diagnostics framework
(:mod:`repro.statics.diagnostics`): ``validate_function`` /
``validate_module`` raise :class:`ValidationError` on the first error (hot
path — no list building), while ``diagnose_function`` / ``diagnose_module``
collect every finding for ``lif lint``.  :class:`ValidationError` stays a
``ValueError`` subclass and carries the triggering
:class:`~repro.statics.diagnostics.Diagnostic` on its ``diagnostic``
attribute.  Valid IR renders nothing: a check formats an instruction or
builds an :class:`~repro.statics.diagnostics.Anchor` only once it emits.
"""

from __future__ import annotations

from typing import Optional

from repro.ir.cfg import predecessor_map, reachable_labels
from repro.ir.function import Function
from repro.ir.instructions import Call, Phi
from repro.ir.module import Module
from repro.ir.values import Var
from repro.statics.diagnostics import (
    Anchor,
    Diagnostic,
    DiagnosticSink,
    sort_diagnostics,
)


class ValidationError(ValueError):
    """Raised when a function or module violates an IR invariant.

    A thin wrapper over the structured diagnostic: ``str(error)`` keeps the
    historical message format, ``error.diagnostic`` (when present) carries
    the rule id and anchor.
    """

    def __init__(self, message: str, diagnostic: Optional[Diagnostic] = None):
        super().__init__(message)
        self.diagnostic = diagnostic


def validate_function(
    function: Function, module: Optional[Module] = None
) -> None:
    """Check structure, SSA single-assignment, and dominance of uses.

    Raises :class:`ValidationError` with a precise message on the first
    violation found.
    """
    sink = DiagnosticSink(strict_exception=ValidationError)
    _run_checks(function, module, sink)


def validate_module(module: Module) -> None:
    for function in module.functions.values():
        validate_function(function, module)


def diagnose_function(
    function: Function, module: Optional[Module] = None
) -> list[Diagnostic]:
    """Collect every well-formedness finding instead of raising."""
    sink = DiagnosticSink()
    _run_checks(function, module, sink)
    return sort_diagnostics(sink.diagnostics)


def diagnose_module(module: Module) -> list[Diagnostic]:
    sink = DiagnosticSink()
    for function in module.functions.values():
        _run_checks(function, module, sink)
    return sort_diagnostics(sink.diagnostics)


def _run_checks(
    function: Function, module: Optional[Module], sink: DiagnosticSink
) -> None:
    if not function.blocks:
        sink.emit(
            Diagnostic(
                rule="IR-NO-BLOCKS",
                severity="error",
                message=f"@{function.name}: function has no blocks",
                anchor=Anchor(function.name),
            )
        )
        return

    # The stages below assume the structural invariants the earlier stages
    # establish (a dominator tree needs terminators, phi checks need the
    # predecessor map), so in collect mode stop at the first broken layer.
    before = len(sink.diagnostics)
    _check_terminators(function, sink)
    if len(sink.diagnostics) > before:
        return
    try:
        preds = predecessor_map(function)  # raises on unknown branch targets
    except KeyError as error:
        sink.emit(
            Diagnostic(
                rule="IR-SSA-UNDEF",
                severity="error",
                message=f"@{function.name}: {error.args[0]}",
                anchor=Anchor(function.name),
            )
        )
        return
    _check_phi_placement(function, preds, sink)
    definitions = _check_single_assignment(function, module, sink)
    _check_dominance(function, definitions, sink)
    if module is not None:
        _check_calls(function, module, sink)


def _check_terminators(function: Function, sink: DiagnosticSink) -> None:
    for block in function.blocks.values():
        if block.terminator is None:
            sink.emit(
                Diagnostic(
                    rule="IR-TERM-MISSING",
                    severity="error",
                    message=(
                        f"@{function.name}: block {block.label} has no "
                        "terminator"
                    ),
                    anchor=Anchor(function.name, block.label),
                    fixit="end the block with jmp, br, or ret",
                )
            )


def _check_phi_placement(
    function: Function, preds: dict[str, list[str]], sink: DiagnosticSink
) -> None:
    for block in function.blocks.values():
        expected = preds[block.label]
        expected_set = set(expected)
        seen_non_phi = False
        for index, instr in enumerate(block.instructions):
            if not isinstance(instr, Phi):
                seen_non_phi = True
                continue
            incoming = [label for _, label in instr.incomings]
            labels = set(incoming)
            unique = len(labels) == len(incoming)
            if unique and labels == expected_set and not seen_non_phi:
                continue  # a well-formed phi renders nothing
            anchor = Anchor(function.name, block.label, index, str(instr))
            if seen_non_phi:
                sink.emit(
                    Diagnostic(
                        rule="IR-PHI-ORDER",
                        severity="error",
                        message=(
                            f"@{function.name}:{block.label}: phi "
                            f"{instr.dest} does not lead its block"
                        ),
                        anchor=anchor,
                        fixit="move the phi above every non-phi instruction",
                    )
                )
            prefix = (
                f"@{function.name}:{block.label}: phi {instr.dest} incomings "
                f"{sorted(incoming)} do not match predecessors "
                f"{sorted(expected)}"
            )
            for label in sorted(labels):
                if incoming.count(label) > 1:
                    sink.emit(
                        Diagnostic(
                            rule="IR-PHI-PRED-DUP",
                            severity="error",
                            message=(
                                f"{prefix}: predecessor {label} listed "
                                f"{incoming.count(label)} times"
                            ),
                            anchor=anchor,
                            fixit=f"keep a single incoming for {label}",
                        )
                    )
            for label in sorted(expected_set - labels):
                sink.emit(
                    Diagnostic(
                        rule="IR-PHI-PRED-MISSING",
                        severity="error",
                        message=f"{prefix}: no incoming for {label}",
                        anchor=anchor,
                        fixit=f"add an incoming value for predecessor {label}",
                    )
                )
            for label in sorted(labels - expected_set):
                sink.emit(
                    Diagnostic(
                        rule="IR-PHI-PRED-EXTRA",
                        severity="error",
                        message=(
                            f"{prefix}: {label} is not a predecessor of "
                            f"{block.label}"
                        ),
                        anchor=anchor,
                        fixit=f"drop the incoming from {label}",
                    )
                )


def _check_single_assignment(
    function: Function, module: Optional[Module], sink: DiagnosticSink
) -> dict[str, tuple[str, int]]:
    """Return ``{var: (block, index)}``; params map to the entry at index -1."""
    definitions: dict[str, tuple[str, int]] = {}
    entry = function.entry.label
    for param in function.params:
        if param.name in definitions:
            sink.emit(
                Diagnostic(
                    rule="IR-PARAM-DUP",
                    severity="error",
                    message=(
                        f"@{function.name}: duplicate parameter {param.name}"
                    ),
                    anchor=Anchor(function.name),
                )
            )
        definitions[param.name] = (entry, -1)
    if module is not None:
        for global_name in module.globals:
            if global_name in definitions:
                sink.emit(
                    Diagnostic(
                        rule="IR-GLOBAL-SHADOW",
                        severity="error",
                        message=(
                            f"@{function.name}: parameter {global_name} "
                            "shadows a global"
                        ),
                        anchor=Anchor(function.name),
                        fixit=f"rename the parameter {global_name}",
                    )
                )
            definitions[global_name] = (entry, -1)

    for block in function.blocks.values():
        for index, instr in enumerate(block.instructions):
            if instr.dest is None:
                continue
            if instr.dest in definitions:
                sink.emit(
                    Diagnostic(
                        rule="IR-SSA-REDEF",
                        severity="error",
                        message=(
                            f"@{function.name}: variable {instr.dest} "
                            "defined twice"
                        ),
                        anchor=Anchor(
                            function.name, block.label, index, str(instr)
                        ),
                        fixit="rename one definition (SSA construction)",
                    )
                )
            definitions[instr.dest] = (block.label, index)
    return definitions


def _check_dominance(
    function: Function,
    definitions: dict[str, tuple[str, int]],
    sink: DiagnosticSink,
) -> None:
    from repro.analysis.dominators import compute_dominators

    reachable = reachable_labels(function)
    domtree = compute_dominators(function)

    def check_use(
        var: str, use_block: str, use_index: int, label: str, index: int, instr
    ) -> None:
        """Check one use of ``var`` by ``instr`` (``index`` -1: terminator)."""
        if var not in definitions:
            if isinstance(instr, Phi):
                what = f"phi {instr.dest}"
            else:
                what = "terminator" if index == -1 else str(instr)
            rule = "IR-SSA-UNDEF"
            finding = f"{what} uses undefined variable {var}"
        elif use_block not in reachable:
            return  # uses in dead code are not constrained
        else:
            def_block, def_index = definitions[var]
            if def_block == use_block:
                if def_index < use_index:
                    return
                finding = f"{var} used before its definition"
            elif domtree.dominates(def_block, use_block):
                return
            else:
                finding = (
                    f"definition of {var} in {def_block} does not dominate "
                    "this use"
                )
            rule = "IR-SSA-DOM"
        sink.emit(
            Diagnostic(
                rule=rule,
                severity="error",
                message=f"@{function.name}:{use_block}: {finding}",
                anchor=Anchor(function.name, label, index, str(instr)),
            )
        )

    for block in function.blocks.values():
        label = block.label
        for index, instr in enumerate(block.instructions):
            if isinstance(instr, Phi):
                # A phi use must be available at the end of the matching
                # predecessor, not at the phi itself.
                for value, pred_label in instr.incomings:
                    if not isinstance(value, Var):
                        continue
                    pred_block = function.blocks.get(pred_label)
                    if pred_block is None:
                        continue  # IR-PHI-PRED-EXTRA already reported
                    check_use(
                        value.name,
                        pred_label,
                        len(pred_block.instructions),
                        label,
                        index,
                        instr,
                    )
            else:
                for var in instr.used_vars():
                    check_use(var, label, index, label, index, instr)
        terminator = block.terminator
        assert terminator is not None
        for var in terminator.used_vars():
            check_use(
                var, label, len(block.instructions), label, -1, terminator
            )


def _check_calls(
    function: Function, module: Module, sink: DiagnosticSink
) -> None:
    for label, instr in function.iter_instructions():
        if not isinstance(instr, Call):
            continue
        callee = module.functions.get(instr.callee)
        if callee is None:
            sink.emit(
                Diagnostic(
                    rule="IR-CALL-UNDEF",
                    severity="error",
                    message=(
                        f"@{function.name}:{label}: call to undefined "
                        f"function @{instr.callee}"
                    ),
                    anchor=Anchor(function.name, label, None, str(instr)),
                )
            )
        elif len(instr.args) != len(callee.params):
            sink.emit(
                Diagnostic(
                    rule="IR-CALL-ARITY",
                    severity="error",
                    message=(
                        f"@{function.name}:{label}: call to @{instr.callee} "
                        f"passes {len(instr.args)} arguments, expected "
                        f"{len(callee.params)}"
                    ),
                    anchor=Anchor(function.name, label, None, str(instr)),
                )
            )
