"""Verify-each leakage sanitizer for the optimisation pipeline.

An optimisation pass that is correct for *values* can still be wrong for
*side channels*: rewriting a ``ctsel`` back into a branch, or hoisting a
guarded load past its guard, silently reintroduces the leak the repair
transform removed.  With the ``REPRO_OPT_SANITIZE`` knob on, the pipeline
checks after every pass that

1. the function is still well-formed SSA
   (:func:`repro.ir.validate.validate_function`), and
2. the function's *leak fingerprint* — how many secret-dependent branch
   predicates, secret-indexed memory accesses and power-imbalanced secret
   selects the interprocedural taint engine
   (:mod:`repro.statics.interproc`) finds with the function as its root —
   has not grown relative to the pre-pass IR.

A violation raises :class:`LeakSanitizerError` whose message and
diagnostic name the offending pass, so a broken pass is caught at the
exact pipeline position that introduced the leak rather than at the end
of the build (or worse, in the dynamic verifier's lucky-input blind
spot).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.validate import ValidationError, validate_function
from repro.obs import OBS, env_flag
from repro.statics.diagnostics import Anchor, Diagnostic
from repro.statics.interproc import analyze_module_taint

SANITIZE_ENV_VAR = "REPRO_OPT_SANITIZE"


def sanitize_enabled() -> bool:
    """True when ``REPRO_OPT_SANITIZE`` asks for per-pass leak checks."""
    return env_flag(SANITIZE_ENV_VAR, False)


class LeakSanitizerError(Exception):
    """An optimisation pass broke the IR or reintroduced a leak."""

    def __init__(self, message: str, diagnostic: Diagnostic):
        super().__init__(message)
        self.diagnostic = diagnostic
        #: The pipeline pass that caused the violation.
        self.pass_name = diagnostic.anchor.block or "<unknown-pass>"


@dataclass(frozen=True)
class LeakFingerprint:
    """Leak counts the sanitizer compares across passes.

    Counts, not instruction sets: passes legitimately rename variables and
    merge blocks, so identities are not stable across a pass — but a pass
    that *increases* either count has manufactured a leak the input IR did
    not contain.
    """

    branches: int
    indices: int
    #: power channel: non-guard ``ctsel``s with a tainted condition that are
    #: not *provably* balanced (both arms constant with equal Hamming
    #: weight).  Counting potential rather than proven imbalance keeps the
    #: metric monotone under constant folding: a pass that merely reveals
    #: an arm's value cannot grow it, only one that manufactures a new
    #: secret-conditioned transition (``POWER-CTSEL-IMBALANCE``) can.
    ctsel_imbalances: int = 0

    @classmethod
    def of(
        cls,
        function: Function,
        module: Optional[Module] = None,
        summaries: Optional[dict] = None,
    ) -> "LeakFingerprint":
        """Fingerprint ``function``, a root with its declared secrets (all
        parameters when none are declared).

        ``module`` resolves its callees and globals when it holds
        ``function``; otherwise the function is analysed alone.
        ``summaries`` is a callee summary cache shared across the
        fingerprints of one function while passes rewrite it: its own
        entries are evicted first, since its body is what changed.  A run
        that falls back on a call cycle (a fresh run does for every cycle
        it reaches) empties the cache: a summary inside a cycle may embed
        the function's old body, or depend on where the cycle was first
        entered.  So every check that reaches recursion is a fresh
        analysis.
        """
        if module is None or module.functions.get(function.name) is not function:
            module = Module(function.name, {function.name: function})
        if summaries is not None:
            for key in [k for k in summaries if k[0] == function.name]:
                del summaries[key]
        secrets = list(function.sensitive_params) or function.param_names()
        taint = analyze_module_taint(
            module, {function.name: secrets}, include_unreached=False,
            summaries=summaries,
        )
        if summaries is not None and taint.recursion_fallbacks:
            summaries.clear()
        record = taint.functions[function.name]
        return cls(
            len(record.branch_leaks),
            len(record.index_leaks),
            _count_ctsel_imbalances(function, record.tainted_full),
        )


def _count_ctsel_imbalances(function: Function, tainted: set) -> int:
    from repro.ir.instructions import CtSel
    from repro.ir.values import Const, Var

    count = 0
    for block in function.blocks.values():
        for instr in block.instructions:
            if not isinstance(instr, CtSel) or instr.guard:
                continue
            if not (isinstance(instr.cond, Var) and instr.cond.name in tainted):
                continue
            if (
                isinstance(instr.if_true, Const)
                and isinstance(instr.if_false, Const)
            ):
                mask = (1 << 64) - 1
                balanced = bin(instr.if_true.value & mask).count("1") == bin(
                    instr.if_false.value & mask
                ).count("1")
                if balanced:
                    continue
            count += 1
    return count


def check_pass(
    function: Function,
    pass_name: str,
    before: LeakFingerprint,
    module: Optional[Module] = None,
    summaries: Optional[dict] = None,
) -> LeakFingerprint:
    """Assert ``pass_name`` left ``function`` well-formed and leak-free.

    ``before`` is the fingerprint of the pre-pass IR; returns the post-pass
    fingerprint for the caller to thread into the next check.  Raises
    :class:`LeakSanitizerError` on a violation.  The diagnostic anchors the
    pass name in the ``block`` slot (the "location" inside the pipeline).
    ``module`` gives the validator the globals and callees the function
    references; without it a function reading a global array would be
    flagged as using an undefined variable.  ``module`` and ``summaries``
    are handed on to :meth:`LeakFingerprint.of`.
    """
    if OBS.enabled:
        OBS.counter("statics.sanitizer.checks")
    try:
        validate_function(function, module)
    except ValidationError as error:
        raise LeakSanitizerError(
            f"pass {pass_name} left @{function.name} malformed: {error}",
            Diagnostic(
                rule="OPT-SSA-BROKEN",
                severity="error",
                message=(
                    f"pass {pass_name} left @{function.name} malformed: "
                    f"{error}"
                ),
                anchor=Anchor(function.name, pass_name),
                fixit=f"fix or disable the {pass_name} pass",
            ),
        ) from error

    after = LeakFingerprint.of(function, module, summaries)
    if after.branches > before.branches:
        message = (
            f"pass {pass_name} introduced {after.branches - before.branches} "
            f"secret-dependent branch(es) in @{function.name} "
            f"({before.branches} before, {after.branches} after)"
        )
        raise LeakSanitizerError(
            message,
            Diagnostic(
                rule="OPT-LEAK-BRANCH",
                severity="error",
                message=message,
                anchor=Anchor(function.name, pass_name),
                fixit=f"fix or disable the {pass_name} pass",
            ),
        )
    if after.indices > before.indices:
        message = (
            f"pass {pass_name} introduced {after.indices - before.indices} "
            f"secret-indexed access(es) in @{function.name} "
            f"({before.indices} before, {after.indices} after)"
        )
        raise LeakSanitizerError(
            message,
            Diagnostic(
                rule="OPT-LEAK-INDEX",
                severity="error",
                message=message,
                anchor=Anchor(function.name, pass_name),
                fixit=f"fix or disable the {pass_name} pass",
            ),
        )
    if after.ctsel_imbalances > before.ctsel_imbalances:
        message = (
            f"pass {pass_name} introduced "
            f"{after.ctsel_imbalances - before.ctsel_imbalances} "
            f"power-imbalanced secret ctsel(s) in @{function.name} "
            f"({before.ctsel_imbalances} before, "
            f"{after.ctsel_imbalances} after)"
        )
        raise LeakSanitizerError(
            message,
            Diagnostic(
                rule="OPT-LEAK-POWER",
                severity="error",
                message=message,
                anchor=Anchor(function.name, pass_name),
                fixit=f"fix or disable the {pass_name} pass",
            ),
        )
    return after
