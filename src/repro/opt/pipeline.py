"""The optimisation pipeline (the paper's ``opt -O1`` stand-in).

The paper reports results for -O1 and notes its findings hold for -O2, -O3
and -Oz; this pipeline is a single cleanup level run to fixpoint, which is
what those levels have in common for the straight-line integer code the
repair produces.

Three passes: ``simplifycfg`` (run first, and again only once a branch
condition has folded to a constant), the combined ``simplify`` walk
(:mod:`repro.opt.simplify`) and one mark-and-sweep ``dce``.  The loop
repeats until no pass fires, which is usually its second round.

Per-pass telemetry — wall time, instructions eliminated, fixpoint
iteration counts, rewrites per simplify rule — is recorded into an
:class:`OptReport` when one is passed (the artifact builder persists it
per benchmark) and mirrored to ``repro.obs`` counters/timers when tracing
is enabled (``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.ir.function import Function
from repro.ir.instructions import Br
from repro.ir.module import Module
from repro.ir.validate import validate_module
from repro.ir.values import Const
from repro.obs import OBS, env_flag
from repro.opt.dce import eliminate_dead_code
from repro.opt.sanitize import LeakFingerprint, check_pass, sanitize_enabled
from repro.opt.simplify import simplify_ssa
from repro.opt.simplifycfg import simplify_cfg

#: Name and implementation of each pass, in pipeline order.
PASSES: tuple[tuple[str, object], ...] = (
    ("simplifycfg", simplify_cfg),
    ("simplify", simplify_ssa),
    ("dce", eliminate_dead_code),
)

#: Pipeline rounds per function before the loop gives up on a fixpoint
#: (counted as ``opt.fixpoint_capped``; the pipeline passes need two).
_MAX_ITERATIONS = 6


@dataclass
class OptReport:
    """Per-pass telemetry of one or more ``optimize`` calls.

    The ``pass_*`` maps aggregate across every function and call that
    shared this report: wall-clock seconds, number of times the pass
    reported a change, and net instructions eliminated (negative means the
    pass grew the code).  ``fixpoint_iterations`` counts pipeline
    round-trips, ``functions`` the functions optimised.
    """

    pass_seconds: dict[str, float] = field(default_factory=dict)
    pass_fired: dict[str, int] = field(default_factory=dict)
    pass_eliminated: dict[str, int] = field(default_factory=dict)
    fixpoint_iterations: int = 0
    functions: int = 0

    def as_dict(self) -> dict:
        """The aggregate pass statistics, JSON-ready (for the artifact store)."""
        return {
            "pass_seconds": dict(self.pass_seconds),
            "pass_fired": dict(self.pass_fired),
            "pass_eliminated": dict(self.pass_eliminated),
            "fixpoint_iterations": self.fixpoint_iterations,
            "functions": self.functions,
        }


def _has_constant_branch(function: Function) -> bool:
    return any(
        type(block.terminator) is Br and type(block.terminator.cond) is Const
        for block in function.blocks.values()
    )


def optimize_function(
    function: Function,
    report: "OptReport | None" = None,
    sanitize: "bool | None" = None,
    passes: "tuple[tuple[str, object], ...] | None" = None,
    module: "Module | None" = None,
) -> list[str]:
    """Run the pipeline on one function to fixpoint; returns passes that fired.

    ``sanitize`` enables the per-pass leakage sanitizer
    (:mod:`repro.opt.sanitize`); ``None`` defers to the
    ``REPRO_OPT_SANITIZE`` env var.  ``passes`` overrides the pipeline —
    the sanitizer's tests inject a deliberately leak-introducing pass.
    ``module`` is handed to the sanitizer so globals and callees resolve.
    """
    if passes is None:
        passes = PASSES
    if sanitize is None:
        sanitize = sanitize_enabled()
    if sanitize:
        # Callees do not change while this function is optimised, so every
        # check can reuse their summaries.
        summaries: dict = {}
        fingerprint = LeakFingerprint.of(function, module, summaries)
    fired: list[str] = []
    collecting = report is not None or OBS.enabled
    rules: dict[str, int] = {}
    iterations = 0
    for _ in range(_MAX_ITERATIONS):
        changed = False
        iterations += 1
        for name, pass_fn in passes:
            # Only a folded branch condition gives simplifycfg new work:
            # the other passes never rewire an edge.
            if name == "simplifycfg" and iterations > 1 \
                    and not _has_constant_branch(function):
                continue
            if collecting:
                size_before = function.instruction_count()
                started = time.perf_counter()
            if pass_fn is simplify_ssa:
                did_change = simplify_ssa(function, rules)
            else:
                did_change = pass_fn(function)
            if collecting:
                elapsed = time.perf_counter() - started
                eliminated = size_before - function.instruction_count()
                if report is not None:
                    report.pass_seconds[name] = (
                        report.pass_seconds.get(name, 0.0) + elapsed
                    )
                    if did_change:
                        report.pass_fired[name] = report.pass_fired.get(name, 0) + 1
                    report.pass_eliminated[name] = (
                        report.pass_eliminated.get(name, 0) + eliminated
                    )
                if OBS.enabled:
                    OBS.counter(f"opt.pass.{name}.seconds", elapsed)
                    OBS.counter(f"opt.pass.{name}.eliminated", eliminated)
                    if did_change:
                        OBS.counter(f"opt.pass.{name}.fired")
            if sanitize and did_change:
                # A pass that reported no change cannot have introduced a
                # leak, so only rewrites pay for the re-analysis.
                fingerprint = check_pass(
                    function, name, fingerprint, module, summaries
                )
            if did_change:
                fired.append(name)
                changed = True
        if not changed:
            break
    else:
        if OBS.enabled:
            OBS.counter("opt.fixpoint_capped")
            OBS.event("opt.fixpoint_capped", function=function.name)
    if report is not None:
        report.fixpoint_iterations += iterations
        report.functions += 1
    if OBS.enabled:
        OBS.counter("opt.fixpoint_iterations", iterations)
        OBS.counter("opt.functions")
        for rule, count in rules.items():
            OBS.counter(f"opt.pass.simplify.{rule}", count)
    return fired


def _default_validate() -> bool:
    return env_flag("REPRO_OPT_VALIDATE", True)


def optimize(
    module: Module,
    level: int = 1,
    report: "OptReport | None" = None,
    validate: "bool | None" = None,
    sanitize: "bool | None" = None,
) -> Module:
    """Optimise a copy of the module; ``level=0`` is the identity.

    ``validate`` gates the full-module validation of the result: ``None``
    defers to the ``REPRO_OPT_VALIDATE`` env var (on unless set to an off
    word such as ``0``).
    The bench harness passes ``False`` so hot-loop rebuilds skip it; tests
    keep the default.  ``sanitize`` gates the per-pass leakage sanitizer
    (default: the ``REPRO_OPT_SANITIZE`` env var, off unless set to an on
    word such as ``1``).
    """
    result = module.clone()
    if level <= 0:
        return result
    if sanitize is None:
        sanitize = sanitize_enabled()
    with OBS.span("opt.optimize", module=module.name):
        for function in result.functions.values():
            optimize_function(function, report, sanitize=sanitize, module=result)
    if validate if validate is not None else _default_validate():
        validate_module(result)
    return result
