"""One fuzz sample: generate, cross-check every oracle, minimize.

A sample is fully determined by ``(case_seed, kind, config)``: inputs are
derived from the sample seed and the minimizer is deterministic, so
:func:`run_one` is a pure function of its arguments up to wall-clock.
The campaign driver in :mod:`repro.fuzz.campaign` derives the sample
seeds (``seed * _SEED_STRIDE + index``) and kinds (:func:`sample_kind`),
fans the samples out and merges their results in index order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.fuzz.corpus import CorpusCase, make_case_id
from repro.fuzz.coverage import sample_keys
from repro.fuzz.generators import (
    FuzzConfig,
    generate_inputs,
    generate_program,
    ir_module_inputs,
    random_ir_module,
    secret_family,
)
from repro.fuzz.minimize import minimize_spec
from repro.fuzz.oracles import SampleInvalid, compile_sample, run_oracles
from repro.fuzz.spec import render_program
from repro.obs import OBS

#: Decorrelates successive base seeds without losing reproducibility.
_SEED_STRIDE = 1_000_003


@dataclass
class FuzzFailure:
    """One disagreement, minimized and ready for the corpus."""

    seed: int
    kind: str  # "minic" | "ir"
    case_id: str
    entry: str
    source: str
    inputs: list
    failed: tuple
    report: dict
    secret_inputs: Optional[list] = None
    minimize_checks: int = 0

    def as_corpus_case(self, note: str = "") -> CorpusCase:
        return CorpusCase(
            case_id=self.case_id,
            kind=self.kind,
            seed=self.seed,
            entry=self.entry,
            source=self.source,
            inputs=self.inputs,
            secret_inputs=self.secret_inputs,
            failed=list(self.failed),
            note=note or "found by lif fuzz; minimized reproducer",
            report=self.report,
        )


# -- one sample --------------------------------------------------------------


def sample_kind(index: int, config: FuzzConfig) -> str:
    if config.ir_fraction and (index + 1) % config.ir_fraction == 0:
        return "ir"
    return "minic"


def run_one(
    case_seed: int,
    kind: str,
    config: FuzzConfig,
    minimize: bool = True,
    max_minimize_checks: int = 1500,
    repair_fn: Optional[Callable] = None,
    spec=None,
    module=None,
) -> dict:
    """Generate and cross-check one sample; minimize on disagreement.

    ``spec`` (MiniC) / ``module`` (IR) inject a pre-materialized sample —
    the campaign passes every materialized genotype, fresh or mutated,
    this way.  The oracle battery runs inside an ``OBS.capture(force=True)``
    window and the result carries the sample's sorted coverage keys under
    ``"coverage"`` (see :mod:`repro.fuzz.coverage`).
    """
    if kind == "ir":
        if module is None:
            module = random_ir_module(case_seed)
        inputs = ir_module_inputs(case_seed)
        source = _ir_text(module)
        entry = "f"
        report, keys = _checked(module, entry, inputs, None, repair_fn)
        result = _result(case_seed, kind, entry, report, keys)
        result["source"] = source
        if not report.ok:
            result.update(inputs=inputs,
                          case_id=make_case_id(case_seed, source))
        return result

    if spec is None:
        spec = generate_program(case_seed, config)
    source = render_program(spec)
    try:
        module = compile_sample(source, name=f"fuzz_{case_seed}")
    except SampleInvalid as error:
        # A generator validity bug: surface it as its own category rather
        # than crashing the campaign (and fail loudly in the summary).
        return {
            "seed": case_seed, "kind": kind, "entry": spec.entry,
            "invalid": str(error), "checked": [], "failed": [],
            "source": source,
        }
    inputs = generate_inputs(spec, case_seed)
    report, keys = _checked(
        module, spec.entry, inputs, secret_family(inputs), repair_fn
    )
    result = _result(case_seed, kind, spec.entry, report, keys)
    result["source"] = source
    if report.ok:
        return result

    checks = 0
    if minimize:
        target = report.failed[0]
        predicate = _failure_predicate(target, case_seed, repair_fn)
        spec, checks = minimize_spec(
            spec, predicate, max_checks=max_minimize_checks
        )
        source = render_program(spec)
        module = compile_sample(source, name=f"fuzz_{case_seed}_min")
        inputs = generate_inputs(spec, case_seed)
        report = run_oracles(
            module, spec.entry, inputs,
            secret_inputs=secret_family(inputs), repair_fn=repair_fn,
        )
        # Coverage reflects the sample as generated, not the shrunk one.
        result = _result(case_seed, kind, spec.entry, report, keys)
        if report.ok:  # cannot happen for a sound predicate; keep the raw case
            result["failed"] = [target]
    result.update(
        source=source,
        inputs=inputs,
        secret_inputs=secret_family(inputs),
        case_id=make_case_id(case_seed, source),
        minimize_checks=checks,
        report_dict=report.as_dict(),
    )
    return result


def _checked(module, entry, inputs, secret_inputs, repair_fn):
    """Run the oracle battery and harvest the sample's coverage keys."""
    with OBS.capture(force=True) as window:
        report = run_oracles(
            module, entry, inputs,
            secret_inputs=secret_inputs, repair_fn=repair_fn,
        )
    return report, sorted(sample_keys(module, entry, inputs, window.counters))


def _result(seed: int, kind: str, entry: str, report, keys: list) -> dict:
    return {
        "seed": seed,
        "kind": kind,
        "entry": entry,
        "checked": [r.name for r in report.results],
        "failed": list(report.failed),
        "report_dict": report.as_dict(),
        "coverage": keys,
    }


def _ir_text(module) -> str:
    from repro.ir import module_to_str

    return module_to_str(module)


def _failure_predicate(target: str, case_seed: int, repair_fn):
    """Build the shrink predicate: does the candidate still fail ``target``?"""

    def predicate(candidate) -> bool:
        try:
            source = render_program(candidate)
            module = compile_sample(source, name="candidate")
            inputs = generate_inputs(candidate, case_seed)
            report = run_oracles(
                module, candidate.entry, inputs,
                secret_inputs=secret_family(inputs), repair_fn=repair_fn,
            )
        except SampleInvalid:
            return False
        except Exception:
            return False
        return target in report.failed

    return predicate
