"""Benchmark orchestration: build every variant of every routine once.

For each benchmark the harness produces six modules — original, repaired
(ours), SC-Eliminated (baseline), each unoptimised and at -O1 — plus the
baseline's observed outcome (ok / incorrect output / unsupported), matching
the pass/fail/error trichotomy of the original artifact's ``run.sh``.

Since PR 2 the build goes through :mod:`repro.artifacts`: results are
content-addressed on disk (``.repro-cache/``) and whole-suite builds fan
out across a process pool (``--jobs`` / ``REPRO_JOBS``).  Modules are
materialised lazily from the printed IR, so loading a cached suite costs
file reads, not parses.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional, Sequence

from repro.artifacts import (
    BuildRequest,
    BuiltArtifacts,
    build_artifacts,
    build_many,
    default_store,
    parse_variant,
)
from repro.baseline import (
    SCEliminatorOptions,
    SCEliminatorStats,
    UnsupportedProgramError,
    sc_eliminate,
)
from repro.bench.suite import Benchmark, benchmark_names, get_benchmark
from repro.core import RepairOptions, RepairStats, repair_module
from repro.exec import compiled, make_executor
from repro.ir.module import Module
from repro.verify import adapt_inputs

#: Default baseline options used across all experiments.  The inline budget
#: matches what the CTBench routines exceed (the artifact's failure mode).
SCE_OPTIONS = SCEliminatorOptions(inline_budget=20_000)

_MODULE_VARIANTS = (
    ("original", "original"),
    ("original_o1", "original_o1"),
    ("repaired", "repaired"),
    ("repaired_o1", "repaired_o1"),
    ("sce", "sce"),
    ("sce_o1", "sce_o1"),
)


class BenchArtifacts:
    """All compiled variants and metadata for one benchmark.

    A thin lazy view over :class:`repro.artifacts.BuiltArtifacts`: modules
    are parsed from their printed IR on first attribute access, and stats
    dataclasses are rebuilt from the serialised dicts.
    """

    def __init__(self, bench: Benchmark, built: BuiltArtifacts) -> None:
        self.bench = bench
        self.built = built
        self._modules: dict = {}

    def _module(self, variant: str) -> Optional[Module]:
        if variant not in self._modules:
            if variant in self.built.ir:
                self._modules[variant] = parse_variant(self.built, variant)
            else:
                self._modules[variant] = None
        return self._modules[variant]

    @property
    def original(self) -> Module:
        return self._module("original")

    @property
    def original_o1(self) -> Module:
        return self._module("original_o1")

    @property
    def repaired(self) -> Module:
        return self._module("repaired")

    @property
    def repaired_o1(self) -> Module:
        return self._module("repaired_o1")

    @property
    def sce(self) -> Optional[Module]:
        return self._module("sce")

    @property
    def sce_o1(self) -> Optional[Module]:
        return self._module("sce_o1")

    @property
    def repair_stats(self) -> RepairStats:
        from repro.core.rules import RepairCounters

        data = dict(self.built.repair_stats)
        data["per_function"] = {
            name: tuple(pair) for name, pair in data.get("per_function", {}).items()
        }
        counters = data.get("counters")
        if isinstance(counters, dict):
            data["counters"] = RepairCounters(**counters)
        return RepairStats(**data)

    @property
    def opt_pass_stats(self) -> dict:
        """Aggregated optimiser telemetry recorded during the build
        (:meth:`repro.opt.pipeline.OptReport.as_dict`)."""
        return self.built.opt_pass_stats

    @property
    def sce_stats(self) -> Optional[SCEliminatorStats]:
        if self.built.sce_stats is None:
            return None
        data = dict(self.built.sce_stats)
        data["per_function"] = {
            name: tuple(pair) for name, pair in data.get("per_function", {}).items()
        }
        return SCEliminatorStats(**data)

    @property
    def sce_error(self) -> Optional[str]:
        return self.built.sce_error

    @property
    def sce_correct(self) -> Optional[bool]:
        return self.built.sce_correct

    @property
    def cache_hit(self) -> bool:
        return self.built.cache_hit

    @property
    def sce_outcome(self) -> str:
        """'ok' | 'incorrect' | 'error' — the artifact's trichotomy."""
        if self.sce_error is not None:
            return "error"
        return "ok" if self.sce_correct else "incorrect"


def build_request(bench: Benchmark) -> BuildRequest:
    """The content-addressed build request for one benchmark."""
    check_inputs = tuple(
        tuple(tuple(arg) if isinstance(arg, list) else arg for arg in args)
        for args in bench.make_inputs(4)
    )
    return BuildRequest(
        name=bench.name,
        source=bench.source(),
        entry=bench.entry,
        check_inputs=check_inputs,
        sce_inline_budget=SCE_OPTIONS.inline_budget,
    )


_MEMO: dict = {}


def get_artifacts(name: str) -> BenchArtifacts:
    """Build (or load from the artifact cache) one benchmark, memoised."""
    if name not in _MEMO:
        bench = get_benchmark(name)
        built = build_artifacts(build_request(bench), store=default_store())
        _MEMO[name] = BenchArtifacts(bench, built)
    return _MEMO[name]


def clear_artifact_memo() -> None:
    """Drop the in-process memo (the on-disk store is untouched)."""
    _MEMO.clear()


def build_suite(
    names: "Optional[Iterable[str]]" = None,
    jobs: Optional[int] = None,
    store="unset",
) -> "list[BenchArtifacts]":
    """Build many benchmarks at once, fanning out across processes.

    Results come back in input order.  ``store`` defaults to the
    environment-selected cache (:func:`repro.artifacts.default_store`);
    pass ``None`` to force uncached builds.
    """
    if store == "unset":
        store = default_store()
    selected = list(names) if names is not None else benchmark_names()
    benches = [get_benchmark(name) for name in selected]
    built = build_many([build_request(b) for b in benches], jobs=jobs, store=store)
    artifacts = []
    for bench, record in zip(benches, built):
        wrapped = BenchArtifacts(bench, record)
        _MEMO.setdefault(bench.name, wrapped)
        artifacts.append(wrapped)
    return artifacts


def repaired_inputs(
    artifacts: BenchArtifacts, inputs: Sequence[Sequence[object]]
) -> list[list[object]]:
    """Adapt benchmark inputs to the repaired function's contract interface."""
    return adapt_inputs(artifacts.original, artifacts.bench.entry, inputs)


def measure_cycles(
    module: Module,
    entry: str,
    inputs: Sequence[Sequence[object]],
    backend: Optional[str] = None,
) -> float:
    """Mean simulated cycle count over the inputs (deterministic)."""
    interpreter = make_executor(
        module, backend=backend, record_trace=False, strict_memory=False
    )
    total = 0
    for args in inputs:
        total += interpreter.run(entry, [_copy(a) for a in args]).cycles
    return total / len(inputs)


def warm_past_tier_up(executor, entry: str,
                      inputs: Sequence[Sequence[object]]) -> None:
    """Run ``inputs`` until every block they enter has left the compiled
    backend's closure tier, so later timing sees steady-state code."""
    for _ in range(compiled.TIER_UP_THRESHOLD):
        for args in inputs:
            executor.run(entry, [_copy(a) for a in args])


def _copy(arg):
    return list(arg) if isinstance(arg, (list, tuple)) else arg


def time_repair(
    module: Module, repetitions: int = 3, baseline: bool = False
) -> list[float]:
    """Wall-clock seconds per repair run (the RQ1 measurement).

    Following the paper's methodology, only the repair pass itself is
    timed: the shared preprocessing (the "rest of LLVM's processing time")
    runs once outside the timer, and output validation — a debug aid, not
    part of either transformation — is disabled.
    """
    from dataclasses import replace

    from repro.transforms import preprocess_module

    prepared = module.clone()
    try:
        preprocess_module(prepared)
    except Exception:
        return []

    import gc

    samples = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repetitions):
            started = time.perf_counter()
            if baseline:
                try:
                    sc_eliminate(
                        prepared,
                        replace(
                            SCE_OPTIONS,
                            assume_preprocessed=True,
                            validate_output=False,
                        ),
                    )
                except UnsupportedProgramError:
                    return []
            else:
                repair_module(
                    prepared,
                    RepairOptions(assume_preprocessed=True, validate_output=False),
                )
            samples.append(time.perf_counter() - started)
    finally:
        if gc_was_enabled:
            gc.enable()
    return samples
