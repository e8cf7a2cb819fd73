"""Deterministic job execution — the service's view of ``repro.api``.

:func:`execute_job` is the *only* way the service runs work, and it calls
the same public entry points a direct user would (``compile_minic``,
``repair_module``, ``check_covenant``, ``certify_constant_time``,
``make_executor``), so a served result equals a direct one by
construction.  Results exclude anything nondeterministic (wall-clock
seconds live in the event stream, not the result), which is what makes
the benchmark's byte-identical differential gate meaningful.

Workers stay warm between jobs through :func:`prepared_modules`: parsed
and repaired module objects are kept in a bounded LRU memo, which — the
compile and SoA caches both being identity-keyed on module
objects — pins the compiled closures of hot submissions across requests
instead of rebuilding them per request.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from threading import Lock
from typing import Optional

from repro.obs import OBS, env_int
from repro.serve.protocol import JobSpec, encode_json

#: Parsed/repaired modules kept warm per worker (``REPRO_SERVE_WARM``).
WARM_ENV_VAR = "REPRO_SERVE_WARM"
DEFAULT_WARM_MODULES = 32
#: This process's memo bound; the pool sets it from the server's config.
_WARM_LIMIT = DEFAULT_WARM_MODULES

#: ``(source, name, optimize) -> (module, repaired)`` — worker-local.
_WARM_LOCK = Lock()
_WARM_MODULES: "OrderedDict[tuple, tuple]" = OrderedDict()
_WARM_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def prepared_modules(source: str, name: str, optimize: bool):
    """(module, repaired-or-None) for ``source``, through the warm memo.

    The repaired half is filled lazily by the job kinds that need it; the
    memo entry keeps both objects alive so every identity-keyed executor
    cache stays warm for repeat submissions.
    """
    key = (source, name, bool(optimize))
    with _WARM_LOCK:
        entry = _WARM_MODULES.get(key)
        if entry is not None:
            _WARM_MODULES.move_to_end(key)
            _WARM_STATS["hits"] += 1
            if OBS.enabled:
                OBS.counter("serve.worker.warm_hits")
            return entry
    from repro.api import compile_minic

    with OBS.span("serve.stage.compile", module=name):
        module = compile_minic(source, name=name)
    entry = (module, None)
    _remember(key, entry)
    _WARM_STATS["misses"] += 1
    if OBS.enabled:
        OBS.counter("serve.worker.warm_misses")
    return entry


def warm_limit_from_env() -> int:
    """``REPRO_SERVE_WARM``, read once when the server starts."""
    return env_int(WARM_ENV_VAR, DEFAULT_WARM_MODULES, 1)


def set_warm_limit(limit: int) -> None:
    """Bound this process's warm memo to ``limit`` modules."""
    global _WARM_LIMIT
    _WARM_LIMIT = limit


def _remember(key, entry) -> None:
    with _WARM_LOCK:
        _WARM_MODULES[key] = entry
        _WARM_MODULES.move_to_end(key)
        while len(_WARM_MODULES) > _WARM_LIMIT:
            _WARM_MODULES.popitem(last=False)
            _WARM_STATS["evictions"] += 1
            if OBS.enabled:
                OBS.counter("serve.worker.warm_evictions")


def warm_module_stats() -> dict:
    """Hit/miss/eviction counts and occupancy of this worker's memo."""
    with _WARM_LOCK:
        return {**_WARM_STATS, "entries": len(_WARM_MODULES)}


def clear_warm_modules() -> None:
    """Drop the warm memo (tests)."""
    with _WARM_LOCK:
        _WARM_MODULES.clear()
        _WARM_STATS.update(hits=0, misses=0, evictions=0)


def _repaired(source: str, name: str, optimize: bool):
    """Module + repaired module, memoised together."""
    key = (source, name, bool(optimize))
    module, repaired = prepared_modules(source, name, optimize)
    if repaired is None:
        from repro.core import RepairOptions, repair_module
        from repro.opt import optimize as optimize_pipeline

        with OBS.span("serve.stage.repair", module=name):
            repaired = repair_module(module, RepairOptions())
        if optimize:
            with OBS.span("serve.stage.optimize", module=name):
                repaired = optimize_pipeline(repaired)
        _remember(key, (module, repaired))
    return module, repaired


# -- job kinds ----------------------------------------------------------------


def _run_repair(spec: JobSpec) -> dict:
    from repro.ir import module_to_str

    module, repaired = _repaired(spec.source, spec.name, spec.optimize)
    original = module.instruction_count()
    result = repaired.instruction_count()
    return {
        "kind": "repair",
        "module": spec.name,
        "ir": module_to_str(repaired),
        "original_instructions": original,
        "repaired_instructions": result,
        "size_ratio": round(result / original, 4) if original else 0.0,
    }


def make_verify_inputs(module, entry: str, runs: int, seed: int,
                       array_size: int) -> list:
    """The seeded input family ``lif verify`` uses, factored for reuse."""
    function = module.function(entry)
    rng = random.Random(seed)
    inputs = []
    for _ in range(runs):
        call = []
        for param in function.params:
            if param.is_pointer:
                call.append(
                    [rng.getrandbits(16) for _ in range(array_size)]
                )
            else:
                call.append(rng.getrandbits(16))
        inputs.append(call)
    return inputs


def _run_verify(spec: JobSpec) -> dict:
    from repro.verify import check_covenant

    module, _ = prepared_modules(spec.source, spec.name, spec.optimize)
    inputs = make_verify_inputs(
        module, spec.entry, spec.runs, spec.seed, spec.array_size
    )
    with OBS.span("serve.stage.verify", module=spec.name):
        report = check_covenant(
            module, spec.entry, inputs, backend=spec.backend
        )
    return {
        "kind": "verify",
        "module": spec.name,
        "function": spec.entry,
        "semantics_preserved": report.semantics_preserved,
        "operation_invariant": report.operation_invariant,
        "data_invariant": report.data_invariant,
        "memory_safe": report.memory_safe,
        "predicted_data_invariant": report.predicted_data_invariant,
        "inherently_data_inconsistent": report.inherently_data_inconsistent,
        "holds": report.holds,
    }


def _run_certify(spec: JobSpec) -> dict:
    from repro.statics.certifier import certify_entry, certify_module

    module, _ = prepared_modules(spec.source, spec.name, spec.optimize)
    with OBS.span("serve.stage.certify", module=spec.name):
        if spec.entry:
            report = certify_entry(module, spec.entry)
        else:
            report = certify_module(module)
    return {
        "kind": "certify",
        "module": spec.name,
        "report": report.as_dict(),
        "all_certified": report.all_certified,
    }


def _run_run(spec: JobSpec) -> dict:
    from repro.exec import make_executor

    module, _ = prepared_modules(spec.source, spec.name, spec.optimize)
    executor = make_executor(module, backend=spec.backend)
    args = [list(a) if isinstance(a, tuple) else a for a in spec.args]
    with OBS.span("serve.stage.run", module=spec.name):
        result = executor.run(spec.entry, args)
    return {
        "kind": "run",
        "module": spec.name,
        "function": spec.entry,
        "value": result.value,
        "cycles": result.cycles,
        "steps": result.steps,
        "arrays": [
            list(a) if a is not None else None for a in result.arrays
        ],
        "globals": {
            gname: list(cells)
            for gname, cells in sorted(result.global_state.items())
        },
        "violations": len(result.violations),
    }


_KIND_RUNNERS = {
    "repair": _run_repair,
    "verify": _run_verify,
    "certify": _run_certify,
    "run": _run_run,
}


def execute_job(spec: JobSpec) -> dict:
    """Run one job to its deterministic result dict.

    Pipeline failures (parse errors, unknown functions, runtime errors)
    are part of the deterministic result, not transport errors: they come
    back as ``{"kind": ..., "error": ...}`` so a cached failure replays
    exactly like a fresh one.
    """
    runner = _KIND_RUNNERS[spec.kind]
    if OBS.enabled:
        OBS.counter(f"serve.jobs.{spec.kind}")
    with OBS.span("serve.job", job_kind=spec.kind, module=spec.name):
        try:
            return runner(spec)
        except Exception as exc:  # deterministic pipeline failure
            if OBS.enabled:
                OBS.counter("serve.jobs.failed")
            return {
                "kind": spec.kind,
                "module": spec.name,
                "error": f"{type(exc).__name__}: {exc}",
            }


def canonical_result_bytes(result: dict) -> bytes:
    """The canonical encoding stored in the cache and compared by the
    benchmark's differential gate."""
    return encode_json(result)
