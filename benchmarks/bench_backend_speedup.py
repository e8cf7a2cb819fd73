"""Backend speedup — compiled executor vs reference interpreter.

Measures wall-clock dynamic-execution time of the figure-13/14 workloads
(repaired benchmark routines at -O1, plus the oFdF scaling kernels) under
both backends and reports the per-workload and geometric-mean speedups.
The acceptance bar for the compiled backend is a >= 5x geomean in its
dedicated no-trace fast mode, measured in steady state: the compiled
executor is first run past its tier-up threshold, so every block it times
runs generated code.  A cold column adds what a short-lived caller pays:
executor construction on a fresh compile plus the first ``COLD_RUNS`` runs.
Results are written to ``BENCH_backend.json`` at the repository root.

Run standalone (``python benchmarks/bench_backend_speedup.py``) or through
pytest with the rest of the figure benchmarks.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.bench.runner import (
    get_artifacts,
    repaired_inputs,
    warm_past_tier_up,
)
from repro.bench.stats import geomean
from repro.bench.suite import make_ofdf_source
from repro.core import repair_module
from repro.exec import clear_compile_cache, make_executor
from repro.frontend import compile_source
from repro.opt import optimize
from repro.verify import adapt_inputs

#: The figure-13 routines used for the headline number: the synthetic
#: quartet's representative, small and large ciphers, and the CTBench
#: routine whose repair is dominated by straight-line arithmetic.
FIG13_WORKLOADS = ("tea", "xtea", "speck", "chacha20", "aes",
                   "ctbench_memcmp")

#: Figure-14 oFdF sizes (kept small: each size is a separate module).
FIG14_SIZES = (64, 128)

#: Runs counted in the cold column after executor construction.
COLD_RUNS = 4

_REPEATS = 3
_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_backend.json"


def _copy(arg):
    return list(arg) if isinstance(arg, list) else arg


def _time_run(module, entry, inputs, backend):
    """Best-of-N wall-clock seconds for one steady-state pass over ``inputs``.

    The executor is built, and the compiled one run past its tier-up
    threshold, outside the timed region: both are paid once per module
    (and shared through the compile cache), so steady-state execution speed
    is what the figure workloads actually see.
    """
    executor = make_executor(
        module, backend=backend, record_trace=False, strict_memory=False,
    )
    if backend == "compiled":
        warm_past_tier_up(executor, entry, inputs)
    best = None
    for _ in range(_REPEATS):
        started = time.perf_counter()
        for args in inputs:
            executor.run(entry, [_copy(a) for a in args])
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best


def _time_cold(module, entry, inputs, backend):
    """Best-of-N seconds for executor construction plus the first
    ``COLD_RUNS`` runs on a fresh compile: what a short-lived caller pays."""
    best = None
    for _ in range(_REPEATS):
        clear_compile_cache()
        started = time.perf_counter()
        executor = make_executor(
            module, backend=backend, record_trace=False, strict_memory=False,
        )
        for k in range(COLD_RUNS):
            executor.run(entry, [_copy(a) for a in inputs[k % len(inputs)]])
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best


def _fig13_cases():
    for name in FIG13_WORKLOADS:
        artifacts = get_artifacts(name)
        inputs = repaired_inputs(artifacts, artifacts.bench.make_inputs(2))
        yield f"{name}-repaired-O1", artifacts.repaired_o1, (
            artifacts.bench.entry, inputs
        )


def _fig14_cases():
    for size in FIG14_SIZES:
        module = compile_source(make_ofdf_source(size), name=f"ofdf{size}")
        repaired_o1 = optimize(repair_module(module))
        inputs = adapt_inputs(module, "ofdf", [
            [[7] * size, [7] * size],
            [[1] + [7] * (size - 1), [2] + [7] * (size - 1)],
        ])
        yield f"ofdf{size}-repaired-O1", repaired_o1, ("ofdf", inputs)


def measure_backend_speedups():
    """One row per workload: interp seconds, compiled seconds, speedup."""
    rows = []
    for label, module, (entry, inputs) in (
        *_fig13_cases(), *_fig14_cases()
    ):
        interp_cold = _time_cold(module, entry, inputs, "interp")
        compiled_cold = _time_cold(module, entry, inputs, "compiled")
        interp = _time_run(module, entry, inputs, "interp")
        compiled = _time_run(module, entry, inputs, "compiled")
        rows.append({
            "workload": label,
            "interp_seconds": interp,
            "compiled_seconds": compiled,
            "speedup": interp / compiled,
            "interp_cold_seconds": interp_cold,
            "compiled_cold_seconds": compiled_cold,
            "cold_speedup": interp_cold / compiled_cold,
        })
    return rows


def report(rows):
    summary = {
        "workloads": rows,
        "geomean_speedup": geomean([r["speedup"] for r in rows]),
        "geomean_cold_speedup": geomean([r["cold_speedup"] for r in rows]),
        "cold_runs": COLD_RUNS,
        "repeats": _REPEATS,
        "mode": "no-trace",
    }
    _RESULT_PATH.write_text(json.dumps(summary, indent=2) + "\n")
    return summary


def test_backend_speedup(capsys):
    rows = measure_backend_speedups()
    summary = report(rows)
    with capsys.disabled():
        print("\n== Backend speedup: compiled vs interp (wall clock) ==")
        for row in rows:
            print(
                f"  {row['workload']:>24}: {row['interp_seconds'] * 1e3:8.1f} ms"
                f" -> {row['compiled_seconds'] * 1e3:7.1f} ms"
                f"  ({row['speedup']:.2f}x); cold"
                f" {row['compiled_cold_seconds'] * 1e3:7.1f} ms"
                f" ({row['cold_speedup']:.2f}x)"
            )
        print(f"  geomean speedup: {summary['geomean_speedup']:.2f}x, "
              f"cold {summary['geomean_cold_speedup']:.2f}x "
              f"(written to {_RESULT_PATH.name})")
    assert summary["geomean_speedup"] >= 5.0, (
        "compiled backend must be at least 5x faster than the interpreter "
        f"on the figure workloads, got {summary['geomean_speedup']:.2f}x"
    )


if __name__ == "__main__":
    result = report(measure_backend_speedups())
    for entry in result["workloads"]:
        print(f"{entry['workload']:>24}: {entry['speedup']:.2f}x, "
              f"cold {entry['cold_speedup']:.2f}x")
    print(f"geomean: {result['geomean_speedup']:.2f}x, "
          f"cold {result['geomean_cold_speedup']:.2f}x")
