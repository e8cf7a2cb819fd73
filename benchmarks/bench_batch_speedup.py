"""Batch backend speedup — lock-step lanes vs a scalar compiled loop.

Measures wall-clock time of the many-vector verify/fuzz workload shapes —
dudect's fixed-vs-random measurement family, the covenant secret-input
family (``check_invariance`` with traces), and the semantics oracle's
matched-pair family (no traces) — submitted as one batch versus a scalar
loop over the compiled backend.  Three columns per workload: the scalar
loop, the lock-step tier alone (``trace_spec`` off), and the full batch
backend with the trace-speculative superblock tier (the shipped default).
The acceptance bar is a >= 5x geomean for the shipped configuration;
results are written to ``BENCH_batch.json`` at the repository root.

Run standalone (``python benchmarks/bench_batch_speedup.py``) or through
pytest with the rest of the figure benchmarks.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

from repro.bench.runner import (
    get_artifacts,
    repaired_inputs,
    warm_past_tier_up,
)
from repro.bench.stats import geomean
from repro.exec import BatchExecutor, make_executor, run_many

#: Repaired-at-O1 kernels of the verify/fuzz hot path: the synthetic
#: quartet's representative, three ciphers, and the CTBench comparator
#: (call-heavy: one helper invocation per byte).
KERNELS = ("tea", "xtea", "speck", "chacha20", "ctbench_memcmp")

#: Lanes per family — the scale dudect (measurements) and the fuzz
#: oracles (vectors x variants) actually submit per call site.
LANES = 128

_REPEATS = 3
_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_batch.json"


def _copy(arg):
    return list(arg) if isinstance(arg, list) else arg


def _randomized(args, rng):
    """A fresh vector differing from ``args`` only in its array (secret)
    arguments — the secret-family shape of dudect's random class and the
    covenant input families."""
    fresh = []
    for arg in args:
        if isinstance(arg, list):
            bound = max([abs(v) for v in arg] + [255])
            fresh.append([rng.randint(0, bound) for _ in arg])
        else:
            fresh.append(arg)
    return fresh


def _dudect_family(template):
    """Fixed/random interleaved, exactly like the measurement loop."""
    rng = random.Random(0)
    vectors = []
    for index in range(LANES):
        if index % 2 == 0:
            vectors.append([_copy(a) for a in template])
        else:
            vectors.append(_randomized(template, rng))
    return vectors


def _secret_family(template):
    """All-distinct secret variants (check_invariance / fuzz oracles)."""
    rng = random.Random(1)
    return [_randomized(template, rng) for _ in range(LANES)]


def _workloads():
    for name in KERNELS:
        artifacts = get_artifacts(name)
        entry = artifacts.bench.entry
        module = artifacts.repaired_o1
        template = repaired_inputs(
            artifacts, artifacts.bench.make_inputs(1)
        )[0]
        yield (f"dudect-{name}", module, entry, _dudect_family(template),
               False)
        yield (f"secretfam-{name}", module, entry, _secret_family(template),
               True)


def _time_scalar(module, entry, vectors, record_trace):
    executor = make_executor(
        module, backend="compiled", record_trace=record_trace,
        strict_memory=False,
    )
    # Time steady state: generated code for every block, as in
    # BENCH_backend (the leader lane of the batch runs shares it).
    warm_past_tier_up(executor, entry, vectors[:2])
    best = None
    for _ in range(_REPEATS):
        started = time.perf_counter()
        for args in vectors:
            executor.run(entry, [_copy(a) for a in args])
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best


def _time_batch(module, entry, vectors, record_trace, trace_spec):
    executor = BatchExecutor(
        module, record_trace=record_trace, strict_memory=False,
        trace_spec=trace_spec,
    )
    executor.run_batch(entry, vectors[:2])  # pay lowering outside the timer
    best = None
    for _ in range(_REPEATS):
        started = time.perf_counter()
        executor.run_batch(entry, vectors)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best


def _check_lanes(module, entry, vectors, record_trace):
    """The differential gate: per-lane results must equal the scalar loop."""
    scalar = make_executor(
        module, backend="compiled", record_trace=record_trace,
        strict_memory=False,
    )
    batch = make_executor(
        module, backend="batch", record_trace=record_trace,
        strict_memory=False,
    )
    ref = [scalar.run(entry, [_copy(a) for a in v]) for v in vectors]
    got = run_many(batch, entry, vectors)
    for r, g in zip(ref, got):
        if (r.value, r.cycles, r.steps, r.trace, r.arrays,
                r.global_state) != (g.value, g.cycles, g.steps, g.trace,
                                    g.arrays, g.global_state):
            return False
    return True


def measure_batch_speedups():
    """One row per workload: scalar, lock-step, and trace-tier seconds."""
    rows = []
    for label, module, entry, vectors, record_trace in _workloads():
        assert _check_lanes(module, entry, vectors, record_trace), (
            f"{label}: batch lanes diverge from the scalar loop"
        )
        scalar = _time_scalar(module, entry, vectors, record_trace)
        lockstep = _time_batch(
            module, entry, vectors, record_trace, trace_spec=False
        )
        traced = _time_batch(
            module, entry, vectors, record_trace, trace_spec=True
        )
        rows.append({
            "workload": label,
            "lanes": len(vectors),
            "scalar_seconds": scalar,
            "batch_seconds": lockstep,
            "batch_trace_seconds": traced,
            "batch_speedup": scalar / lockstep,
            "batch_trace_speedup": scalar / traced,
        })
    return rows


def report(rows):
    summary = {
        "workloads": rows,
        "geomean_batch_speedup": geomean(
            [r["batch_speedup"] for r in rows]
        ),
        "geomean_batch_trace_speedup": geomean(
            [r["batch_trace_speedup"] for r in rows]
        ),
        "lanes": LANES,
        "repeats": _REPEATS,
        "baseline": "compiled",
    }
    _RESULT_PATH.write_text(json.dumps(summary, indent=2) + "\n")
    return summary


def test_batch_speedup(capsys):
    rows = measure_batch_speedups()
    summary = report(rows)
    with capsys.disabled():
        print("\n== Batch backend speedup vs scalar compiled loop ==")
        for row in rows:
            print(
                f"  {row['workload']:>24}: {row['scalar_seconds'] * 1e3:8.1f} ms"
                f" -> lock-step {row['batch_seconds'] * 1e3:7.1f} ms"
                f" ({row['batch_speedup']:.2f}x)"
                f" / trace {row['batch_trace_seconds'] * 1e3:7.1f} ms"
                f" ({row['batch_trace_speedup']:.2f}x)"
            )
        print(
            f"  geomean: lock-step {summary['geomean_batch_speedup']:.2f}x, "
            f"trace tier {summary['geomean_batch_trace_speedup']:.2f}x "
            f"(written to {_RESULT_PATH.name})"
        )
    assert summary["geomean_batch_trace_speedup"] >= 5.0, (
        "batch backend must be at least 5x faster than a scalar compiled "
        "loop on the verify/fuzz many-vector workloads, got "
        f"{summary['geomean_batch_trace_speedup']:.2f}x"
    )


if __name__ == "__main__":
    result = report(measure_batch_speedups())
    for entry in result["workloads"]:
        print(
            f"{entry['workload']:>24}: {entry['batch_speedup']:.2f}x / "
            f"{entry['batch_trace_speedup']:.2f}x"
        )
    print(
        f"geomean: {result['geomean_batch_speedup']:.2f}x lock-step, "
        f"{result['geomean_batch_trace_speedup']:.2f}x trace tier"
    )
