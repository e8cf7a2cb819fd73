"""``suite``: cold ``lif suite`` build of all 24 programs, then a warm reload.

One unit of work builds every program (all variants, SCE baseline and its
output check, O1, certification) into a fresh artifact store through
one serial ``build_many`` call (``jobs=1``, so in this process), then
reloads the store and materialises every variant with ``parse_variant``.
The same store is written cold and read warm.

The build is serial because only work in this process is scaled by loops
run on its own CPU: with two build workers, each program's time follows
the state of the CPU it ran on, which the probe cannot see, and the
programs' build times spread by a quarter between runs.

Metrics: ``latency_ms`` is the median cold build, ``tail_ms`` the median
over units of the mean build time of the slowest quarter of the programs
(their stage timings in the build records), ``throughput_per_s`` is
variants materialised per second by the warm reload, ``quality_ratio`` is
the geomean of ``repaired_o1`` over ``original_o1`` instruction counts
(code size, Fig. 15).

The programs are the paper's suite, fixed; the seed picks the inputs of the
interpreter agreement gate and the order of the warm reload.
"""

from __future__ import annotations

import gc
import random
import shutil

from harness import (
    Context,
    Outcome,
    add_spans,
    geomean,
    nominal,
    rate_scale,
    repeat_setup,
    time_scale,
    time_imports,
    unit_loop,
)

IMPORTS = ["repro.artifacts", "repro.bench.runner", "repro.bench.suite"]
SMOKE_PROGRAMS = ("ofdf", "tea", "ctbench_modexp")
GATE_INPUTS = 2
#: ``tail_ms`` averages the slowest 1/TAIL_SHARE of the programs' builds:
#: six of 24.  A single rank such as the p90 falls between the three
#: heavy ciphers and the rest, and jumped between them; the mean of the
#: slowest three still spread 0.16 over five seeds, the slowest six 0.09.
TAIL_SHARE = 4


def _requests(names):
    from repro.bench.runner import build_request
    from repro.bench.suite import get_benchmark

    return [build_request(get_benchmark(name)) for name in names]


def _program_names(ctx: Context) -> list:
    from repro.bench.suite import benchmark_names

    return list(SMOKE_PROGRAMS) if ctx.smoke else benchmark_names()


def setup(ctx: Context) -> None:
    time_imports(IMPORTS)
    _requests(_program_names(ctx))


def build_unit(ctx: Context, requests: list, order: list, index: int):
    """One cold build, as a single serial ``build_many`` of every program,
    then a timed warm reload.

    Returns ``(cold span, warm span, variants, cold, warm, tails)``:
    ``tails`` holds each program's build seconds (its stage timings).  The
    reload parses every variant and drops it, as a one-shot ``lif suite``
    run would; the gates re-parse the warm records untimed.
    """
    from repro.artifacts import ArtifactStore, build_many, parse_variant

    root = ctx.work / f"store-{index}"
    gc.collect()
    with ctx.speed.timed() as cold_span:
        cold = build_many(requests, jobs=1, store=ArtifactStore(root))
    tails = [sum(record.timings.values()) for record in cold]

    gc.collect()
    warm = {}
    variants = 0
    store = ArtifactStore(root)
    with ctx.speed.timed() as warm_span:
        for position in order:
            built = store.load(requests[position].key())
            for variant in built.ir:
                parse_variant(built, variant)
                variants += 1
            warm[position] = built
    shutil.rmtree(root, ignore_errors=True)
    return cold_span, warm_span, variants, cold, warm, tails


def check_unit(requests, cold, warm, seed: int) -> list:
    """Correctness gates for one unit; returns failure messages.

    * every warm variant prints byte-identically to the cold build's IR;
    * the SCE outcome (ok / incorrect / error) is the suite's expected one,
      so ``sce_correct`` holds wherever SCE should work;
    * ``repaired_o1`` agrees with ``original`` under the interpreter.
    """
    from repro.artifacts import parse_variant
    from repro.bench.runner import BenchArtifacts
    from repro.bench.suite import get_benchmark
    from repro.exec import make_executor
    from repro.ir.printer import module_to_str
    from repro.verify import adapt_inputs

    failures = []
    for position, request in enumerate(requests):
        built = cold[position]
        if position not in warm:
            failures.append(f"{request.name}: missing from the warm reload")
            continue
        warm_built = warm[position]
        modules = {
            variant: parse_variant(warm_built, variant)
            for variant in warm_built.ir
        }
        if sorted(built.ir) != sorted(warm_built.ir):
            failures.append(f"{request.name}: cold and warm variants differ")
            continue
        for variant, module in modules.items():
            if module_to_str(module) != built.ir[variant]:
                failures.append(
                    f"{request.name}/{variant}: warm IR does not print like "
                    "the cold build"
                )
        bench = get_benchmark(request.name)
        outcome = BenchArtifacts(bench, built).sce_outcome
        if outcome != bench.sce_expected:
            failures.append(
                f"{request.name}: SCE outcome {outcome}, expected "
                f"{bench.sce_expected}"
            )
        original = modules["original"]
        inputs = bench.make_inputs(GATE_INPUTS, seed=seed)
        adapted = adapt_inputs(original, bench.entry, inputs)
        reference = make_executor(original, backend="interp",
                                  record_trace=False)
        repaired = make_executor(modules["repaired_o1"], backend="interp",
                                 record_trace=False, strict_memory=False)
        for args, rargs in zip(inputs, adapted):
            want = reference.run(bench.entry, [_copy(a) for a in args])
            got = repaired.run(bench.entry, [_copy(a) for a in rargs])
            got_arrays = [a for a in got.arrays if a is not None]
            want_arrays = [a for a in want.arrays if a is not None]
            if want.value != got.value or want_arrays != got_arrays:
                failures.append(
                    f"{request.name}: repaired_o1 disagrees with original "
                    "under the interpreter"
                )
                break
    return failures


def _copy(arg):
    return list(arg) if isinstance(arg, (list, tuple)) else arg


def size_ratio(cold) -> float:
    return geomean(
        built.instruction_counts["repaired_o1"]
        / built.instruction_counts["original_o1"]
        for built in cold
    )


def _layer_values(clock, cold, wall_s: float) -> dict:
    """Per-layer metrics of one traced unit (its cold build plus reload)."""
    values = clock.snapshot()
    passes: dict = {}
    iterations = ctsels = shadow = 0
    for built in cold:
        stats = built.opt_pass_stats
        for name, seconds in stats.get("pass_seconds", {}).items():
            passes[name] = passes.get(name, 0.0) + seconds
        iterations += stats.get("fixpoint_iterations", 0)
        counters = built.repair_stats.get("counters", {})
        ctsels += counters.get("ctsels_inserted", 0)
        shadow += counters.get("shadow_slots", 0)
    for name, seconds in passes.items():
        values[f"opt.{name}_s"] = seconds
    values["opt.fixpoint_iterations"] = iterations
    values["core.ctsels"] = ctsels
    values["core.shadow_slots"] = shadow
    # Seconds of the unit not spent in any timed layer: the store, glue.
    values["unattributed_s"] = wall_s - clock.attributed_s()
    return values


def run(ctx: Context) -> Outcome:
    from layers import LayerClock

    outcome = Outcome(workers=1)
    repeat_setup(ctx, outcome, lambda: setup(ctx))
    names = _program_names(ctx)
    requests = _requests(names)
    rng = random.Random(ctx.seed)
    order = list(range(len(requests)))
    rng.shuffle(order)

    clock = LayerClock()
    untraced, traced = [], []
    cold = warm = None
    for index in unit_loop(ctx):
        tracing = ctx.trace and index % 2 == 1
        cold = warm = None  # the previous unit's heap must not weigh on this one
        with clock.tracing(tracing):
            cold_span, warm_span, variants, cold, warm, tails = build_unit(
                ctx, requests, order, index
            )
        outcome.attempted += len(requests)
        add_spans(outcome, "latency_ms", [cold_span])
        slowest = sorted(tails)[-max(1, len(tails) // TAIL_SHARE):]
        outcome.add("tail_ms", sum(slowest) / len(slowest) * 1000.0,
                    time_scale([cold_span]))
        outcome.add("throughput_per_s", variants / warm_span.seconds,
                    rate_scale([warm_span]))
        spans = [cold_span, warm_span]
        (traced if tracing else untraced).append(spans)
        if tracing:
            if "core.repair" not in clock.seconds:
                outcome.fail("traced build timed no repair calls")
            wall = sum(s.seconds for s in spans)
            for name, value in _layer_values(clock, cold, wall).items():
                outcome.add(name, value)
    outcome.add("quality_ratio", size_ratio(cold))
    if ctx.trace:
        outcome.add("trace.overhead_frac", min(map(nominal, traced))
                    / min(map(nominal, untraced)) - 1.0)

    failures = check_unit(requests, cold, warm, ctx.seed)
    for message in failures:
        outcome.fail(message)
    outcome.failed = len({m.split(":")[0].split("/")[0] for m in failures})
    outcome.record["units"] = len(outcome.samples["latency_ms"])
    outcome.record["programs"] = names
    return outcome
