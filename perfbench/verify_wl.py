"""``verify``: Covenant 1 verdicts and dudect families on prebuilt artifacts.

Set-up builds the subset's artifacts.  One unit of work (a pass) parses
fresh module objects from the built IR (untimed, so every pass starts with
cold executor caches), then times

* ``check_covenant`` with ``repaired`` and ``repaired_o1`` for every
  program of the subset (``latency_ms`` is the median pass, ``tail_ms``
  the median slowest program), and
* a dudect fixed-vs-random family on ``repaired_o1`` per program on the
  ``batch`` backend (``throughput_per_s`` is dudect vectors per second).

``quality_ratio`` is the geomean of simulated cycles, ``repaired_o1`` over
``original`` (run-time overhead, Fig. 13).

The subset is fixed: :data:`SUBSET_SEED` picks ``chacha20``,
``ctbench_memcmp``, ``raiden`` and ``des3`` (see :func:`subset`);
the seed draws the covenant inputs, the dudect classes and the lanes the
batch-vs-interpreter gate samples.
"""

from __future__ import annotations

import gc
import random
import re
import shutil

from harness import (
    ROOT,
    Context,
    SETUP_REPEATS_COSTLY,
    Outcome,
    add_slowest,
    add_spans,
    check_workers,
    geomean,
    nominal,
    rate_scale,
    repeat_setup,
    time_imports,
    unit_loop,
)

IMPORTS = ["repro.artifacts", "repro.bench.runner", "repro.verify"]
#: Seeds the fixed subset pick; changing it changes the workload.
SUBSET_SEED = 26
#: The kernels carrying most of the exec time; the subset takes one.
EXEC_HEAVY = ("present", "salsa20", "chacha20")
#: Call-heavy CTBench kernels; the subset takes one.
CALL_HEAVY = ("ctbench_memcmp", "ctbench_select")
#: Further programs drawn from the rest of the suite.
OTHERS = 2
SMOKE_SUBSET = ("ofdf", "otdf")
COVENANT_RUNS = 4
DUDECT_MEASUREMENTS = 200
GATE_LANES = 4
#: Passes per run at least: the slowest program's check is one call of
#: several seconds, so a run's median needs three of them.
PASSES = 3


def subset(smoke: bool = False) -> list:
    """The fixed, seeded subset of programs this workload verifies."""
    from repro.bench.suite import benchmark_names

    if smoke:
        return list(SMOKE_SUBSET)
    rng = random.Random(SUBSET_SEED)
    picked = [rng.choice(EXEC_HEAVY), rng.choice(CALL_HEAVY)]
    rest = [n for n in benchmark_names()
            if n not in EXEC_HEAVY + CALL_HEAVY + ("ctbench_modexp",)]
    picked += rng.sample(rest, OTHERS)
    order = benchmark_names()
    return sorted(picked, key=order.index)


def covenant_table() -> dict:
    """``{benchmark: row cells}`` of the committed Covenant 1 table."""
    text = (ROOT / "docs" / "RESULTS.md").read_text()
    section = text.split("## Covenant 1 validation", 1)[1]
    rows = {}
    for line in section.splitlines()[1:]:
        if line.startswith("## "):
            break
        match = re.match(r"\| (\w+) \| (.+) \|$", line)
        if match and match.group(1) != "benchmark":
            rows[match.group(1)] = [c.strip() for c in match.group(2).split("|")]
    return rows


def covenant_row(report) -> list:
    """A report rendered the way ``lif report`` writes the table row."""
    def mark(flag):
        return "ok" if flag else "VIOLATED"

    data = ("yes" if report.data_invariant else "no") + (
        " (predicted)" if report.predicted_data_invariant else ""
    )
    return [
        mark(report.semantics_preserved),
        mark(report.operation_invariant),
        data,
        mark(report.memory_safe),
        "holds" if report.holds else "**VIOLATED**",
    ]


def _random_args(bench, rng) -> list:
    from repro.bench.suite import ArrayArg

    args = []
    for spec in bench.args:
        if isinstance(spec, ArrayArg):
            args.append([rng.getrandbits(64) & spec.mask
                         for _ in range(spec.size)])
        else:
            args.append(rng.getrandbits(64) & spec.mask)
    return args


def build(ctx: Context, names: list):
    from repro.artifacts import ArtifactStore, build_many
    from repro.bench.runner import build_request
    from repro.bench.suite import get_benchmark

    store = ArtifactStore(ctx.work / "store")
    requests = [build_request(get_benchmark(name)) for name in names]
    return build_many(requests, jobs=ctx.jobs, store=store)


def fresh_modules(built) -> dict:
    from repro.artifacts import parse_variant

    return {v: parse_variant(built, v)
            for v in ("original", "repaired", "repaired_o1")}


def prepare(names, builts, seed: int) -> list:
    """(benchmark, fresh modules, covenant inputs) per program.  Fresh
    module objects give every pass cold executor caches."""
    from repro.bench.suite import get_benchmark

    programs = []
    for name, built in zip(names, builts):
        bench = get_benchmark(name)
        programs.append((bench, fresh_modules(built),
                         bench.make_inputs(COVENANT_RUNS, seed=seed)))
    return programs


def verify_pass(programs, seed: int, speed) -> dict:
    """One pass: covenant verdicts, then dudect families, each program
    timed as its own span; returns the spans and everything the gates and
    ratios need."""
    from repro.verify import covenant, dudect
    from repro.verify.covenant import adapt_inputs

    reports = {}
    covenant_spans = []
    for bench, modules, inputs in programs:
        with speed.timed() as span:
            reports[bench.name] = covenant.check_covenant(
                modules["original"], bench.entry, inputs,
                repaired=modules["repaired"],
                repaired_o1=modules["repaired_o1"],
            )
        covenant_spans.append(span)

    families = []
    for bench, modules, inputs in programs:
        original = modules["original"]

        def random_class(rng, _bench=bench, _original=original):
            return adapt_inputs(_original, _bench.entry,
                                [_random_args(_bench, rng)])[0]

        fixed = adapt_inputs(original, bench.entry, inputs[:1])[0]
        families.append((bench, modules, fixed, random_class))
    dudects = {}
    dudect_spans = []
    for bench, modules, fixed, random_class in families:
        with speed.timed() as span:
            dudects[bench.name] = dudect.dudect_test(
                modules["repaired_o1"], bench.entry, fixed, random_class,
                measurements=DUDECT_MEASUREMENTS, seed=seed, backend="batch",
            )
        dudect_spans.append(span)
    return {
        "covenant": covenant_spans,
        "dudect": dudect_spans,
        "vectors": DUDECT_MEASUREMENTS * len(programs),
        "programs": programs,
        "families": families,
        "reports": reports,
        "dudects": dudects,
    }


def cycle_ratio(programs) -> float:
    from repro.bench.runner import measure_cycles
    from repro.verify.covenant import adapt_inputs

    ratios = []
    for bench, modules, inputs in programs:
        original = measure_cycles(modules["original"], bench.entry, inputs)
        repaired = measure_cycles(
            modules["repaired_o1"], bench.entry,
            adapt_inputs(modules["original"], bench.entry, inputs),
        )
        ratios.append(repaired / original)
    return geomean(ratios)


def check_verdicts(reports: dict, table: dict) -> list:
    """Verdicts must equal the committed table; cache-invariance must hold
    for every program the table predicts data invariant."""
    failures = []
    for name, report in reports.items():
        row = covenant_row(report)
        if table.get(name) != row:
            failures.append(f"{name}: covenant verdicts {row} differ from "
                            f"docs/RESULTS.md {table.get(name)}")
        if row[2] == "yes (predicted)" and not (
            report.cache_invariant and report.cache_invariant_o1
        ):
            failures.append(f"{name}: repaired code is not cache invariant")
    return failures


def check_dudect(dudects: dict) -> list:
    return [f"{name}: dudect finds repaired_o1 leaking (t={r.t_statistic})"
            for name, r in dudects.items() if r.leaking]


def check_lanes(families, seed: int) -> list:
    """Batch results must equal interpreter results on sampled lanes."""
    rng = random.Random(seed ^ 0x1A7E)
    failures = []
    for bench, modules, fixed, random_class in families:
        lanes = [list(fixed)] * 2 + [random_class(rng)
                                     for _ in range(GATE_LANES - 2)]
        module = modules["repaired_o1"]
        if not lanes_agree(module, module, bench.entry, lanes):
            failures.append(f"{bench.name}: batch lane differs from the "
                            "interpreter")
    return failures


def lanes_agree(batch_module, reference_module, entry: str, lanes) -> bool:
    """``run_batch`` on ``batch_module`` against the interpreter on
    ``reference_module``, lane by lane (value, cycles, steps, memory)."""
    from repro.exec import make_executor

    batch = make_executor(batch_module, backend="batch", record_trace=False)
    interp = make_executor(reference_module, backend="interp",
                           record_trace=False)
    got = batch.run_batch(entry, lanes)
    return all(
        lane_outputs(result)
        == lane_outputs(interp.run(entry, [_copy(a) for a in lane]))
        for lane, result in zip(lanes, got)
    )


def lane_outputs(result) -> tuple:
    return (result.value, result.cycles, result.steps,
            [list(a) if a is not None else None for a in result.arrays],
            sorted(result.global_state.items()))


def _copy(arg):
    return list(arg) if isinstance(arg, (list, tuple)) else arg


def run(ctx: Context) -> Outcome:
    from layers import LayerClock

    check_workers(ctx.jobs, "the artifact build")
    outcome = Outcome(workers=ctx.jobs)
    names = subset(ctx.smoke)
    builts: list = []

    def setup() -> None:
        shutil.rmtree(ctx.work / "store", ignore_errors=True)
        time_imports(IMPORTS)
        builts[:] = build(ctx, names)

    repeat_setup(ctx, outcome, setup, SETUP_REPEATS_COSTLY)

    clock = LayerClock()
    untraced, traced = [], []
    result = None
    for index in unit_loop(ctx, minimum=PASSES):
        tracing = ctx.trace and index % 2 == 1
        # The previous pass's modules (and the executor caches they key)
        # must not weigh on this one.
        result = programs = None
        gc.collect()
        programs = prepare(names, builts, ctx.seed)
        with clock.tracing(tracing):
            result = verify_pass(programs, ctx.seed, ctx.speed)
        spans = result["covenant"] + result["dudect"]
        outcome.attempted += len(names)
        add_spans(outcome, "latency_ms", result["covenant"])
        add_slowest(outcome, "tail_ms", result["covenant"])
        dudect_s = sum(s.seconds for s in result["dudect"])
        outcome.add("throughput_per_s", result["vectors"] / dudect_s,
                    rate_scale(result["dudect"]))
        wall = sum(s.seconds for s in spans)
        (traced if tracing else untraced).append(spans)
        if tracing:
            values = clock.snapshot()
            values["unattributed_s"] = wall - clock.attributed_s()
            for name, value in values.items():
                outcome.add(name, value)
    outcome.add("quality_ratio", cycle_ratio(result["programs"]))
    if ctx.trace:
        outcome.add("trace.overhead_frac", min(map(nominal, traced))
                    / min(map(nominal, untraced)) - 1.0)

    failures = (check_verdicts(result["reports"], covenant_table())
                + check_dudect(result["dudects"])
                + check_lanes(result["families"], ctx.seed))
    for message in failures:
        outcome.fail(message)
    outcome.failed = len({m.split(":")[0] for m in failures})
    outcome.record["passes"] = len(outcome.samples["latency_ms"])
    outcome.record["subset"] = names
    outcome.record["subset_seed"] = SUBSET_SEED
    return outcome
