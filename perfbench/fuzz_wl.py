"""``fuzz``: coverage-guided campaigns, ``repro.api.fuzz(mutate=True, jobs=1)``.

The sample rate depends strongly on the campaign seed (7-12 samples/s
across seeds), so the workload runs a fixed pool of campaigns — seeds
:data:`POOL` with :data:`SAMPLES` samples each — and the run's seed only
orders them.  One unit of work is one pass over the pool; passes are whole,
so every run measures the same campaigns.  Set-up runs a warm-up campaign
outside the pool (the first campaign in a fresh process is ~20% slower).

``latency_ms`` is the median pool pass, ``tail_ms`` the median slowest
campaign,
``throughput_per_s`` samples per second over all passes, and
``quality_ratio`` samples per coverage key (a faster campaign that covers
less reads worse).
"""

from __future__ import annotations

import random

from harness import (
    Context,
    Outcome,
    add_slowest,
    add_spans,
    nominal,
    rate_scale,
    repeat_setup,
    time_imports,
    unit_loop,
)

IMPORTS = ["repro.api", "repro.fuzz.campaign"]
POOL = (11, 23, 37, 41, 53, 67)
SAMPLES = 6
SMOKE_POOL = (11, 23)
SMOKE_SAMPLES = 3
WARMUP_SEED = 5


def campaign(seed: int, samples: int):
    from repro import api

    return api.fuzz(seed=seed, iterations=samples, mutate=True, jobs=1)


def setup(ctx: Context) -> None:
    time_imports(IMPORTS)
    campaign(WARMUP_SEED, SMOKE_SAMPLES if ctx.smoke else SAMPLES // 2)


def check_reports(reports: dict) -> list:
    """Every campaign is clean, and repeats of a seed report identically."""
    failures = []
    for seed, dicts in reports.items():
        for index, (ok, record) in enumerate(dicts):
            if not ok:
                failures.append(f"campaign {seed}: oracle failures "
                                f"{record.get('failures')}")
            if index and record != dicts[0][1]:
                failures.append(f"campaign {seed}: report differs between "
                                "runs of the same seed")
    return failures


def run(ctx: Context) -> Outcome:
    from layers import LayerClock

    outcome = Outcome(workers=1)
    repeat_setup(ctx, outcome, lambda: setup(ctx))
    pool = list(SMOKE_POOL if ctx.smoke else POOL)
    samples = SMOKE_SAMPLES if ctx.smoke else SAMPLES
    random.Random(ctx.seed).shuffle(pool)

    clock = LayerClock()
    reports: dict = {seed: [] for seed in pool}
    keys: dict = {}
    all_spans: list = []
    untraced, traced = [], []
    for index in unit_loop(ctx):
        tracing = ctx.trace and index % 2 == 1
        spans = []
        with clock.tracing(tracing):
            for seed in pool:
                with ctx.speed.timed() as span:
                    report = campaign(seed, samples)
                spans.append(span)
                reports[seed].append((report.ok, report.as_dict()))
                keys[seed] = report.coverage_keys
        all_spans += spans
        outcome.attempted += len(pool) * samples
        add_spans(outcome, "latency_ms", spans)
        add_slowest(outcome, "tail_ms", spans)
        (traced if tracing else untraced).append(spans)
        if tracing:
            values = clock.snapshot()
            values["unattributed_s"] = (sum(s.seconds for s in spans)
                                        - clock.attributed_s())
            values["fuzz.coverage_keys"] = sum(keys.values())
            for name, value in values.items():
                outcome.add(name, value)
    seconds = sum(s.seconds for s in all_spans)
    outcome.add("throughput_per_s", outcome.attempted / seconds,
                rate_scale(all_spans))
    outcome.add("quality_ratio",
                len(pool) * samples / sum(keys.values()))
    if ctx.trace:
        outcome.add("trace.overhead_frac", min(map(nominal, traced))
                    / min(map(nominal, untraced)) - 1.0)

    failures = check_reports(reports)
    for message in failures:
        outcome.fail(message)
    outcome.failed = len({m.split(":")[0] for m in failures}) * samples
    outcome.record["passes"] = len(outcome.samples["latency_ms"])
    outcome.record["pool"] = pool
    outcome.record["samples_per_campaign"] = samples
    return outcome
