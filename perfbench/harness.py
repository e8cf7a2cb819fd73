"""Shared plumbing of the benchmark: metric tables, statistics, provenance
and the result line.

Every workload module exposes ``run(ctx) -> Outcome``.  The harness turns
the outcome's per-sample values into medians (the numbers the result line
carries) plus quartiles and sample counts (the provenance record printed
just before it).
"""

from __future__ import annotations

import atexit
import contextlib
import gc
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

#: Root of the checkout the benchmark runs in (the directory above this one).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: End-to-end metrics every untraced run reports, with their units.  Each
#: workload gives each of them its own meaning (README.md has the table).
END_TO_END = {
    "setup_s": "s",
    "latency_ms": "ms",
    "tail_ms": "ms",
    "throughput_per_s": "1/s",
    "quality_ratio": "ratio",
}

#: Per-layer metrics every traced run reports.  Layer names are module
#: names.  A layer the workload does not exercise reads 0.
PER_LAYER = {
    "frontend.parse_s": "s",
    "frontend.unroll_s": "s",
    "frontend.codegen_s": "s",
    "ir.validate_s": "s",
    "core.repair_s": "s",
    "core.ctsels": "count",
    "core.shadow_slots": "count",
    "baseline.sce_s": "s",
    "baseline.check_s": "s",
    "opt.optimize_s": "s",
    "opt.simplifycfg_s": "s",
    "opt.constfold_s": "s",
    "opt.simplify_s": "s",
    "opt.copyprop_s": "s",
    "opt.cse_s": "s",
    "opt.dce_s": "s",
    "opt.fixpoint_iterations": "count",
    "statics.taint_s": "s",
    "statics.time_s": "s",
    "statics.cache_s": "s",
    "statics.power_s": "s",
    "ir.print_s": "s",
    "ir.parse_s": "s",
    "artifacts.save_s": "s",
    "artifacts.load_s": "s",
    "exec.compiled.lower_s": "s",
    "exec.compiled.run_s": "s",
    "exec.interp.run_s": "s",
    "exec.batch.lower_s": "s",
    "exec.batch.run_s": "s",
    "exec.batch.unique_lane_frac": "ratio",
    "verify.covenant_s": "s",
    "verify.semantics_s": "s",
    "verify.invariance_s": "s",
    "verify.consistency_s": "s",
    "verify.cache_s": "s",
    "verify.cache_o1_s": "s",
    "verify.dudect_s": "s",
    "serve.intake_ms": "ms",
    "serve.queue_ms": "ms",
    "serve.worker_ms": "ms",
    "serve.result_ms": "ms",
    "serve.cache_hit_frac": "ratio",
    "serve.coalesced_frac": "ratio",
    "serve.warm_module_hit_frac": "ratio",
    "serve.gen_lag_ms": "ms",
    "serve.failed_frac": "ratio",
    "fuzz.generate_s": "s",
    "fuzz.mutate_s": "s",
    "fuzz.compile_s": "s",
    "fuzz.oracles_s": "s",
    "fuzz.minimize_s": "s",
    "fuzz.coverage_keys": "count",
    "unattributed_s": "s",
    "trace.overhead_frac": "ratio",
}

#: Offset of the second seed every record names, so a claim tuned on one
#: seed can be re-checked on inputs it was not tuned on.
RECHECK_SEED_OFFSET = 1_000_003

#: How often set-up is repeated per run; ``setup_s`` is the median.  The
#: first set-up in a process fills its caches and takes up to twice as
#: long as the rest, so the median of three is the slower of two samples.
#: Workloads whose set-up takes seconds (verify, serve) repeat it
#: SETUP_REPEATS_COSTLY times.
SETUP_REPEATS = 5
SETUP_REPEATS_COSTLY = 3

#: Units of work per run at least, even past the window: medians need two
#: samples, and a traced run alternates untraced and traced units.
MIN_UNITS = 2

#: Timed sections are reported at a nominal machine speed.  Each CPU of
#: the shared 2-CPU host this was tuned on runs a fixed pure-Python loop in
#: ~26 ms or ~55 ms, switching within seconds and drifting over minutes,
#: and the two CPUs switch independently.  A section's seconds are
#: multiplied by REFERENCE_S over a loop time (throughputs divided):
#:
#: * work in this process: one loop right before each section and one every
#:   SAMPLE_PERIOD_S while it runs, from a SIGALRM handler in the section's
#:   own thread, so on the CPU and in the state the section sees (the
#:   handler's time is taken out of the section's).  Every such section of
#:   a run takes one factor, REFERENCE_S times the mean of 1/loop over all
#:   of the run's loops: its average speed.  The loop's time swings more
#:   than the work's, so a factor from the few loops of one section added
#:   more noise than it took out.  No loop runs after a section: work the
#:   program left running past it would slow that loop and so cancel part
#:   of its own cost;
#: * work in other processes (set-ups, the server): the mean of
#:   1/loop over the samples a probe process (``probe.py``) takes every
#:   PROBE_PERIOD_S during the section, which see both CPUs.  A median
#:   flips between the fast and the slow state where a mean follows the
#:   share of time spent in each.
#:
#: Loops are timed in their own CPU time, which leaves out waiting for a
#: CPU, so the benchmark's load does not slow them: a section that does
#: more work is not scaled back (a busy process on the other CPU moved the
#: probe's median sample by 0.4%).  The record keeps the raw values.
REFERENCE_S = 0.03
REFERENCE_ITERATIONS = 120_000
PROBE_PERIOD_S = 0.2
SAMPLE_PERIOD_S = 0.5
#: A section shorter than this many probe periods takes the samples
#: nearest its middle.
PROBE_MIN_SAMPLES = 3


def reference_loop() -> float:
    """CPU seconds of this thread for the fixed reference work: dict
    updates, tuple and string allocation, a sort.  The cyclic collector is
    off meanwhile, so the heap size does not slow the loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.thread_time()
        table: dict = {}
        items = []
        for i in range(REFERENCE_ITERATIONS):
            key = (i * 40503) & 1023
            table[key] = table.get(key, 0) + i % 7
            if i % 8 == 0:
                items.append((key, str(i)))
        items.sort()
        return time.thread_time() - started
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Loop samples of a run.  The probe process is started by the first
    section in other processes and stopped by :meth:`stop` (or at exit)."""

    def __init__(self) -> None:
        #: loops run before and during the sections in this process
        self.loops: list = []
        #: ``(time.monotonic() at the end of a probe loop, its seconds)``
        self.samples: list = []
        self._process: Optional[subprocess.Popen] = None
        self._reader: Optional[threading.Thread] = None
        self._arrived = threading.Condition()
        #: ``(time.monotonic() at its start, wall seconds, loop seconds)``
        #: of each loop the alarm ran during the current section
        self._alarms: list = []

    def factor(self) -> float:
        """The factor of the run's sections in this process so far."""
        return REFERENCE_S * statistics.mean(1.0 / s for s in self.loops)

    def _on_alarm(self, signum, frame) -> None:
        started = time.monotonic()
        loop = reference_loop()
        self._alarms.append((started, time.monotonic() - started, loop))

    def _start(self) -> None:
        self._process = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("probe.py"))],
            stdout=subprocess.PIPE, text=True,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        atexit.register(self.stop)
        # The probe's own start-up must not overlap the first section.
        with self._arrived:
            while not self.samples and self._process.poll() is None:
                self._arrived.wait(timeout=1.0)

    def _read(self) -> None:
        for line in self._process.stdout:
            ended, seconds = map(float, line.split())
            with self._arrived:
                self.samples.append((ended, seconds))
                self._arrived.notify_all()
        with self._arrived:
            self._arrived.notify_all()

    def stop(self) -> None:
        if self._process is None:
            return
        self._process.kill()
        self._process.wait()
        self._reader.join()
        self._process.stdout.close()
        self._process = None

    def during(self, started: float, ended: float) -> float:
        """The loop time of the probe's average speed over ``[started,
        ended]`` (monotonic time), once the probe has reported past
        ``ended``."""
        with self._arrived:
            while not self.samples or self.samples[-1][0] < ended:
                if self._process is None or self._process.poll() is not None:
                    raise BenchmarkError("the speed probe stopped")
                self._arrived.wait(timeout=1.0)
            middle = (started + ended) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - middle))
            inside = [s for s in nearest if started <= s[0] <= ended]
            chosen = inside if len(inside) >= PROBE_MIN_SAMPLES \
                else nearest[:PROBE_MIN_SAMPLES]
        return 1.0 / statistics.mean(1.0 / seconds for _, seconds in chosen)

    @contextlib.contextmanager
    def timed(self, elsewhere: bool = False):
        """Time the body.  The yielded span gets ``seconds`` (wall, less
        the alarm loops) and a ``factor`` to nominal-speed seconds.
        ``elsewhere`` says the body's work runs in other processes;
        otherwise it must run in the main thread, and its factor is the
        run's, final once the run's last section has ended."""
        if elsewhere:
            span = Span()
            if self._process is None:
                self._start()
            started = time.monotonic()
            yield span
            ended = time.monotonic()
            span.seconds = ended - started
            span.fixed = REFERENCE_S / self.during(started, ended)
            return
        span = Span(speed=self)
        self.loops.append(reference_loop())
        self._alarms = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            started = time.monotonic()
            yield span
            ended = time.monotonic()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        inside = [a for a in self._alarms if started <= a[0] < ended]
        self.loops += [loop for _, _, loop in inside]
        span.seconds = ended - started - sum(paused for _, paused, _ in inside)


@dataclass
class Span:
    seconds: float = 0.0
    #: the factor of work in other processes
    fixed: float = 1.0
    #: set for work in this process, which takes the run's factor
    speed: Optional[Speed] = None

    @property
    def factor(self) -> float:
        """The multiplier to nominal-speed seconds."""
        return self.fixed if self.speed is None else self.speed.factor()

    @property
    def nominal(self) -> float:
        """The body's seconds at the nominal machine speed."""
        return self.seconds * self.factor


def nominal(spans: list) -> float:
    return sum(s.nominal for s in spans)


def time_scale(spans: list):
    """:meth:`Outcome.add` scale of a time measured as ``spans``."""
    seconds = sum(s.seconds for s in spans)
    return lambda: nominal(spans) / seconds


def rate_scale(spans: list):
    """:meth:`Outcome.add` scale of a rate over ``spans``."""
    seconds = sum(s.seconds for s in spans)
    return lambda: seconds / nominal(spans)


def add_spans(outcome: "Outcome", metric: str, spans: list) -> None:
    """Record the summed duration of ``spans`` in milliseconds."""
    outcome.add(metric, sum(s.seconds for s in spans) * 1000.0,
                time_scale(spans))


def add_slowest(outcome: "Outcome", metric: str, spans: list) -> None:
    """Record the slowest of ``spans``, sections of this process (which
    share one factor), in milliseconds."""
    slowest = max(spans, key=lambda s: s.seconds)
    outcome.add(metric, slowest.seconds * 1000.0, time_scale([slowest]))


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing sources, too many workers)."""


@dataclass
class Context:
    """Everything a workload needs: its arguments and a scratch directory."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    jobs: int
    work: Path
    speed: Speed = field(default_factory=Speed)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: metric name -> ``(value as measured, scale)`` per sample
    values: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: One line per failed correctness check.
    gate_failures: list = field(default_factory=list)
    #: Workload-specific facts for the provenance record.
    record: dict = field(default_factory=dict)
    #: Workers the workload actually used (processes doing pipeline work).
    workers: int = 1

    def add(self, metric: str, value: float, scale=1.0) -> None:
        """Record ``value`` as measured; the metric gets ``value * scale``
        (a :class:`Span` factor for times, its inverse for rates).  A
        callable scale is called when the run ends (see
        :func:`time_scale`)."""
        self.values.setdefault(metric, []).append((float(value), scale))

    @property
    def samples(self) -> dict:
        """metric name -> per-sample values at nominal speed; the result
        line carries their medians."""
        return {
            metric: [v * (s() if callable(s) else s) for v, s in pairs]
            for metric, pairs in self.values.items()
        }

    @property
    def raw(self) -> dict:
        """The samples before speed normalization, for the record."""
        return {metric: [v for v, _ in pairs]
                for metric, pairs in self.values.items()}

    def fail(self, message: str) -> None:
        self.gate_failures.append(message)

    @property
    def correct(self) -> bool:
        return not self.gate_failures


def nproc() -> int:
    """CPUs this process may run on (affinity-aware, like ``nproc``)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def check_workers(count: int, what: str) -> None:
    """Refuse to oversubscribe: more workers than CPUs skews every timing."""
    if count > nproc():
        raise BenchmarkError(
            f"{what} needs {count} workers but only {nproc()} CPUs are "
            "available; refusing to run oversubscribed"
        )


def summary(values: list) -> dict:
    """Median, quartiles (``statistics.quantiles(n=4)``) and count."""
    ordered = sorted(values)
    median = statistics.median(ordered)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "n": len(ordered)}


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def unit_loop(ctx: Context, minimum: int = MIN_UNITS):
    """Yield unit indices while another whole unit fits in the window
    (judged by the previous unit's duration), so every run measures whole
    units of the same work."""
    started = time.perf_counter()
    last = 0.0
    index = 0
    while index < minimum or (time.perf_counter() - started) + last <= ctx.seconds:
        unit_started = time.perf_counter()
        yield index
        last = time.perf_counter() - unit_started
        index += 1


def repeat_setup(ctx: Context, outcome: "Outcome", setup,
                 repeats: int = SETUP_REPEATS) -> None:
    """Time ``setup()`` ``repeats`` times into ``setup_s``.  Set-up runs
    mostly in other processes (a fresh interpreter, build workers), so the
    probe scales it."""
    for _ in range(repeats):
        with ctx.speed.timed(elsewhere=True) as span:
            setup()
        outcome.add("setup_s", span.seconds, span.factor)


def time_imports(modules: list) -> float:
    """Wall seconds for a fresh interpreter to import ``modules``.

    Set-up includes what a user pays before the first job; a subprocess
    is the only way to measure interpreter start plus imports more than
    once in a run.
    """
    code = "import " + ", ".join(modules)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, timeout=120,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - started


def git_rev() -> Optional[str]:
    """The checkout's git revision, or None outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(ctx: Context, outcome: Outcome) -> dict:
    from repro.artifacts.keys import pipeline_version

    return {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "recheck_seed": ctx.seed + RECHECK_SEED_OFFSET,
        "seconds": ctx.seconds,
        "trace": ctx.trace,
        "smoke": ctx.smoke,
        "git_rev": git_rev(),
        "pipeline_version": pipeline_version(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": nproc(),
        "jobs": ctx.jobs,
        "workers": outcome.workers,
    }


def result_line(ctx: Context, outcome: Outcome) -> tuple:
    """(record dict, result dict) for the two final stdout lines."""
    samples = outcome.samples
    undeclared = set(samples) - set(END_TO_END) - set(PER_LAYER)
    if undeclared:
        raise BenchmarkError(f"undeclared metrics {sorted(undeclared)}")
    table = PER_LAYER if ctx.trace else END_TO_END
    metrics = {}
    spread = {}
    unexercised = []
    for name, unit in table.items():
        values = samples.get(name)
        if not values:
            if not ctx.trace:
                raise BenchmarkError(f"workload produced no {name} sample")
            unexercised.append(name)
            values = [0.0]
        stats = summary(values)
        metrics[name] = {"value": stats["median"], "unit": unit}
        spread[name] = stats
    loops = ctx.speed.loops
    probe = [seconds for _, seconds in ctx.speed.samples]
    record = {
        "provenance": provenance(ctx, outcome),
        "metrics": spread,
        "raw_medians": {
            name: summary(values)["median"]
            for name, values in outcome.raw.items() if name in table
        },
        "unit_samples": {
            name: values for name, values in samples.items()
            if name in END_TO_END and len(values) <= 20
        },
        "speed": {
            "reference_s": REFERENCE_S,
            "in_process_factor": ctx.speed.factor() if loops else None,
            "loop_median_s": statistics.median(loops) if loops else None,
            "loops": len(loops),
            "probe_median_s": statistics.median(probe) if probe else None,
            "probe_samples": len(probe),
        },
        "unexercised_layers": unexercised,
        "gate_failures": outcome.gate_failures,
        **outcome.record,
    }
    result = {
        "correct": outcome.correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": metrics,
    }
    return record, result


def declared_metrics() -> dict:
    """``{"end_to_end": {...}, "per_layer": {...}}`` from BENCHMARK.json."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {
        group: {m["name"]: m["unit"] for m in spec[group]}
        for group in ("end_to_end", "per_layer")
    }
