"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``.

Runs one workload (``suite``, ``verify``, ``serve`` or ``fuzz``; see
README.md) from the root of a checkout, checks its outputs, and prints two
JSON lines: a provenance record (git rev, Python, CPUs, workers, seeds,
every metric's median, quartiles and sample count), then the result line
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.

Exits non-zero without a result line when the program's sources are
missing or the run would need more workers than CPUs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from harness import SRC, BenchmarkError, Context, nproc, result_line

WORKLOADS = ("suite", "verify", "serve", "fuzz")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest size of the workload (self-test)")
    return parser.parse_args(argv)


def _load_workload(name: str):
    import importlib

    return importlib.import_module(f"{name}_wl")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from harness import ROOT

    work = ROOT / "perfbench" / ".work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
        jobs=min(2, nproc()),
        work=work,
    )
    try:
        outcome = _load_workload(args.workload).run(ctx)
        record, result = result_line(ctx, outcome)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        ctx.speed.stop()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
