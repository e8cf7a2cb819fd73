"""O1 is a true fixpoint: optimising optimised code changes nothing.

Checked over the original and repaired modules of all 24 benchmarks and
over every module the ``opt_sanitize`` oracle optimises in the fuzz
workload's campaign pool (seeds 11, 23, 37, 41, 53, 67; six samples each,
coverage-guided).  No function may reach the pipeline's round cap.
"""

import pytest

import repro.opt.pipeline as pipeline
from repro.bench.suite import BENCHMARKS, load_module
from repro.core import RepairOptions, repair_module
from repro.obs import OBS

POOL = (11, 23, 37, 41, 53, 67)
SAMPLES = 6


def assert_fixpoint(module, label):
    report = pipeline.OptReport()
    again = pipeline.optimize(module, report=report, validate=False)
    assert report.pass_fired == {}, label
    assert str(again) == str(module), label


@pytest.mark.parametrize("name", [bench.name for bench in BENCHMARKS])
def test_benchmark_o1_is_a_fixpoint(name):
    original = load_module(name)
    repaired = repair_module(original, RepairOptions(validate_output=False))
    with OBS.capture(force=True) as capture:
        optimized = [
            pipeline.optimize(module, validate=False)
            for module in (original, repaired)
        ]
    assert "opt.fixpoint_capped" not in capture.counters
    for variant, module in zip(("original", "repaired"), optimized):
        assert_fixpoint(module, f"{name}/{variant}")


def test_fuzz_pool_o1_is_a_fixpoint(monkeypatch):
    from repro import api

    optimized = []
    real = pipeline.optimize

    def keep(module, *args, **kwargs):
        result = real(module, *args, **kwargs)
        optimized.append(result)
        return result

    monkeypatch.setattr(pipeline, "optimize", keep)
    with OBS.capture(force=True) as capture:
        for seed in POOL:
            assert api.fuzz(seed=seed, iterations=SAMPLES, mutate=True,
                            jobs=1).ok, seed
    monkeypatch.setattr(pipeline, "optimize", real)
    assert "opt.fixpoint_capped" not in capture.counters
    assert len(optimized) == len(POOL) * SAMPLES
    for index, module in enumerate(optimized):
        assert_fixpoint(module, f"sample {index}")
