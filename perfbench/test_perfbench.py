"""Self-test of the benchmark: ``python3 -m pytest perfbench -q``.

Runs every workload at its smallest size, traced and untraced, checks the
emitted metric names against BENCHMARK.json, and checks that each
correctness gate rejects a planted divergence.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    ROOT,
    SRC,
    declared_metrics,
)

sys.path.insert(0, str(SRC))

WORKLOADS = [w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["workloads"]]


def test_declared_metrics_match_the_harness():
    declared = declared_metrics()
    assert declared["end_to_end"] == END_TO_END
    assert declared["per_layer"] == PER_LAYER


def _run(*args) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smallest_run_emits_declared_metrics(workload, trace):
    result = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = declared_metrics()["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_speed_probe_scales_a_section_and_stops():
    import time

    from harness import Speed

    speed = Speed()
    with speed.timed(elsewhere=True) as span:
        time.sleep(0.05)
    process = speed._process
    assert span.seconds >= 0.05 and span.factor > 0
    assert speed.samples and speed.samples[-1][0] >= time.monotonic() - 5
    speed.stop()
    assert process.poll() is not None


def test_in_process_section_samples_its_speed_while_it_runs():
    import signal
    import time

    from harness import SAMPLE_PERIOD_S, Speed

    speed = Speed()
    started = time.monotonic()
    with speed.timed() as span:
        deadline = time.monotonic() + 3 * SAMPLE_PERIOD_S + 0.1
        while time.monotonic() < deadline:
            pass
    wall = time.monotonic() - started
    # One loop before the section, one per alarm inside it, whose time is
    # taken out of the section's.
    assert len(speed.loops) >= 4
    assert span.seconds < wall - 3 * min(speed.loops) + 0.01
    assert span.factor == speed.factor() > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_refuses_more_workers_than_cpus(monkeypatch, tmp_path):
    import harness
    import serve_wl

    monkeypatch.setattr(harness, "nproc", lambda: 1)
    ctx = harness.Context(workload="serve", seed=1, seconds=1, trace=False,
                          smoke=True, jobs=1, work=tmp_path)
    with pytest.raises(harness.BenchmarkError, match="oversubscribed"):
        serve_wl.run(ctx)


# -- planted divergences --------------------------------------------------------


def test_suite_gate_rejects_an_altered_ir_line(tmp_path):
    import suite_wl
    from harness import Context

    ctx = Context(workload="suite", seed=3, seconds=1, trace=False,
                  smoke=True, jobs=1, work=tmp_path)
    requests = suite_wl._requests(suite_wl.SMOKE_PROGRAMS)
    order = list(range(len(requests)))
    _, _, _, cold, warm, _ = suite_wl.build_unit(ctx, requests, order, 0)
    assert suite_wl.check_unit(requests, cold, warm, 3) == []

    built = cold[1]
    text = built.ir["repaired_o1"]
    lines = text.splitlines(keepends=True)
    index = next(i for i, line in enumerate(lines) if " = " in line)
    lines[index] = lines[index].replace(" = ", " =  ", 1)
    built.ir["repaired_o1"] = "".join(lines)
    failures = suite_wl.check_unit(requests, cold, warm, 3)
    assert failures and "repaired_o1" in failures[0]


def test_serve_gate_rejects_a_flipped_byte():
    import serve_wl
    from repro.serve import JobSpec, canonical_result_bytes, execute_job

    spec = JobSpec(kind="repair", source=serve_wl.GATE, name="gate")
    good = canonical_result_bytes(execute_job(spec))
    assert serve_wl.check_served([("s0.j1", spec, good)], 1) == {}
    flipped = bytearray(good)
    flipped[len(flipped) // 2] ^= 0x01
    failures = serve_wl.check_served([("s0.j1", spec, bytes(flipped))], 1)
    assert list(failures) == ["s0.j1"]


def test_serve_gate_checks_cache_hits():
    import asyncio

    import serve_wl
    from repro.serve import JobSpec, execute_job

    gate = JobSpec(kind="repair", source=serve_wl.GATE, name="gate")
    look = JobSpec(kind="certify", source=serve_wl.LOOKUP, name="look")
    changed = execute_job(gate)
    changed["size_ratio"] += 1
    # Hits answered inline: the right entry, another key's entry, and the
    # right entry with one value changed.
    slots = []
    for result in (execute_job(gate), execute_job(look), changed):
        slot = serve_wl.Slot(0.0, gate, cached=True)
        slot.result = json.loads(json.dumps(result))
        slots.append(slot)
    answers, trips = asyncio.run(serve_wl._served(0, slots))
    assert trips == [] and len(answers) == 3
    assert sorted(serve_wl.check_served(answers, 1)) == ["hit1", "hit2"]


def test_verify_gates_reject_planted_divergences():
    import verify_wl
    from repro.api import compile_minic, repair_module
    from repro.ir.parser import parse_module
    from repro.ir.printer import module_to_str
    from repro.verify import check_covenant

    module = compile_minic(
        "uint pick(secret uint s, uint p) {\n"
        "  uint y = 0;\n"
        "  if (s > p) { y = 3; } else { y = 8; }\n"
        "  return y;\n"
        "}\n", name="pick",
    )
    repaired = repair_module(module)
    report = check_covenant(module, "pick", [[1, 2], [5, 2], [9, 9]],
                            repaired=repaired, repaired_o1=repaired)
    row = verify_wl.covenant_row(report)
    assert verify_wl.check_verdicts({"pick": report}, {"pick": row}) == []
    planted = list(row)
    planted[2] = "no"
    assert verify_wl.check_verdicts({"pick": report}, {"pick": planted})

    # One altered IR line on the batch side: a constant of the result.
    text = module_to_str(module)
    altered = parse_module(text.replace("[8, ", "[9, ", 1), name="pick")
    lanes = [[1, 2], [1, 2], [5, 2], [9, 9]]
    assert verify_wl.lanes_agree(module, module, "pick", lanes)
    assert not verify_wl.lanes_agree(altered, module, "pick", lanes)


def test_fuzz_gate_rejects_a_differing_report():
    import fuzz_wl

    report = fuzz_wl.campaign(11, 2)
    record = report.as_dict()
    assert fuzz_wl.check_reports({11: [(True, record), (True, record)]}) == []
    planted = json.loads(json.dumps(record))
    planted["coverage"]["keys"] += 1
    assert fuzz_wl.check_reports({11: [(True, record), (True, planted)]})
