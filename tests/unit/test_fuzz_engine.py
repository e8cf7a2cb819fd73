"""Blind fuzz campaigns: planted-bug detection and determinism.

A blind campaign is :func:`repro.fuzz.campaign.run_campaign` with
``mutate=False``: sample ``index`` is the fresh seed
``seed * _SEED_STRIDE + index`` of kind :func:`sample_kind`.

The headline acceptance test plants a mutation-style bug in a fixture
copy of the repair's [store] rewriting rule (the ctsel arms swapped, so
dead paths write the new value and live paths keep the old one) and
asserts the harness catches it, shrinks it to an exact minimal program,
and stores a corpus reproducer that fails under the buggy repair but
passes under the real one.
"""

from unittest import mock

from repro import api
from repro.core import rules
from repro.core.repair import repair_module
from repro.core.rules import CtSel, Load, Store
from repro.fuzz.campaign import CampaignOptions, run_campaign
from repro.fuzz.corpus import load_corpus, replay_case
from repro.fuzz.engine import run_one, sample_kind
from repro.fuzz.generators import FuzzConfig
from repro.fuzz.oracles import ORACLES
from repro.ir.values import Var
from repro.obs import OBS, configure


def _buggy_rewrite_store(store, ctx):
    """Fixture copy of :func:`repro.core.rules.rewrite_store` with the
    planted mutation: the ctsel arms are inverted, so the store keeps the
    *old* cell value on live paths — a pure semantics bug the repair
    oracle cannot see statically."""
    current = ctx.fresh("z")
    access = rules.rewrite_load(Load(current, store.array, store.index), ctx)
    instructions = access.instructions
    selected = ctx.fresh("z")
    instructions.append(
        CtSel(selected, ctx.out_cond, access.loaded, store.value)  # swapped
    )
    instructions.append(
        Store(Var(selected), access.safe_array, access.safe_index)
    )
    return instructions


def _buggy_repair(module):
    with mock.patch("repro.core.repair.rewrite_store", _buggy_rewrite_store):
        return repair_module(module)


#: What seed 0 deterministically shrinks to under the planted store bug.
MINIMAL_PLANTED_REPRODUCER = """\
uint fuzz_entry(secret u8 *p1) {
  p1[(0) & 3] = 0;
  return 0;
}
"""


def _blind(seed, iterations):
    return run_campaign(CampaignOptions(
        seed=seed, iterations=iterations, mutate=False, minimize=False,
        jobs=1,
    ))


def test_planted_repair_bug_is_caught_minimized_and_stored(tmp_path):
    report = run_campaign(
        CampaignOptions(seed=0, iterations=1, mutate=False, minimize=True,
                        max_minimize_checks=400),
        repair_fn=_buggy_repair, store=True, corpus_dir=tmp_path,
    )
    assert not report.ok
    [failure] = report.failures
    assert failure.failed == ("semantics",)
    assert failure.minimize_checks > 0
    assert failure.source == MINIMAL_PLANTED_REPRODUCER
    assert failure.case_id.startswith("s0000000000-")

    # The reproducer landed in the corpus and pins the *repair* bug: it
    # still fails when replayed under the buggy rule, and passes under
    # the real pipeline (so it is not a program or oracle artifact).
    [case] = load_corpus(tmp_path)
    assert case.case_id == failure.case_id
    assert "semantics" in replay_case(case, repair_fn=_buggy_repair).failed
    assert replay_case(case).ok


def test_campaigns_are_byte_for_byte_deterministic():
    first = _blind(3, 6)
    second = _blind(3, 6)
    assert first.summary_lines() == second.summary_lines()
    assert first.as_dict() == second.as_dict()


def test_parallel_merge_matches_serial_order():
    serial = api.fuzz(seed=5, iterations=4, jobs=1, minimize=False)
    parallel = api.fuzz(seed=5, iterations=4, jobs=2, minimize=False)
    assert parallel.summary_lines() == serial.summary_lines()
    assert parallel.as_dict() == serial.as_dict()


def test_counters_cover_every_oracle():
    report = _blind(3, 6)
    assert report.minic_samples + report.ir_samples == 6
    assert report.mutated_samples == 0
    assert report.ir_samples >= 1  # default ir_fraction=4 schedules some
    for name in ORACLES:
        counter = report.counters[name]
        assert counter["checked"] == 6 - report.invalid_samples
        assert counter["failed"] == 0
    assert report.ok


def test_sample_kind_schedule():
    config = FuzzConfig(ir_fraction=4)
    kinds = [sample_kind(i, config) for i in range(8)]
    assert kinds == ["minic", "minic", "minic", "ir"] * 2
    all_minic = FuzzConfig(ir_fraction=0)
    assert all(
        sample_kind(i, all_minic) == "minic" for i in range(8)
    )


def test_run_one_ir_sample_checks_all_oracles():
    result = run_one(7, "ir", FuzzConfig(), minimize=False)
    assert result["kind"] == "ir"
    assert result["entry"] == "f"
    assert result["checked"] == list(ORACLES)
    assert result["failed"] == []


def test_obs_counters_accumulate_during_campaign():
    configure(enabled=True)
    try:
        _blind(11, 2)
        assert OBS.counters.get("fuzz.campaign.samples") == 2
        assert OBS.counters.get("fuzz.campaign.failures") == 0
        for name in ORACLES:
            assert OBS.counters.get(f"fuzz.oracle.{name}.checked") == 2
    finally:
        configure(enabled=False)
