"""The ``lif fuzz`` subcommand."""

import pytest

from repro.cli import main


def test_fuzz_smoke_run_prints_summary(capsys):
    assert main(["fuzz", "--seed", "5", "-n", "3", "--no-minimize"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("fuzz campaign seed=5 iterations=3")
    assert "oracle repair" in out
    assert "oracle opt_sanitize" in out
    assert "failures: 0" in out


def test_fuzz_is_reproducible_across_invocations(capsys):
    assert main(["fuzz", "--seed", "2", "-n", "2", "--no-minimize"]) == 0
    first = capsys.readouterr().out
    assert main(["fuzz", "--seed", "2", "-n", "2", "--no-minimize"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_fuzz_ir_fraction_zero_generates_only_minic(capsys):
    assert main([
        "fuzz", "--seed", "1", "-n", "2", "--no-minimize",
        "--ir-fraction", "0",
    ]) == 0
    out = capsys.readouterr().out
    assert "(minic=2, ir=0, invalid=0, mutated=0)" in out


def test_fuzz_help_lists_knobs(capsys):
    try:
        main(["fuzz", "--help"])
    except SystemExit as stop:
        assert stop.code == 0
    out = capsys.readouterr().out
    for flag in ("--seed", "--iterations", "--jobs", "--no-minimize",
                 "--store", "--corpus-dir", "--ir-fraction",
                 "--mutate", "--checkpoint", "--resume",
                 "--shards"):
        assert flag in out


def test_plain_fuzz_is_a_blind_coverage_campaign(capsys):
    assert main(["fuzz", "--seed", "5", "-n", "3", "--no-minimize"]) == 0
    out = capsys.readouterr().out
    assert "mode=blind+coverage" in out
    assert "coverage keys=" in out


def test_fuzz_cov_flag_is_rejected(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["fuzz", "--seed", "5", "-n", "3", "--cov"])
    assert stop.value.code == 2
    assert "--cov" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--iterations", "-3"),
    ("--jobs", "0"),
    ("--shards", "-4"),
    ("--ir-fraction", "-1"),
])
def test_fuzz_rejects_out_of_range_flags(flag, value, capsys):
    args = ["fuzz", "--seed", "0", "--no-minimize", flag, value]
    if flag != "--iterations":
        args += ["-n", "1"]
    with pytest.raises(SystemExit) as stop:
        main(args)
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert flag in err
    assert "must be at least" in err


def test_fuzz_mutate_summary_is_reproducible(capsys):
    args = ["fuzz", "--seed", "4", "-n", "6", "--no-minimize", "--mutate"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert "mode=coverage-guided" in first
    assert first == second


def test_fuzz_resume_requires_checkpoint(capsys):
    assert main(["fuzz", "--seed", "0", "-n", "2", "--resume"]) == 2
    err = capsys.readouterr().err
    assert "--resume requires --checkpoint" in err
