"""The ``lif`` command-line interface."""

import pytest

from repro.cli import main

SOURCE = """
uint compare(secret uint *a, secret uint *b) {
  for (uint i = 0; i < 2; i = i + 1) {
    if (a[i] != b[i]) { return 0; }
  }
  return 1;
}
"""

CONSTANT_TIME_SOURCE = """
uint mix(secret uint *a) {
  uint acc = 0;
  for (uint i = 0; i < 2; i = i + 1) {
    acc = acc ^ a[i];
  }
  return acc;
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "compare.mc"
    path.write_text(SOURCE)
    return str(path)


class TestCompile:
    def test_compile_prints_ir(self, source_file, capsys):
        assert main(["compile", source_file]) == 0
        out = capsys.readouterr().out
        assert "func @compare" in out
        assert "br " in out  # the secret branch is still there

    def test_compile_optimized(self, source_file, capsys):
        assert main(["compile", source_file, "-O"]) == 0

    def test_ir_input_accepted(self, tmp_path, capsys):
        path = tmp_path / "mod.ir"
        path.write_text("func @f() { entry: ret 42 }")
        assert main(["run", str(path), "f"]) == 0
        assert "result = 42" in capsys.readouterr().out


class TestRepair:
    def test_repair_removes_branches(self, source_file, capsys):
        assert main(["repair", source_file]) == 0
        captured = capsys.readouterr()
        assert "br " not in captured.out
        assert "ctsel" in captured.out
        assert "repaired in" in captured.err

    def test_repair_optimized(self, source_file, capsys):
        assert main(["repair", source_file, "-O"]) == 0


class TestRun:
    def test_run_with_array_arguments(self, source_file, capsys):
        assert main(["run", source_file, "compare", "1,2", "1,2"]) == 0
        out = capsys.readouterr().out
        assert "result = 1" in out
        assert "cycles" in out

    def test_run_mismatched_arrays(self, source_file, capsys):
        assert main(["run", source_file, "compare", "1,2", "3,4"]) == 0
        assert "result = 0" in capsys.readouterr().out

    @pytest.mark.parametrize("backend", ["interp", "compiled"])
    def test_run_backend_flag(self, source_file, capsys, backend):
        assert main(["run", source_file, "compare", "1,2", "1,2",
                     "--backend", backend]) == 0
        out = capsys.readouterr().out
        assert "result = 1" in out

    def test_backends_report_same_cycles(self, source_file, capsys):
        outputs = {}
        for backend in ("interp", "compiled"):
            main(["run", source_file, "compare", "1,2", "1,2",
                  "--backend", backend])
            outputs[backend] = capsys.readouterr().out
        assert outputs["interp"] == outputs["compiled"]

    def test_unknown_backend_rejected(self, source_file):
        with pytest.raises(SystemExit):
            main(["run", source_file, "compare", "1,2", "1,2",
                  "--backend", "turbo"])


class TestCheck:
    def test_leaky_function_reports_and_fails(self, source_file, capsys):
        assert main(["check", source_file, "compare"]) == 1
        out = capsys.readouterr().out
        assert "leaky branch" in out

    def test_clean_function_passes(self, tmp_path, capsys):
        path = tmp_path / "mix.mc"
        path.write_text(CONSTANT_TIME_SOURCE)
        assert main(["check", str(path), "mix"]) == 0

    def test_branch_leak_lines_are_pinned(self, source_file, capsys):
        main(["check", source_file, "compare"])
        assert capsys.readouterr().out.splitlines() == [
            "sensitive parameters: a, b",
            "operation variant (timing leaks): True",
            "  leaky branch: branch on t2 in block entry",
            "  leaky branch: branch on t5 in block if.join",
            "data variant (cache leaks): False",
            "inherently data inconsistent: False",
            "repair would be data invariant: True",
        ]

    def test_index_leak_lines_are_pinned(self, tmp_path, capsys):
        path = tmp_path / "lookup.mc"
        path.write_text(
            "const u8 sbox[4] = {1, 2, 3, 4};\n"
            "uint lookup(secret uint k, uint pub) {\n"
            "  return sbox[k & 3] + pub;\n"
            "}\n"
        )
        assert main(["check", str(path), "lookup"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "sensitive parameters: k",
            "operation variant (timing leaks): False",
            "data variant (cache leaks): True",
            "  leaky access: load sbox[t0] in block entry",
            "inherently data inconsistent: True",
            "repair would be data invariant: False",
        ]


class TestVerify:
    def test_covenant_verified(self, source_file, capsys):
        assert main(["verify", source_file, "compare", "--runs", "3",
                     "--array-size", "2"]) == 0
        out = capsys.readouterr().out
        assert "covenant holds      : True" in out
