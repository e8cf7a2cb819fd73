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


class TestSuite:
    def test_summary_names_the_worker_count_used(self, monkeypatch, tmp_path,
                                                 capsys):
        from repro.bench.runner import clear_artifact_memo

        monkeypatch.setenv("REPRO_JOBS", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        try:
            assert main(["suite", "tea"]) == 0
        finally:
            clear_artifact_memo()
        summary = capsys.readouterr().out.splitlines()[-1]
        assert summary.endswith("(0 cached, jobs=1)")


class TestInputErrors:
    """Bad input or a bad knob: one ``lif:`` line on stderr and exit 2."""

    @pytest.mark.parametrize("name, text, message", [
        ("bad.ir", "func @f() {\nentry:\n  x = frob 1\n  ret x\n}\n",
         "lif: line 3: unknown instruction 'frob'"),
        ("bad.mc", "uint f(uint a) {\n  return a +;\n}\n",
         "lif: line 2: "),
        ("loop.mc", "uint f(uint n) {\n  uint s = 0;\n"
                    "  for (uint i = 0; i < n; i = i + 1) { s = s + i; }\n"
                    "  return s;\n}\n",
         "lif: line 3: cannot unroll loop"),
        ("undefined.mc", "uint f(uint a) { return b; }\n",
         "lif: line 1: undefined variable 'b'"),
    ], ids=["ir-syntax", "minic-syntax", "unroll", "codegen"])
    def test_malformed_input_is_one_line(self, tmp_path, capsys, name, text,
                                         message):
        path = tmp_path / name
        path.write_text(text)
        assert main(["compile", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)
        assert captured.err.count("\n") == 1

    def test_malformed_knob_is_one_line(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SERVE_WARM", "abc")
        assert main(["serve", "--workers", "0", "--port", "0"]) == 2
        assert capsys.readouterr().err == (
            "lif: $REPRO_SERVE_WARM must be an integer >= 1, got 'abc'\n"
        )

    def test_other_errors_keep_their_traceback(self, monkeypatch,
                                               source_file):
        def broken(args):
            raise ValueError("a bug")

        monkeypatch.setattr("repro.cli._cmd_compile", broken)
        with pytest.raises(ValueError, match="a bug"):
            main(["compile", source_file])
