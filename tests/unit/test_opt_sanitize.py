"""The per-pass leakage sanitizer (``REPRO_OPT_SANITIZE``)."""

import pytest

from repro.ir import parse_module
from repro.opt import (
    SANITIZE_ENV_VAR,
    LeakFingerprint,
    LeakSanitizerError,
    sanitize_enabled,
)
from repro.opt.pipeline import _default_validate, optimize, optimize_function

# A branch-free selection (what the repair emits)...
CLEAN = """
func @f(k: int) {
entry:
  p = mov k < 0
  r = ctsel p, 1, 2
  ret r
}
"""

# ...and the secret-steered branch a broken pass would rewrite it into.
LEAKY = """
func @f(k: int) {
entry:
  p = mov k < 0
  br p, a, b
a:
  jmp b
b:
  r = phi [1, a], [2, entry]
  ret r
}
"""

SBOX = """
const global @sbox[256]
func @f(k: int) {
entry:
  i = mov k & 255
  x = load sbox[i]
  ret x
}
"""


# @w stores the secret into the global @g; @f reads it back and indexes @t
# with it.  Only callee summaries see that @g holds a secret.
CALLEE_GLOBAL = """
global @g[1]
const global @t[16]
func @w(k: int) {
entry:
  store k, g[0]
  ret 0
}
func @f(k: int) {
entry:
  c = call @w(k)
  s = load g[0]
  i = mov s & 15
  x = load t[i]
  ret x
}
"""

# The same module before a pass rewrote @f to index @t with the secret.
CALLEE_GLOBAL_CLEAN = CALLEE_GLOBAL.replace("x = load t[i]", "x = load t[0]")

# @f and @g call each other.
MUTUAL = """
const global @t[16]
func @g(x: int) {
entry:
  p = mov x == 0
  br p, base, step
base:
  ret 0
step:
  y = mov x - 1
  r = call @f(y)
  ret r
}
func @f(k: int) {
entry:
  r = call @g(k)
  i = mov r & 15
  x = load t[0]
  ret x
}
"""


def replace_body(function, text):
    donor = parse_module(text).functions[function.name]
    function.blocks = donor.blocks
    function.params = donor.params


class TestFingerprint:
    def test_counts_branches_and_indices(self):
        clean = parse_module(CLEAN).functions["f"]
        leaky = parse_module(LEAKY).functions["f"]
        sbox = parse_module(SBOX).functions["f"]
        assert LeakFingerprint.of(clean) == LeakFingerprint(0, 0)
        assert LeakFingerprint.of(leaky) == LeakFingerprint(1, 0)
        assert LeakFingerprint.of(sbox) == LeakFingerprint(0, 1)


class TestCatchesLeakyPass:
    def test_branch_introducing_pass_is_named(self):
        module = parse_module(CLEAN)
        function = module.functions["f"]

        def deoptimize(fn):
            replace_body(fn, LEAKY)
            return True

        with pytest.raises(LeakSanitizerError) as exc:
            optimize_function(
                function,
                passes=(("deoptimize", deoptimize),),
                sanitize=True,
                module=module,
            )
        assert exc.value.pass_name == "deoptimize"
        assert exc.value.diagnostic.rule == "OPT-LEAK-BRANCH"
        assert "deoptimize" in str(exc.value)
        assert "deoptimize" in exc.value.diagnostic.fixit

    def test_index_introducing_pass_is_named(self):
        module = parse_module("const global @sbox[256]\n" + CLEAN)
        function = module.functions["f"]

        def tableize(fn):
            replace_body(fn, SBOX)
            return True

        with pytest.raises(LeakSanitizerError) as exc:
            optimize_function(
                function,
                passes=(("tableize", tableize),),
                sanitize=True,
                module=module,
            )
        assert exc.value.pass_name == "tableize"
        assert exc.value.diagnostic.rule == "OPT-LEAK-INDEX"

    def test_ssa_breaking_pass_is_named(self):
        module = parse_module(CLEAN)
        function = module.functions["f"]

        def truncate(fn):
            fn.entry.terminator = None
            return True

        with pytest.raises(LeakSanitizerError) as exc:
            optimize_function(
                function,
                passes=(("truncate", truncate),),
                sanitize=True,
                module=module,
            )
        assert exc.value.pass_name == "truncate"
        assert exc.value.diagnostic.rule == "OPT-SSA-BROKEN"

    def test_no_change_pass_skips_the_check(self):
        # A pass reporting no change is never re-analysed, even if the
        # function already contains a leak.
        module = parse_module(LEAKY)
        function = module.functions["f"]
        fired = optimize_function(
            function,
            passes=(("noop", lambda fn: False),),
            sanitize=True,
            module=module,
        )
        assert fired == []


class TestCalleeSummaries:
    def test_secret_a_callee_writes_into_a_global_is_counted(self):
        module = parse_module(CALLEE_GLOBAL)
        fingerprint = LeakFingerprint.of(module.functions["f"], module)
        assert fingerprint == LeakFingerprint(0, 1)

    def test_pass_indexing_with_a_callee_written_secret_is_caught(self):
        module = parse_module(CALLEE_GLOBAL_CLEAN)
        function = module.functions["f"]

        def leak(fn):
            replace_body(fn, CALLEE_GLOBAL)
            return True

        with pytest.raises(LeakSanitizerError) as exc:
            optimize_function(
                function, passes=(("leak", leak),), sanitize=True,
                module=module,
            )
        assert exc.value.diagnostic.rule == "OPT-LEAK-INDEX"

    def test_shared_summaries_match_a_fresh_fingerprint_after_a_rewrite(self):
        module = parse_module(CALLEE_GLOBAL_CLEAN)
        function = module.functions["f"]
        summaries: dict = {}
        assert LeakFingerprint.of(function, module, summaries) == (
            LeakFingerprint(0, 0)
        )
        assert {name for name, _ in summaries} == {"f", "w"}
        replace_body(function, CALLEE_GLOBAL)
        shared = LeakFingerprint.of(function, module, summaries)
        assert shared == LeakFingerprint.of(function, module)
        assert shared == LeakFingerprint(0, 1)

    def test_no_summaries_kept_when_a_call_cycle_is_reachable(self):
        module = parse_module(MUTUAL + """
        func @h(k: int) {
        entry:
          r = call @g(k)
          ret r
        }
        """)
        # From inside the cycle, and from a function that calls into it:
        # the cycle's summaries depend on where it is first entered.
        for name in ("f", "g", "h"):
            summaries: dict = {}
            LeakFingerprint.of(module.functions[name], module, summaries)
            assert summaries == {}, name

    def test_recursive_module_rewrite_matches_a_fresh_fingerprint(self):
        module = parse_module(MUTUAL)
        function = module.functions["f"]

        def index_with_result(fn):
            replace_body(fn, MUTUAL.replace("load t[0]", "load t[i]"))
            return True

        with pytest.raises(LeakSanitizerError) as exc:
            optimize_function(
                function, passes=(("index", index_with_result),),
                sanitize=True, module=module,
            )
        assert LeakFingerprint.of(function, module) == LeakFingerprint(0, 1)
        assert "(0 before, 1 after)" in str(exc.value)


class TestCleanPipeline:
    def test_real_pipeline_passes_under_sanitizer(self):
        from repro.core.repair import repair_module

        module = parse_module(LEAKY)
        repaired = repair_module(module)
        optimized = optimize(repaired, sanitize=True)
        assert set(optimized.functions) == set(repaired.functions)

    def test_env_var_gates_default(self, monkeypatch):
        for knob, read, default in (
            (SANITIZE_ENV_VAR, sanitize_enabled, False),
            ("REPRO_OPT_VALIDATE", _default_validate, True),
        ):
            monkeypatch.delenv(knob, raising=False)
            assert read() is default, knob
            monkeypatch.setenv(knob, "")
            assert read() is default, knob
            for word in ("0", "off", "no", "false", " OFF "):
                monkeypatch.setenv(knob, word)
                assert not read(), (knob, word)
            for word in ("1", "on", "yes", "true", " True "):
                monkeypatch.setenv(knob, word)
                assert read(), (knob, word)
            monkeypatch.setenv(knob, "maybe")
            with pytest.raises(ValueError, match=knob):
                read()


# Balanced select (arms 1 and 2, equal Hamming weight)...
BALANCED_SEL = """
func @f(k: int) {
entry:
  p = mov k < 0
  r = ctsel p, 1, 2
  ret r
}
"""

# ...rewritten with imbalanced constant arms (weights 8 vs 0).
IMBALANCED_SEL = """
func @f(k: int) {
entry:
  p = mov k < 0
  r = ctsel p, 255, 0
  ret r
}
"""

# Variable arms: not provably balanced, counted the same before and
# after a pass folds one arm to a constant.
VAR_ARM_SEL = """
func @f(k: int, x: int) {
entry:
  p = mov k < 0
  y = mov x + 0
  r = ctsel p, y, 0
  ret r
}
"""

FOLDED_ARM_SEL = """
func @f(k: int, x: int) {
entry:
  p = mov k < 0
  r = ctsel p, 255, 0
  ret r
}
"""


class TestPowerFingerprint:
    def test_imbalance_introducing_pass_is_named(self):
        module = parse_module(BALANCED_SEL)
        function = module.functions["f"]

        def imbalance(fn):
            replace_body(fn, IMBALANCED_SEL)
            return True

        with pytest.raises(LeakSanitizerError) as exc:
            optimize_function(
                function,
                passes=(("imbalance", imbalance),),
                sanitize=True,
                module=module,
            )
        assert exc.value.pass_name == "imbalance"
        assert exc.value.diagnostic.rule == "OPT-LEAK-POWER"

    def test_constant_folding_an_arm_is_not_a_violation(self):
        # Folding a variable arm to an imbalanced constant only *reveals*
        # a potential imbalance the fingerprint already counted.
        module = parse_module(VAR_ARM_SEL)
        function = module.functions["f"]
        before = LeakFingerprint.of(function)
        assert before.ctsel_imbalances == 1

        def fold(fn):
            replace_body(fn, FOLDED_ARM_SEL)
            return True

        fired = optimize_function(
            function,
            passes=(("fold", fold),),
            sanitize=True,
            module=module,
        )
        assert "fold" in fired
        assert LeakFingerprint.of(function).ctsel_imbalances == 1

    def test_guard_selects_are_not_counted(self):
        module = parse_module("""
        func @f(k: int) {
        entry:
          p = mov k < 0
          r = ctsel p, 255, 0, guard
          ret r
        }
        """)
        fingerprint = LeakFingerprint.of(module.functions["f"])
        assert fingerprint.ctsel_imbalances == 0


class TestCatchesLeakyRule:
    def test_leak_planted_in_a_simplify_rule_names_the_simplify_pass(
            self, monkeypatch):
        # A select rule that rebuilds a guard select without its guard
        # flag turns it into a secret-conditioned, imbalanced select.
        import repro.opt.simplify as simplify
        from repro.ir.instructions import CtSel

        real = simplify._simplify_ctsel

        def drop_guard(instr, booleans):
            if instr.guard:
                return "ctsel", CtSel(
                    instr.dest, instr.cond, instr.if_true, instr.if_false
                )
            return real(instr, booleans)

        monkeypatch.setattr(simplify, "_simplify_ctsel", drop_guard)
        module = parse_module("""
        func @f(k: int) {
        entry:
          p = mov k < 0
          r = ctsel p, 255, 0, guard
          ret r
        }
        """)
        with pytest.raises(LeakSanitizerError) as exc:
            optimize(module, sanitize=True)
        assert exc.value.pass_name == "simplify"
        assert exc.value.diagnostic.rule == "OPT-LEAK-POWER"
        # The unplanted walk leaves the same function clean.
        monkeypatch.setattr(simplify, "_simplify_ctsel", real)
        optimize(module, sanitize=True)
