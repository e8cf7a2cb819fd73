"""Interprocedural taint: summaries, contexts, globals, shadow slots."""

from repro.ir import parse_module
from repro.statics.interproc import (
    TaintContext,
    analyze_module_taint,
    default_roots,
)


def taint(text: str, roots=None, include_unreached=True):
    return analyze_module_taint(parse_module(text), roots, include_unreached)


class TestCallSummaries:
    def test_taint_through_return(self):
        result = taint("""
        func @id(x: int) {
        entry:
          ret x
        }
        func @f(k: int) {
        entry:
          y = call @id(k)
          ret y
        }
        """, roots={"f": ["k"]}, include_unreached=False)
        assert "y" in result.functions["f"].tainted_full

    def test_clean_callee_stays_clean(self):
        result = taint("""
        func @one() {
        entry:
          ret 1
        }
        func @f(k: int) {
        entry:
          y = call @one()
          ret y
        }
        """, roots={"f": ["k"]}, include_unreached=False)
        assert "y" not in result.functions["f"].tainted_full

    def test_context_sensitivity(self):
        # The same helper is called with a secret and with a public
        # argument; only the secret call's result is tainted.
        result = taint("""
        func @id(x: int) {
        entry:
          ret x
        }
        func @f(k: int, pub: int) {
        entry:
          a = call @id(k)
          b = call @id(pub)
          ret a
        }
        """, roots={"f": ["k"]}, include_unreached=False)
        record = result.functions["f"]
        assert "a" in record.tainted_full
        assert "b" not in record.tainted_full
        # Two distinct contexts for @id were summarised.
        assert result.functions["id"].contexts == 2

    def test_taint_through_pointer_argument(self):
        # The callee stores the secret into the caller's buffer.
        result = taint("""
        func @fill(p: ptr, v: int) {
        entry:
          store v, p[0]
          ret 0
        }
        func @f(k: int) {
        entry:
          buf = alloc 2
          c = call @fill(buf, k)
          x = load buf[1]
          ret x
        }
        """, roots={"f": ["k"]}, include_unreached=False)
        assert "x" in result.functions["f"].tainted_full

    def test_taint_through_global(self):
        result = taint("""
        global @state[2]
        func @stash(v: int) {
        entry:
          store v, state[0]
          ret 0
        }
        func @f(k: int) {
        entry:
          c = call @stash(k)
          x = load state[1]
          ret x
        }
        """, roots={"f": ["k"]}, include_unreached=False)
        assert "x" in result.functions["f"].tainted_full

    def test_recursion_falls_back_conservatively(self):
        result = taint("""
        func @loop(x: int) {
        entry:
          y = call @loop(x)
          ret y
        }
        func @f(pub: int, k: int) {
        entry:
          y = call @loop(pub)
          ret y
        }
        """, roots={"f": ["k"]}, include_unreached=False)
        assert result.recursion_fallbacks >= 1
        # The conservative summary taints the result even for the public
        # argument: soundness over precision.
        assert "y" in result.functions["f"].tainted_full


# @h's load is data-tainted when called with the secret itself and
# selector-only when called with a guard select steered by the secret; the
# data-tainted context reaches @h first.
MIXED_CONTEXTS = """
func @h(p: ptr, i: int) {
entry:
  x = load p[i]
  ret x
}
func @f(p: ptr, k: int, c: int) {
entry:
  a = call @h(p, k)
  g = ctsel c, 1, 0, guard
  b = call @h(p, g)
  ret 0
}
"""


class TestLeakMerging:
    def test_one_record_per_access_whatever_the_context_order(self):
        result = taint(
            MIXED_CONTEXTS, roots={"f": ["p", "k", "c"]},
            include_unreached=False,
        )
        record = result.functions["h"]
        assert record.contexts == 2
        assert len(record.index_leaks) == 1
        assert record.index_leaks[0].data_tainted

    def test_certifier_reports_the_access_once(self):
        from repro.statics.certifier import certify_entry

        report = certify_entry(parse_module(MIXED_CONTEXTS), "f")
        certificate = report.functions["h"]
        rules = [d.rule for d in certificate.diagnostics]
        assert rules == ["CT-INDEX-SECRET"]
        assert certificate.selector_notes == 0
        assert certificate.data_leaks == 1


class TestShadowSlots:
    def test_repaired_guarded_load_keeps_data_channel_clean(self):
        # The repair pass's guarded access (the ``, guard`` marker): the
        # *address* is chosen by a secret-steered guard select between two
        # public values (i or 0), so the full channel is tainted but the
        # data channel is not.
        result = taint("""
        func @f(a: ptr, i: int, k: int) {
        entry:
          sh = alloc 1
          inb = mov k == 0
          idx = ctsel inb, i, 0, guard
          x = load a[idx]
          ret x
        }
        """, roots={"f": ["k"]}, include_unreached=False)
        record = result.functions["f"]
        assert "idx" in record.tainted_full
        assert "idx" not in record.tainted_data
        leaks = record.index_leaks
        assert len(leaks) == 1 and not leaks[0].data_tainted

    def test_secret_condition_ternary_is_data_tainted(self):
        # Regression for fuzz case s0000005252-80d7d98b40: a *non-guard*
        # select computes with its condition — ``(k <= x) ? 0 : 1`` encodes
        # the secret in its result even though both arms are public
        # constants.  Treating it like a repair guard certified a real leak.
        result = taint("""
        func @f(a: ptr, k: int) {
        entry:
          c = mov k <= 5
          idx = ctsel c, 0, 1
          x = load a[idx]
          ret x
        }
        """, roots={"f": ["k"]}, include_unreached=False)
        record = result.functions["f"]
        assert "idx" in record.tainted_data
        assert any(l.data_tainted for l in record.index_leaks)

    def test_secret_arm_index_is_data_tainted(self):
        # An S-box index *computed from* the secret stays a data leak even
        # when wrapped in a ctsel.
        result = taint("""
        const global @sbox[256]
        func @f(k: int, n: int) {
        entry:
          i = mov k & 255
          inb = mov i < n
          idx = ctsel inb, i, 0
          x = load sbox[idx]
          ret x
        }
        """, roots={"f": ["k"]}, include_unreached=False)
        record = result.functions["f"]
        assert "idx" in record.tainted_data
        assert any(l.data_tainted for l in record.index_leaks)


class TestRoots:
    def test_default_roots_prefer_declared_secrets(self):
        module = parse_module("""
        func @f(k: secret int, pub: int) {
        entry:
          ret k
        }
        func @g(a: int) {
        entry:
          ret a
        }
        """)
        roots = default_roots(module)
        assert roots == {"f": ["k"], "g": ["a"]}

    def test_include_unreached_false_restricts_report(self):
        result = taint("""
        func @f(k: int) {
        entry:
          ret k
        }
        func @other(k: int) {
        entry:
          p = mov k == 0
          br p, a, b
        a:
          jmp b
        b:
          ret 0
        }
        """, roots={"f": ["k"]}, include_unreached=False)
        assert set(result.functions) == {"f"}

    def test_for_root_marks_pointer_contents(self):
        module = parse_module("""
        func @f(a: ptr, k: int) {
        entry:
          x = load a[0]
          ret x
        }
        """)
        context = TaintContext.for_root(module.functions["f"], ["a", "k"])
        assert "a" in context.pointees
        result = analyze_module_taint(
            module, {"f": ["a", "k"]}, include_unreached=False
        )
        assert "x" in result.functions["f"].tainted_full
