"""Leak detection with one root function (the FlowTracker-style queries
``lif check`` and the opt sanitizer ask the interprocedural engine)."""

from repro.ir import parse_module
from repro.statics.interproc import analyze_module_taint


def taint_of(module, name: str, secrets=None):
    """The root's merged record; ``secrets`` defaults to every parameter."""
    if secrets is None:
        secrets = module.function(name).param_names()
    result = analyze_module_taint(module, {name: secrets}, False)
    return result.functions[name]


def analyze(text: str, name: str = "f", secrets=None):
    return taint_of(parse_module(text), name, secrets)


class TestExplicitFlows:
    def test_all_params_sensitive_by_default(self):
        report = analyze("""
        func @f(k: int) {
        entry:
          x = mov k + 1
          ret x
        }
        """)
        assert "k" in report.tainted_full
        assert "x" in report.tainted_full

    def test_selected_params_only(self):
        report = analyze("""
        func @f(k: int, pub: int) {
        entry:
          x = mov pub + 1
          y = mov k + 1
          ret y
        }
        """, secrets=["k"])
        assert "x" not in report.tainted_full
        assert "y" in report.tainted_full

    def test_constants_are_untainted(self):
        report = analyze("""
        func @f(k: int) {
        entry:
          x = mov 41
          y = mov x + 1
          ret y
        }
        """)
        assert "y" not in report.tainted_full

    def test_load_from_secret_array_is_tainted(self):
        report = analyze("""
        func @f(a: ptr) {
        entry:
          x = load a[0]
          ret x
        }
        """)
        assert "x" in report.tainted_full

    def test_load_from_public_table_with_public_index(self):
        report = analyze("""
        const global @tab[4] = [1, 2, 3, 4]
        func @f(k: int, i: int) {
        entry:
          x = load tab[i]
          ret x
        }
        """, secrets=["k"])
        assert "x" not in report.tainted_full

    def test_store_taints_array_contents(self):
        report = analyze("""
        func @f(k: int) {
        entry:
          buf = alloc 2
          store k, buf[0]
          x = load buf[1]
          ret x
        }
        """)
        assert "buf" in report.tainted_regions
        assert "x" in report.tainted_full


class TestImplicitFlows:
    def test_assignment_under_secret_branch_is_tainted(self):
        report = analyze("""
        func @f(k: int) {
        entry:
          p = mov k == 0
          br p, then, done
        then:
          leak = mov 1
          jmp done
        done:
          r = phi [leak, then], [0, entry]
          ret r
        }
        """)
        assert "leak" in report.tainted_full

    def test_nested_implicit_flow_is_transitive(self):
        report = analyze("""
        func @f(k: int, pub: int) {
        entry:
          p = mov k == 0
          br p, outer, done
        outer:
          q = mov pub == 0
          br q, inner, merge
        inner:
          deep = mov 1
          jmp merge
        merge:
          jmp done
        done:
          ret 0
        }
        """, secrets=["k"])
        # `deep` runs only when k == 0: tainted through the outer branch even
        # though its direct controller (q) is public.
        assert "deep" in report.tainted_full


class TestLeakReporting:
    def test_secret_branch_is_operation_leak(self):
        report = analyze("""
        func @f(k: int) {
        entry:
          p = mov k < 0
          br p, a, b
        a:
          jmp b
        b:
          ret 0
        }
        """)
        assert report.branch_leaks
        assert report.branch_leaks[0].predicate == "p"
        assert report.branch_leaks or report.index_leaks

    def test_secret_index_is_data_leak(self):
        report = analyze("""
        const global @sbox[256]
        func @f(k: int) {
        entry:
          i = mov k & 255
          x = load sbox[i]
          ret x
        }
        """)
        assert report.index_leaks
        leak = report.index_leaks[0]
        assert (leak.array, leak.index) == ("sbox", "i")

    def test_branch_free_public_indexing_is_clean(self):
        report = analyze("""
        func @f(a: ptr, b: ptr) {
        entry:
          x = load a[0]
          y = load b[0]
          r = mov x ^ y
          ret r
        }
        """)
        assert not (report.branch_leaks or report.index_leaks)

    def test_call_taints_pointer_arguments(self):
        report = analyze("""
        func @g(p: ptr, v: int) {
        entry:
          store v, p[0]
          ret 0
        }
        func @f(k: int) {
        entry:
          buf = alloc 1
          c = call @g(buf, k)
          x = load buf[0]
          ret x
        }
        """)
        assert "buf" in report.tainted_regions
        assert "x" in report.tainted_full


class TestFig1Classification:
    """The paper's Fig. 1 quartet, classified automatically."""

    def test_ofdf_is_operation_and_data_variant(self, fig1_module):
        report = taint_of(fig1_module, "ofdf")
        assert report.branch_leaks

    def test_ofdt_is_operation_variant_only(self, fig1_module):
        report = taint_of(fig1_module, "ofdt")
        assert report.branch_leaks
        assert not report.index_leaks

    def test_otdf_is_data_variant_only(self, fig1_module):
        report = taint_of(fig1_module, "otdf", ["t"])
        assert not report.branch_leaks
        assert report.index_leaks

    def test_otdt_is_isochronous(self, fig1_module):
        report = taint_of(fig1_module, "otdt")
        assert not (report.branch_leaks or report.index_leaks)


class TestImplicitFlowRegressions:
    """Implicit flows that used to slip through (multi-exit CFGs, void calls)."""

    def test_store_under_secret_branch_in_multi_exit_function(self):
        # Two `ret` blocks: control dependence needs the virtual-exit
        # postdominator tree, or the store's implicit taint is dropped.
        report = analyze("""
        func @f(k: int, out: ptr) {
        entry:
          p = mov k == 0
          br p, early, late
        early:
          store 1, out[0]
          ret 0
        late:
          store 2, out[0]
          ret 1
        }
        """)
        assert "out" in report.tainted_regions
        assert report.branch_leaks

    def test_early_return_value_is_implicitly_tainted(self):
        report = analyze("""
        func @f(k: int) {
        entry:
          p = mov k == 0
          br p, early, late
        early:
          x = mov 7
          ret x
        late:
          ret 0
        }
        """)
        assert "x" in report.tainted_full

    def test_void_call_taints_pointer_argument(self):
        # The call has no destination: the handler must still run so the
        # callee's writes taint the caller's buffer.
        report = analyze("""
        func @g(p: ptr, v: int) {
        entry:
          store v, p[0]
          ret 0
        }
        func @f(k: int) {
        entry:
          buf = alloc 1
          call @g(buf, k)
          x = load buf[0]
          ret x
        }
        """)
        assert "buf" in report.tainted_regions
        assert "x" in report.tainted_full
