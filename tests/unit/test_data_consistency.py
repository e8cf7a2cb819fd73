"""Static data-consistency classification (paper Definition 1 / Section IV)."""

from repro.analysis import classify_data_consistency
from repro.ir import parse_module


def classify(text: str, name: str = "f", secrets=None):
    return classify_data_consistency(parse_module(text), name, secrets)


class TestClassification:
    def test_constant_indices_unconditional_is_consistent(self):
        report = classify("""
        func @f(a: ptr) {
        entry:
          x = load a[0]
          y = load a[1]
          r = mov x + y
          ret r
        }
        """)
        assert report.source_data_consistent
        assert report.repaired_data_invariant
        assert not report.inherently_inconsistent

    def test_guarded_access_breaks_source_consistency(self):
        report = classify("""
        func @f(a: ptr, c: int) {
        entry:
          p = mov c == 0
          br p, then, done
        then:
          x = load a[0]
          jmp done
        done:
          r = phi [x, then], [0, entry]
          ret r
        }
        """)
        assert not report.source_data_consistent
        # ...but repair restores data invariance: the index is a constant and
        # the array has a contract.
        assert report.repaired_data_invariant

    def test_input_indexed_access_is_inherent(self):
        report = classify("""
        func @f(a: ptr, i: int) {
        entry:
          x = load a[i]
          ret x
        }
        """)
        assert report.inherently_inconsistent
        assert not report.repaired_data_invariant

    def test_loop_counter_index_is_not_inherent(self, fig1_module):
        # After unrolling, oFdF's indices are constants.
        report = classify_data_consistency(fig1_module, "ofdf")
        assert not report.inherently_inconsistent
        assert report.repaired_data_invariant

    def test_otdf_is_inherent(self, fig1_module):
        report = classify_data_consistency(fig1_module, "otdf")
        assert report.inherently_inconsistent

    def test_pointer_params_count_as_bounded(self):
        # The repair *creates* their contracts, so no access is "unknown".
        report = classify("""
        func @f(a: ptr) {
        entry:
          x = load a[3]
          ret x
        }
        """)
        assert not report.has_unknown_bounds

    def test_unknown_join_pointer_has_unknown_bound(self):
        report = classify("""
        func @f(a: ptr, b: ptr, c: int) {
        entry:
          p = ctsel c, a, b
          x = load p[0]
          ret x
        }
        """)
        assert report.has_unknown_bounds
        assert not report.repaired_data_invariant

    def test_access_details_recorded(self):
        report = classify("""
        func @f(a: ptr, i: int) {
        entry:
          x = load a[i]
          store x, a[0]
          ret x
        }
        """)
        assert len(report.accesses) == 2
        by_desc = {a.description: a for a in report.accesses}
        assert by_desc["x = load a[i]"].input_indexed
        assert not by_desc["store x, a[0]"].input_indexed

    def test_secret_a_callee_writes_into_a_global_indexes_memory(self):
        # @w stores the secret into @g; @f reads it back and indexes @t
        # with it.  Only callee summaries see that @g holds a secret.
        report = classify("""
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
        """)
        assert report.inherently_inconsistent
        by_desc = {a.description: a for a in report.accesses}
        assert by_desc["x = load t[i]"].input_indexed
        assert not by_desc["s = load g[0]"].input_indexed
