"""The compiled backend's differential suites with every block generated.

A compiled block body runs on the reference closures until it has been
entered ``TIER_UP_THRESHOLD`` times, so the suites in their own modules
mostly check the closure tier.  Here the threshold is 1, which generates
each block's source on its first entry, and the same checks hold the
generated code to the interpreter: values, cycles, steps, traces,
violations and cache reports (``test_backend_equivalence``), exception
types and messages (``TestErrorParity``) and ``run_many``.

Every test here also requires that no block's generation failed, and
``test_cache_reports_agree_everywhere`` extends the cache-mode check from
three benchmarks to all of them, so tier-up is forced and must succeed for
every benchmark, variant and mode (plain, trace, cache).
"""

import pytest

from repro.exec import compiled
from repro.obs import OBS

from tests.integration import test_backend_equivalence as equivalence
from tests.integration.test_backend_equivalence import (  # noqa: F401
    ALL_NAMES,
    TestNoTraceEquivalence,
    TestTraceEquivalence,
)
from tests.unit.test_compiled_backend import TestErrorParity  # noqa: F401
from tests.unit.test_run_many import (  # noqa: F401
    test_fallback_does_not_mutate_vectors,
    test_fallback_loop_matches_batch_bit_for_bit,
    test_first_erroring_vector_raises_in_order,
    test_run_many_empty_family,
)


@pytest.fixture(autouse=True)
def generate_on_first_entry(monkeypatch):
    # Cached compilations carry their blocks' entry counts and tiers, so
    # each test starts and ends with an empty compile cache.
    compiled.clear_compile_cache()
    monkeypatch.setattr(compiled, "TIER_UP_THRESHOLD", 1)
    with OBS.capture(force=True) as window:
        yield
    compiled.clear_compile_cache()
    assert window.counters.get("exec.tier.fallback", 0) == 0


@pytest.mark.parametrize("name", ALL_NAMES)
def test_cache_reports_agree_everywhere(name):
    with OBS.capture() as window:
        equivalence.TestCacheModeEquivalence().test_cache_reports_agree(name)
    assert window.counters["exec.tier.up"] > 0
