"""Bounds-checked memory model."""

import pytest

from repro.exec import BACKENDS, Memory, MemorySafetyViolation, make_executor
from repro.exec.memory import _GUARD_WORDS
from repro.ir import parse_module
from repro.ir.ops import WORD_BYTES


class TestBasics:
    def test_allocate_and_access(self):
        memory = Memory()
        pointer = memory.allocate("buf", 4)
        memory.store(pointer, 2, 42)
        assert memory.load(pointer, 2) == 42
        assert memory.load(pointer, 0) == 0

    def test_initializer(self):
        memory = Memory()
        pointer = memory.allocate("buf", 4, [1, 2])
        assert memory.snapshot(pointer) == [1, 2, 0, 0]

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Memory().allocate("buf", -1)

    def test_zero_size_allowed(self):
        memory = Memory()
        pointer = memory.allocate("empty", 0)
        assert memory.snapshot(pointer) == []

    def test_addresses_are_disjoint(self):
        memory = Memory()
        a = memory.allocate("a", 4)
        b = memory.allocate("b", 4)
        last_of_a = memory.address_of(a, 3)
        first_of_b = memory.address_of(b, 0)
        assert first_of_b - last_of_a > _GUARD_WORDS * WORD_BYTES // 2

    def test_in_bounds_query(self):
        memory = Memory()
        pointer = memory.allocate("buf", 2)
        assert memory.in_bounds(pointer, 0)
        assert memory.in_bounds(pointer, 1)
        assert not memory.in_bounds(pointer, 2)
        assert not memory.in_bounds(pointer, -1)


class TestStrictMode:
    def test_oob_load_raises(self):
        memory = Memory(strict=True)
        pointer = memory.allocate("buf", 2)
        with pytest.raises(MemorySafetyViolation) as excinfo:
            memory.load(pointer, 2)
        assert excinfo.value.access.kind == "load"
        assert excinfo.value.access.index == 2

    def test_oob_store_raises(self):
        memory = Memory(strict=True)
        pointer = memory.allocate("buf", 2)
        with pytest.raises(MemorySafetyViolation):
            memory.store(pointer, -1, 5)

    def test_negative_index_is_oob(self):
        memory = Memory(strict=True)
        pointer = memory.allocate("buf", 2)
        with pytest.raises(MemorySafetyViolation):
            memory.load(pointer, -1)


class TestSites:
    def test_callable_site_is_rendered_only_on_a_violation(self):
        calls = []

        def site():
            calls.append(1)
            return "f:x = load buf[i]"

        memory = Memory(strict=False)
        pointer = memory.allocate("buf", 2)
        memory.load(pointer, 1, site)
        memory.store(pointer, 0, 3, site)
        assert calls == []
        memory.load(pointer, 2, site)
        assert calls == [1]
        assert memory.violations[0].site == "f:x = load buf[i]"

    def test_read_only_store_is_reported_and_dropped(self):
        memory = Memory(strict=False)
        pointer = memory.allocate("rom", 2, [4, 5], writable=False)
        memory.store(pointer, 1, 9, "f:store 9, rom[1]")
        assert memory.snapshot(pointer) == [4, 5]
        assert [str(v) for v in memory.violations] == [
            "read-only store of rom[1] (size 2) at f:store 9, rom[1]"
        ]


class TestPermissiveMode:
    def test_oob_load_returns_deterministic_garbage(self):
        memory = Memory(strict=False)
        pointer = memory.allocate("buf", 2)
        first = memory.load(pointer, 99)
        second = memory.load(pointer, 99)
        assert first == second
        assert len(memory.violations) == 2

    def test_oob_store_is_dropped(self):
        memory = Memory(strict=False)
        pointer = memory.allocate("buf", 2)
        other = memory.allocate("other", 2)
        memory.store(pointer, 2, 123)  # would land near `other` in real C
        assert memory.snapshot(other) == [0, 0]
        assert memory.violations[0].kind == "store"

    def test_violation_site_recorded(self):
        memory = Memory(strict=False)
        pointer = memory.allocate("buf", 1)
        memory.load(pointer, 5, site="f:load x")
        assert "f:load x" in str(memory.violations[0])

    def test_readonly_region_store_flagged(self):
        memory = Memory(strict=False)
        pointer = memory.allocate("table", 2, [1, 2], writable=False)
        memory.store(pointer, 0, 99)
        assert memory.snapshot(pointer) == [1, 2]
        assert len(memory.violations) == 1


class TestConstGlobals:
    """Every backend allocates a ``const global`` read-only."""

    SOURCE = """
const global @tab[2] = [1, 2]
global @out[1] = [0]

func @f(x: int) {
entry:
  store x, tab[1]
  store x, out[0]
  v = load tab[1]
  w = load out[0]
  r = mov v + w
  ret r
}
"""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_strict_store_raises(self, backend):
        executor = make_executor(parse_module(self.SOURCE), backend=backend)
        with pytest.raises(MemorySafetyViolation,
                           match=r"^read-only store of @tab\[1\] \(size 2\)"):
            executor.run("f", [7])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_permissive_store_is_recorded_and_dropped(self, backend):
        executor = make_executor(
            parse_module(self.SOURCE), backend=backend, strict_memory=False
        )
        result = executor.run("f", [7])
        assert result.value == 2 + 7  # tab[1] kept its 2; out[0] took the 7
        assert [(v.kind, v.region, v.index) for v in result.violations] == [
            ("store", "@tab", 1)
        ]
        assert str(result.violations[0]).startswith("read-only store of @tab[1]")

    def test_permissive_batch_lanes_drop_the_store(self):
        executor = make_executor(
            parse_module(self.SOURCE), backend="batch", strict_memory=False
        )
        results = executor.run_batch("f", [[7], [8]])
        assert [r.value for r in results] == [9, 10]
        assert [len(r.violations) for r in results] == [1, 1]
