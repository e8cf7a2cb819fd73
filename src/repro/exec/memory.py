"""Bounds-checked memory model for the interpreter.

Memory is a set of *regions* (one per global array, per ``alloc``, and per
array argument).  A pointer value is an opaque handle to a region; the IR has
no pointer arithmetic, so every access is ``region[index]`` and can be
checked exactly — this is the stand-in for the paper's valgrind validation,
and it is what lets the test suite demonstrate that SC-Eliminator-style
repair introduces out-of-bounds accesses while the paper's repair does not.

Regions also carry a base *byte* address from a deterministic bump
allocator, which the cache simulator uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from repro.ir.ops import WORD_BYTES

#: Where an access happened: its text, or a function rendering the text,
#: called only if the access is reported.
Site = Union[str, Callable[[], str], None]


class MemorySafetyViolation(Exception):
    """An out-of-bounds access detected in strict mode."""

    def __init__(self, access: "AccessViolation") -> None:
        super().__init__(str(access))
        self.access = access


@dataclass(frozen=True)
class AccessViolation:
    """Record of one out-of-bounds access."""

    kind: str  # "load" or "store"
    region: str
    index: int
    size: int
    site: Optional[str] = None

    def __str__(self) -> str:
        where = f" at {self.site}" if self.site else ""
        return (
            f"out-of-bounds {self.kind} of {self.region}[{self.index}] "
            f"(size {self.size}){where}"
        )


@dataclass
class Region:
    """A contiguous array of machine words."""

    ident: int
    name: str
    size: int
    base: int  # byte address
    cells: list[int]
    writable: bool = True

    def address_of(self, index: int) -> int:
        return self.base + index * WORD_BYTES


@dataclass(frozen=True)
class Pointer:
    """Runtime pointer value: a handle to a region."""

    region: int

    def __str__(self) -> str:
        return f"ptr({self.region})"


#: Gap (in words) left between regions, so adjacent overflows never silently
#: land in a neighbouring region even in permissive mode.
_GUARD_WORDS = 8


@dataclass
class Memory:
    """All regions of one execution, with strict or permissive OOB handling.

    * strict mode (the default) raises :class:`MemorySafetyViolation` on the
      first out-of-bounds access — the behaviour a memory-safe language
      runtime would have;
    * permissive mode emulates C: OOB reads return an unspecified value
      (deterministically derived from the address so runs are repeatable),
      OOB writes are dropped, and every violation is recorded.  Permissive
      mode lets us *run* the memory-unsafe code the baseline produces and
      count its violations.
    """

    strict: bool = True
    regions: dict[int, Region] = field(default_factory=dict)
    violations: list[AccessViolation] = field(default_factory=list)
    _next_ident: int = 0
    _next_base: int = 0x1000

    def allocate(
        self,
        name: str,
        size: int,
        init: Optional[list[int]] = None,
        writable: bool = True,
    ) -> Pointer:
        if size < 0:
            raise ValueError(f"negative allocation size for {name}: {size}")
        cells = list(init) if init is not None else [0] * size
        if len(cells) < size:
            cells.extend(0 for _ in range(size - len(cells)))
        region = Region(
            ident=self._next_ident,
            name=name,
            size=size,
            base=self._next_base,
            cells=cells,
            writable=writable,
        )
        self.regions[region.ident] = region
        self._next_ident += 1
        self._next_base += (size + _GUARD_WORDS) * WORD_BYTES
        return Pointer(region.ident)

    def region_of(self, pointer: Pointer) -> Region:
        return self.regions[pointer.region]

    def load(self, pointer: Pointer, index: int, site: Site = None) -> int:
        region = self.regions[pointer.region]
        if 0 <= index < region.size:
            return region.cells[index]
        self._report("load", region, index, site)
        # Deterministic "garbage" so permissive runs are reproducible.
        return (region.base + index * WORD_BYTES) & 0xFF

    def store(
        self, pointer: Pointer, index: int, value: int, site: Site = None
    ) -> None:
        region = self.regions[pointer.region]
        if 0 <= index < region.size and region.writable:
            region.cells[index] = value
            return
        self._report("store", region, index, site)

    def address_of(self, pointer: Pointer, index: int) -> int:
        """Byte address of an access (even an OOB one), for the cache model."""
        region = self.regions[pointer.region]
        return region.address_of(index)

    def in_bounds(self, pointer: Pointer, index: int) -> bool:
        region = self.regions[pointer.region]
        return 0 <= index < region.size

    def snapshot(self, pointer: Pointer) -> list[int]:
        return list(self.regions[pointer.region].cells)

    def _report(self, kind: str, region: Region, index: int, site: Site) -> None:
        if callable(site):
            site = site()
        violation = AccessViolation(kind, region.name, index, region.size, site)
        self.violations.append(violation)
        if self.strict:
            raise MemorySafetyViolation(violation)
