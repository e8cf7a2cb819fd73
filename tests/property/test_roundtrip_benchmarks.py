"""Satellite: the printer→parser round-trip is lossless on every benchmark.

This is the invariant the on-disk artifact cache rests on — a cached module
is exactly its printed text, so ``parse_module(module_to_str(m))`` must
reprint byte-identically for the original, repaired, and -O1 form of all 24
benchmark programs.  The parser reads printer-shaped lines directly and
tokenises any other line; both paths must build the same module, so the
same corpus re-rendered free-form must parse to it as well.
"""

import itertools

import pytest

from repro.bench.suite import BENCHMARKS, load_module
from repro.core import RepairOptions, repair_module
from repro.ir.parser import parse_module
from repro.ir.printer import module_to_str
from repro.opt import optimize

_NAMES = [bench.name for bench in BENCHMARKS]


def _variants(name):
    original = load_module(name)
    repaired = repair_module(original, RepairOptions(validate_output=False))
    return {
        "original": original,
        "repaired": repaired,
        "repaired_o1": optimize(repaired, validate=False),
    }


@pytest.mark.parametrize("name", _NAMES)
def test_round_trip_is_lossless(name):
    for variant, module in _variants(name).items():
        text = module_to_str(module)
        reparsed = parse_module(text, name=module.name)
        assert module_to_str(reparsed) == text, f"{name}/{variant}"


def _free_form(text):
    """Printed IR with each function body on one line, tabs and runs of
    spaces between tokens, and a comment on every line."""
    lines, body = [], None
    for line in text.splitlines():
        if line.startswith("func "):
            body = [line]
        elif body is not None:
            body.append(line.strip())
            if line == "}":
                lines.append(" ".join(body))
                body = None
        elif line:
            lines.append(line)
    gaps = itertools.cycle(("\t", "   ", " \t "))
    comments = itertools.cycle(("; a comment", "# another"))
    out = []
    for line in lines:
        words = line.split(" ")
        out.append(words[0])
        for word in words[1:]:
            out.append(next(gaps) + word)
        out.append(f"  {next(comments)}\n")
    return "".join(out)


@pytest.mark.parametrize("name", _NAMES)
def test_fast_parser_agrees_with_tokenizing_parser(name):
    # Printed text takes the line reader's fast path; the free-form text
    # sends every line through the tokenising path instead.
    for variant, module in _variants(name).items():
        text = module_to_str(module)
        free = parse_module(_free_form(text), name=module.name)
        assert module_to_str(free) == text, f"{name}/{variant}"


@pytest.mark.parametrize("name", _NAMES)
def test_secret_qualifiers_survive(name):
    original = load_module(name)
    reparsed = parse_module(module_to_str(original), name=original.name)
    for function in original.functions.values():
        assert (
            reparsed.function(function.name).sensitive_params
            == function.sensitive_params
        )
