"""The documentation stays wired to reality.

Two easy-to-rot reference classes are checked mechanically: every
relative link in the ``docs/`` book (and the README) must resolve to a
file in the repository, and every ``REPRO_*`` environment knob the
EXPERIMENTS.md table documents must actually be read somewhere under
``src/`` (or ``benchmarks/``, for harness-only knobs) — a renamed knob
or a moved page fails here instead of misleading a reader.  The textual
IR example in LANGUAGE.md must parse, too.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.ir import parse_module

REPO = Path(__file__).resolve().parents[2]

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_KNOB_ROW = re.compile(r"^\|\s*`(REPRO_[A-Z0-9_]+)`\s*\|", re.MULTILINE)


def _doc_pages():
    pages = sorted((REPO / "docs").glob("*.md"))
    assert pages, "docs/ book missing"
    return [REPO / "README.md"] + pages


def test_docs_relative_links_resolve():
    broken = []
    for page in _doc_pages():
        for target in _LINK.findall(page.read_text()):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue  # intra-page anchor
            resolved = (page.parent / target).resolve()
            if not resolved.exists():
                broken.append(f"{page.relative_to(REPO)} -> {target}")
    assert not broken, "broken relative links:\n" + "\n".join(broken)


def test_experiments_knobs_are_read_in_src():
    text = (REPO / "EXPERIMENTS.md").read_text()
    knobs = sorted(set(_KNOB_ROW.findall(text)))
    assert len(knobs) >= 20, f"knob table shrank unexpectedly: {knobs}"
    sources = "\n".join(
        path.read_text()
        for root in (REPO / "src", REPO / "benchmarks")
        for path in root.rglob("*.py")
    )
    unread = [knob for knob in knobs if knob not in sources]
    assert not unread, (
        "EXPERIMENTS.md documents env knobs with no read under src/ or "
        f"benchmarks/: {unread}"
    )


def test_docs_name_every_bench_record():
    """Each committed BENCH_*.json is documented in EXPERIMENTS.md."""
    text = (REPO / "EXPERIMENTS.md").read_text()
    missing = [
        record.name
        for record in sorted(REPO.glob("BENCH_*.json"))
        if record.name not in text
    ]
    assert not missing, f"EXPERIMENTS.md never mentions: {missing}"


def test_language_ir_example_parses():
    """The fenced example under LANGUAGE.md's "Textual IR" parses."""
    text = (REPO / "docs" / "LANGUAGE.md").read_text()
    section = text.split("\n## Textual IR\n", 1)[1].split("\n## ", 1)[0]
    example = section.split("```\n", 2)[1]
    module = parse_module(example)
    assert list(module.globals) == ["sbox", "scratch"]
    assert list(module.function("cmp").blocks) == ["entry", "eq", "ne", "done"]
