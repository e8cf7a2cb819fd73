"""The validator's exact output, pinned rule by rule.

Each case is a small ill-formed module.  Raise mode (``validate_module``)
must report the same first finding with the same ``str(error)``, rule and
anchor; collect mode (``diagnose_module``) must render the same sorted list
of findings.  UNDEF and DOM are covered at every kind of use site: a plain
instruction operand, a phi incoming, a terminator, a same-block use before
its definition, and a cross-block use without dominance.

The second half guards the cost of the validator: on valid IR it must not
build a single :class:`~repro.statics.diagnostics.Anchor`.
"""

import pytest

from repro.bench.suite import BENCHMARKS, load_module
from repro.core import RepairOptions, repair_module
from repro.ir import (
    Function,
    ValidationError,
    diagnose_function,
    diagnose_module,
    parse_module,
    validate_module,
)

#: ``name -> (IR text, (str(error), rule, anchor dict) or None, renders)``.
#: ``no_blocks`` adds a block-less ``@f``; ``term_missing`` strips the
#: terminators of blocks ``a`` and ``b`` after parsing.
PINNED = {
    "no_blocks": (
        None,
        (
            "@f: @f: function has no blocks",
            "IR-NO-BLOCKS",
            {"function": "f"},
        ),
        [
            "error[IR-NO-BLOCKS] @f: @f: function has no blocks",
        ],
    ),
    "term_missing": (
        """
func @f(c: int) {
entry:
  br c, a, b
a:
  ret 1
b:
  ret 2
}
""",
        (
            "@f:a: @f: block a has no terminator",
            "IR-TERM-MISSING",
            {"function": "f", "block": "a"},
        ),
        [
            "error[IR-TERM-MISSING] @f:a: @f: block a has no terminator\n    fix-it: end the block with jmp, br, or ret",
            "error[IR-TERM-MISSING] @f:b: @f: block b has no terminator\n    fix-it: end the block with jmp, br, or ret",
        ],
    ),
    "unknown_target": (
        """func @f() { entry: jmp nowhere }
""",
        (
            "@f: @f: block entry of @f jumps to undefined label 'nowhere'",
            "IR-SSA-UNDEF",
            {"function": "f"},
        ),
        [
            "error[IR-SSA-UNDEF] @f: @f: block entry of @f jumps to undefined label 'nowhere'",
        ],
    ),
    "phi_order": (
        """
func @f(c: int) {
entry:
  br c, a, b
a:
  jmp join
b:
  jmp join
join:
  t = mov 1
  x = phi [1, a], [2, b]
  ret x
}
""",
        (
            "@f:join:#1: @f:join: phi x does not lead its block",
            "IR-PHI-ORDER",
            {"function": "f", "block": "join", "index": 1, "instruction": "x = phi [1, a], [2, b]"},
        ),
        [
            "error[IR-PHI-ORDER] @f:join:#1: @f:join: phi x does not lead its block\n    | x = phi [1, a], [2, b]\n    fix-it: move the phi above every non-phi instruction",
        ],
    ),
    "phi_dup": (
        """
func @f() {
entry:
  jmp join
join:
  x = phi [1, entry], [2, entry]
  ret x
}
""",
        (
            "@f:join:#0: @f:join: phi x incomings ['entry', 'entry'] do not match predecessors ['entry']: predecessor entry listed 2 times",
            "IR-PHI-PRED-DUP",
            {"function": "f", "block": "join", "index": 0, "instruction": "x = phi [1, entry], [2, entry]"},
        ),
        [
            "error[IR-PHI-PRED-DUP] @f:join:#0: @f:join: phi x incomings ['entry', 'entry'] do not match predecessors ['entry']: predecessor entry listed 2 times\n    | x = phi [1, entry], [2, entry]\n    fix-it: keep a single incoming for entry",
        ],
    ),
    "phi_missing": (
        """
func @f(c: int) {
entry:
  br c, a, b
a:
  jmp join
b:
  jmp join
join:
  x = phi [1, a]
  ret x
}
""",
        (
            "@f:join:#0: @f:join: phi x incomings ['a'] do not match predecessors ['a', 'b']: no incoming for b",
            "IR-PHI-PRED-MISSING",
            {"function": "f", "block": "join", "index": 0, "instruction": "x = phi [1, a]"},
        ),
        [
            "error[IR-PHI-PRED-MISSING] @f:join:#0: @f:join: phi x incomings ['a'] do not match predecessors ['a', 'b']: no incoming for b\n    | x = phi [1, a]\n    fix-it: add an incoming value for predecessor b",
        ],
    ),
    "phi_extra": (
        """
func @f() {
entry:
  jmp join
join:
  x = phi [1, entry], [2, nowhere]
  ret x
}
""",
        (
            "@f:join:#0: @f:join: phi x incomings ['entry', 'nowhere'] do not match predecessors ['entry']: nowhere is not a predecessor of join",
            "IR-PHI-PRED-EXTRA",
            {"function": "f", "block": "join", "index": 0, "instruction": "x = phi [1, entry], [2, nowhere]"},
        ),
        [
            "error[IR-PHI-PRED-EXTRA] @f:join:#0: @f:join: phi x incomings ['entry', 'nowhere'] do not match predecessors ['entry']: nowhere is not a predecessor of join\n    | x = phi [1, entry], [2, nowhere]\n    fix-it: drop the incoming from nowhere",
        ],
    ),
    "phi_all_at_once": (
        """
func @f(c: int) {
entry:
  br c, a, b
a:
  jmp join
b:
  jmp join
join:
  t = mov 1
  x = phi [1, a], [2, a], [3, entry]
  ret x
}
""",
        (
            "@f:join:#1: @f:join: phi x does not lead its block",
            "IR-PHI-ORDER",
            {"function": "f", "block": "join", "index": 1, "instruction": "x = phi [1, a], [2, a], [3, entry]"},
        ),
        [
            "error[IR-PHI-ORDER] @f:join:#1: @f:join: phi x does not lead its block\n    | x = phi [1, a], [2, a], [3, entry]\n    fix-it: move the phi above every non-phi instruction",
            "error[IR-PHI-PRED-DUP] @f:join:#1: @f:join: phi x incomings ['a', 'a', 'entry'] do not match predecessors ['a', 'b']: predecessor a listed 2 times\n    | x = phi [1, a], [2, a], [3, entry]\n    fix-it: keep a single incoming for a",
            "error[IR-PHI-PRED-EXTRA] @f:join:#1: @f:join: phi x incomings ['a', 'a', 'entry'] do not match predecessors ['a', 'b']: entry is not a predecessor of join\n    | x = phi [1, a], [2, a], [3, entry]\n    fix-it: drop the incoming from entry",
            "error[IR-PHI-PRED-MISSING] @f:join:#1: @f:join: phi x incomings ['a', 'a', 'entry'] do not match predecessors ['a', 'b']: no incoming for b\n    | x = phi [1, a], [2, a], [3, entry]\n    fix-it: add an incoming value for predecessor b",
        ],
    ),
    "redef": (
        """
func @f() {
entry:
  x = mov 1
  x = mov 2
  ret x
}
""",
        (
            "@f:entry:#1: @f: variable x defined twice",
            "IR-SSA-REDEF",
            {"function": "f", "block": "entry", "index": 1, "instruction": "x = mov 2"},
        ),
        [
            "error[IR-SSA-REDEF] @f:entry:#1: @f: variable x defined twice\n    | x = mov 2\n    fix-it: rename one definition (SSA construction)",
        ],
    ),
    "dup_param": (
        """func @f(a: int, a: int) { entry: ret a }
""",
        (
            "@f: @f: duplicate parameter a",
            "IR-PARAM-DUP",
            {"function": "f"},
        ),
        [
            "error[IR-PARAM-DUP] @f: @f: duplicate parameter a",
        ],
    ),
    "global_shadow": (
        """
global @g[1]
func @f(g: ptr) {
entry:
  ret 0
}
""",
        (
            "@f: @f: parameter g shadows a global",
            "IR-GLOBAL-SHADOW",
            {"function": "f"},
        ),
        [
            "error[IR-GLOBAL-SHADOW] @f: @f: parameter g shadows a global\n    fix-it: rename the parameter g",
        ],
    ),
    "call_undef": (
        """
func @f() {
entry:
  x = call @ghost(1)
  ret x
}
""",
        (
            "@f:entry: @f:entry: call to undefined function @ghost",
            "IR-CALL-UNDEF",
            {"function": "f", "block": "entry", "instruction": "x = call @ghost(1)"},
        ),
        [
            "error[IR-CALL-UNDEF] @f:entry: @f:entry: call to undefined function @ghost\n    | x = call @ghost(1)",
        ],
    ),
    "call_arity": (
        """
func @g(a: int) { entry: ret a }
func @f() {
entry:
  x = call @g()
  ret x
}
""",
        (
            "@f:entry: @f:entry: call to @g passes 0 arguments, expected 1",
            "IR-CALL-ARITY",
            {"function": "f", "block": "entry", "instruction": "x = call @g()"},
        ),
        [
            "error[IR-CALL-ARITY] @f:entry: @f:entry: call to @g passes 0 arguments, expected 1\n    | x = call @g()",
        ],
    ),
    "undef_plain": (
        """
func @f() {
entry:
  y = mov ghost + ghost
  ret y
}
""",
        (
            "@f:entry:#0: @f:entry: y = mov ghost + ghost uses undefined variable ghost",
            "IR-SSA-UNDEF",
            {"function": "f", "block": "entry", "index": 0, "instruction": "y = mov ghost + ghost"},
        ),
        [
            "error[IR-SSA-UNDEF] @f:entry:#0: @f:entry: y = mov ghost + ghost uses undefined variable ghost\n    | y = mov ghost + ghost",
            "error[IR-SSA-UNDEF] @f:entry:#0: @f:entry: y = mov ghost + ghost uses undefined variable ghost\n    | y = mov ghost + ghost",
        ],
    ),
    "undef_phi": (
        """
func @f(c: int) {
entry:
  br c, a, b
a:
  jmp join
b:
  jmp join
join:
  x = phi [ghost, a], [1, b]
  ret x
}
""",
        (
            "@f:join:#0: @f:a: phi x uses undefined variable ghost",
            "IR-SSA-UNDEF",
            {"function": "f", "block": "join", "index": 0, "instruction": "x = phi [ghost, a], [1, b]"},
        ),
        [
            "error[IR-SSA-UNDEF] @f:join:#0: @f:a: phi x uses undefined variable ghost\n    | x = phi [ghost, a], [1, b]",
        ],
    ),
    "undef_terminator": (
        """func @f() { entry: ret ghost }
""",
        (
            "@f:entry:terminator: @f:entry: terminator uses undefined variable ghost",
            "IR-SSA-UNDEF",
            {"function": "f", "block": "entry", "index": -1, "instruction": "ret ghost"},
        ),
        [
            "error[IR-SSA-UNDEF] @f:entry:terminator: @f:entry: terminator uses undefined variable ghost\n    | ret ghost",
        ],
    ),
    "undef_dead_code": (
        """
func @f() {
entry:
  ret 0
dead:
  y = mov ghost
  ret y
}
""",
        (
            "@f:dead:#0: @f:dead: y = mov ghost uses undefined variable ghost",
            "IR-SSA-UNDEF",
            {"function": "f", "block": "dead", "index": 0, "instruction": "y = mov ghost"},
        ),
        [
            "error[IR-SSA-UNDEF] @f:dead:#0: @f:dead: y = mov ghost uses undefined variable ghost\n    | y = mov ghost",
        ],
    ),
    "dom_same_block": (
        """
func @f() {
entry:
  y = mov x + 1
  x = mov 1
  ret y
}
""",
        (
            "@f:entry:#0: @f:entry: x used before its definition",
            "IR-SSA-DOM",
            {"function": "f", "block": "entry", "index": 0, "instruction": "y = mov x + 1"},
        ),
        [
            "error[IR-SSA-DOM] @f:entry:#0: @f:entry: x used before its definition\n    | y = mov x + 1",
        ],
    ),
    "dom_cross_block": (
        """
func @f(c: int) {
entry:
  br c, a, b
a:
  t = mov 1
  jmp join
b:
  jmp join
join:
  y = mov t + c
  ret y
}
""",
        (
            "@f:join:#0: @f:join: definition of t in a does not dominate this use",
            "IR-SSA-DOM",
            {"function": "f", "block": "join", "index": 0, "instruction": "y = mov t + c"},
        ),
        [
            "error[IR-SSA-DOM] @f:join:#0: @f:join: definition of t in a does not dominate this use\n    | y = mov t + c",
        ],
    ),
    "dom_phi": (
        """
func @f(c: int) {
entry:
  br c, a, b
a:
  t = mov 1
  jmp join
b:
  jmp join
join:
  x = phi [t, a], [t, b]
  ret x
}
""",
        (
            "@f:join:#0: @f:b: definition of t in a does not dominate this use",
            "IR-SSA-DOM",
            {"function": "f", "block": "join", "index": 0, "instruction": "x = phi [t, a], [t, b]"},
        ),
        [
            "error[IR-SSA-DOM] @f:join:#0: @f:b: definition of t in a does not dominate this use\n    | x = phi [t, a], [t, b]",
        ],
    ),
    "dom_terminator": (
        """
func @f(c: int) {
entry:
  br c, a, b
a:
  t = mov 1
  jmp join
b:
  jmp join
join:
  ret t
}
""",
        (
            "@f:join:terminator: @f:join: definition of t in a does not dominate this use",
            "IR-SSA-DOM",
            {"function": "f", "block": "join", "index": -1, "instruction": "ret t"},
        ),
        [
            "error[IR-SSA-DOM] @f:join:terminator: @f:join: definition of t in a does not dominate this use\n    | ret t",
        ],
    ),
    "dom_dead_code": (
        """
func @f() {
entry:
  ret 0
dead:
  y = mov x
  x = mov 1
  ret y
}
""",
        None,
        [
        ],
    ),
    "many_findings": (
        """
global @g[1]
func @h(a: int) { entry: ret a }
func @f(g: ptr, c: int) {
entry:
  x = mov 1
  x = mov ghost + x
  br c, a, b
a:
  t = call @h(x, c)
  jmp join
b:
  u = call @nope()
  jmp join
join:
  r = phi [t, a], [u, b]
  s = mov t + r
  ret s
}
""",
        (
            "@f: @f: parameter g shadows a global",
            "IR-GLOBAL-SHADOW",
            {"function": "f"},
        ),
        [
            "error[IR-CALL-ARITY] @f:a: @f:a: call to @h passes 2 arguments, expected 1\n    | t = call @h(x, c)",
            "error[IR-CALL-UNDEF] @f:b: @f:b: call to undefined function @nope\n    | u = call @nope()",
            "error[IR-GLOBAL-SHADOW] @f: @f: parameter g shadows a global\n    fix-it: rename the parameter g",
            "error[IR-SSA-DOM] @f:entry:#1: @f:entry: x used before its definition\n    | x = mov ghost + x",
            "error[IR-SSA-DOM] @f:join:#1: @f:join: definition of t in a does not dominate this use\n    | s = mov t + r",
            "error[IR-SSA-REDEF] @f:entry:#1: @f: variable x defined twice\n    | x = mov ghost + x\n    fix-it: rename one definition (SSA construction)",
            "error[IR-SSA-UNDEF] @f:entry:#1: @f:entry: x = mov ghost + x uses undefined variable ghost\n    | x = mov ghost + x",
        ],
    ),
}


#: Findings only a module-level check can make.
_MODULE_RULES = ("IR-CALL-UNDEF", "IR-CALL-ARITY", "IR-GLOBAL-SHADOW")


def _build(name):
    text = PINNED[name][0]
    if text is None:
        module = parse_module("func @g() { entry: ret 0 }")
        module.functions["f"] = Function("f")
        return module
    module = parse_module(text)
    if name == "term_missing":
        for label in ("a", "b"):
            module.function("f").blocks[label].terminator = None
    return module


@pytest.mark.parametrize("name", sorted(PINNED))
def test_raise_mode_reports_the_pinned_first_finding(name):
    expected = PINNED[name][1]
    module = _build(name)
    if expected is None:
        validate_module(module)
        return
    with pytest.raises(ValidationError) as exc:
        validate_module(module)
    diagnostic = exc.value.diagnostic
    assert (str(exc.value), diagnostic.rule, diagnostic.anchor.as_dict()) == (
        expected
    )


@pytest.mark.parametrize("name", sorted(PINNED))
def test_collect_mode_renders_the_pinned_findings(name):
    rendered = [d.render() for d in diagnose_module(_build(name))]
    assert rendered == PINNED[name][2]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_without_a_module_only_module_rules_drop(name):
    rendered = [
        d.render() for d in diagnose_function(_build(name).function("f"))
    ]
    assert rendered == [
        line
        for line in PINNED[name][2]
        if not line.startswith(tuple(f"error[{r}]" for r in _MODULE_RULES))
    ]


@pytest.mark.parametrize("name", [bench.name for bench in BENCHMARKS])
def test_valid_benchmarks_build_no_anchor(name, monkeypatch):
    original = load_module(name)
    repaired = repair_module(original, RepairOptions(validate_output=False))

    def no_anchor(*args, **kwargs):
        raise AssertionError(f"Anchor{args} built for valid IR")

    monkeypatch.setattr("repro.ir.validate.Anchor", no_anchor)
    validate_module(original)
    validate_module(repaired)
