"""Interprocedural taint analysis with per-function summaries.

The repository's one FlowTracker-style leak detector [Rodrigues et al.,
CC 2016]: given the sensitive parameters of one or more root functions it
finds the secret-dependent branch predicates (operation leaks) and the
secret-indexed memory accesses (data leaks).  The certifier, the
data-consistency classifier, the optimiser's leakage sanitizer and
``lif check`` all ask it.  Secret taint is propagated through call
arguments and returns, through global arrays, and through allocated
regions — including the repair pass's shadow slots — with per-function
summaries memoised by calling context.

Two value-taint channels are tracked per variable:

* **full** — any dependence on a secret, including the selector operand of
  a ``ctsel``.  Branch predicates are judged on this channel (a branch on
  a secret-selected boolean is an operation leak).
* **data** — dependence through value-carrying operands.  Memory indices
  are judged on this channel.  An ordinary ``ctsel`` *computes* with its
  selector — a secret condition choosing between two distinct public arms
  encodes the secret in the result (the frontend lowers source ternaries
  this way) — so its result is data-tainted when the selector *or* either
  arm is.  A repair **guard** select (``CtSel.guard``, e.g.
  ``idx' = ctsel(c | in-bounds, idx, 0)``) is the one exception: under a
  valid contract the condition is true on every real execution, so the
  selected value *is* the ``if_true`` arm and only that arm's data taint
  flows through — exactly the paper's covenant, and what keeps a repaired
  public-index access clean.  A guard whose result is full- but not
  data-tainted is still surfaced as a ``CT-SELECTOR-INDEX`` warning by
  the certifier (the address set is bounded by the two public arms, but a
  sound tool should say so rather than stay silent).

Pointer values carry *alias sets* (which memory regions they may name:
pointer parameters, ``alloc`` results, module globals); region contents
carry their own taint bit.  A ``ctsel`` over pointers — the repair's
array-or-shadow selection — unions the arm alias sets, so a load through
it reads from both candidate regions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.analysis.control_dependence import compute_control_dependence
from repro.ir.function import Function
from repro.ir.instructions import (
    Alloc,
    Br,
    Call,
    CtSel,
    Load,
    Mov,
    Phi,
    Store,
)
from repro.ir.module import Module
from repro.ir.values import Var
from repro.obs import OBS
from repro.statics.diagnostics import Anchor

#: Fixpoint safety valve; a context's intraprocedural analysis converges in
#: a handful of iterations (taint only grows), this only guards bugs.
_MAX_ITERATIONS = 64


@dataclass(frozen=True)
class TaintContext:
    """Calling context of one summary: which inputs carry taint.

    ``params_full``/``params_data`` are the taint channels of the incoming
    parameter *values*; ``pointees`` the pointer parameters whose pointed-to
    contents are tainted; ``globals_tainted`` the module globals whose
    contents are tainted at the call.
    """

    params_full: frozenset
    params_data: frozenset
    pointees: frozenset
    globals_tainted: frozenset

    @classmethod
    def for_root(cls, function: Function, sensitive: Sequence[str]) -> "TaintContext":
        secret = frozenset(sensitive)
        pointees = frozenset(
            p.name for p in function.params if p.is_pointer and p.name in secret
        )
        return cls(secret, secret, pointees, frozenset())


@dataclass(frozen=True)
class TaintSummary:
    """Effect of calling a function under one :class:`TaintContext`."""

    returns_full: bool
    returns_data: bool
    pointees_tainted: frozenset   # pointer params whose contents become tainted
    globals_tainted: frozenset    # globals whose contents become tainted
    pointees_written: frozenset   # pointer params stored through at all
    globals_written: frozenset    # globals stored through at all


def _top_summary(function: Function, module: Module) -> TaintSummary:
    """The conservative summary used when the call graph is recursive."""
    pointers = frozenset(p.name for p in function.params if p.is_pointer)
    every_global = frozenset(module.globals)
    return TaintSummary(True, True, pointers, every_global, pointers, every_global)


@dataclass(frozen=True)
class BranchLeak:
    """A conditional branch whose predicate carries secret taint."""

    anchor: Anchor
    predicate: str

    def __str__(self) -> str:
        return f"branch on {self.predicate} in block {self.anchor.block}"


@dataclass(frozen=True)
class IndexLeak:
    """A memory access whose index carries secret taint.

    ``data_tainted`` distinguishes a genuine data-channel dependence from
    selector-only taint (see the module docstring); the certifier maps the
    former to ``CT-INDEX-SECRET`` and the latter to ``CT-SELECTOR-INDEX``.
    """

    anchor: Anchor
    kind: str       # "load" or "store"
    array: str
    index: str
    data_tainted: bool

    def __str__(self) -> str:
        return (
            f"{self.kind} {self.array}[{self.index}] "
            f"in block {self.anchor.block}"
        )


@dataclass
class FunctionTaint:
    """Merged analysis results for one function, across every context."""

    function: str
    tainted_full: set = field(default_factory=set)
    tainted_data: set = field(default_factory=set)
    tainted_regions: set = field(default_factory=set)
    branch_leaks: list = field(default_factory=list)
    index_leaks: list = field(default_factory=list)
    contexts: int = 0

    def _merge_leaks(self, branch_leaks, index_leaks) -> None:
        seen = set(self.branch_leaks)
        self.branch_leaks.extend(l for l in branch_leaks if l not in seen)
        # One record per access: an access can be selector-tainted in one
        # context and data-tainted in another, whatever the order the
        # contexts arrive in; keep the stronger classification.
        position = {l.anchor: i for i, l in enumerate(self.index_leaks)}
        for leak in index_leaks:
            i = position.get(leak.anchor)
            if i is None:
                position[leak.anchor] = len(self.index_leaks)
                self.index_leaks.append(leak)
            elif leak.data_tainted:
                self.index_leaks[i] = leak


@dataclass
class ModuleTaint:
    """Whole-module taint analysis result."""

    module: str
    functions: dict = field(default_factory=dict)  # name -> FunctionTaint
    iterations: int = 0
    summaries_computed: int = 0
    recursion_fallbacks: int = 0


def _function_shape(function: Function) -> tuple:
    """What every sweep of ``function`` reads, worked out once per run.

    One ``(predicates, rows)`` pair per block: the predicate names that
    control the block (transitively, so nested secret regions taint
    through every level), and per instruction ``(instr, used,
    data_used)``.  ``used`` is every variable the instruction reads (the
    full channel); ``data_used`` the value-carrying ones (the data
    channel): all of them except for a ``ctsel``.  An ordinary select
    *computes* with its condition — a secret condition choosing between
    distinct public arms yields a secret value (e.g. the frontend's
    ternary lowering).  A repair guard's condition is true on every real
    execution (Covenant 1), so only its first arm reaches the result.
    """
    try:
        direct = compute_control_dependence(function, allow_multiple_exits=True)
    except ValueError:
        # No exit block at all (degenerate input): no implicit flows.
        direct = {label: set() for label in function.blocks}

    closed: dict = {}

    def closure(label: str) -> set:
        if label in closed:
            return closed[label]
        closed[label] = set()  # cycle guard
        result = set(direct.get(label, ()))
        for controller in direct.get(label, ()):
            result |= closure(controller)
        closed[label] = result
        return result

    shape = []
    for label, block in function.blocks.items():
        predicates = set()
        for controller in closure(label):
            terminator = function.blocks[controller].terminator
            if isinstance(terminator, Br) and isinstance(terminator.cond, Var):
                predicates.add(terminator.cond.name)
        rows = []
        for instr in block.instructions:
            used = frozenset(instr.used_vars())
            data_used = used
            if isinstance(instr, CtSel):
                operands = (instr.if_true,) if instr.guard else (
                    instr.cond, instr.if_true, instr.if_false
                )
                data_used = frozenset(
                    v.name for v in operands if isinstance(v, Var)
                )
            rows.append((instr, used, data_used))
        shape.append((frozenset(predicates), tuple(rows)))
    return tuple(shape)


class _FunctionAnalysis:
    """One intraprocedural fixpoint under one calling context."""

    def __init__(
        self,
        engine: "_Engine",
        function: Function,
        context: TaintContext,
    ) -> None:
        self.engine = engine
        self.function = function
        self.context = context
        self.full: set = set(context.params_full)
        self.data: set = set(context.params_data)
        # Region contents.  Regions are named by pointer params, alloc
        # dests and globals; pointee/global taint seeds come from the
        # context, everything else starts clean.
        self.regions_tainted: set = set(context.pointees) | set(
            context.globals_tainted
        )
        self.regions_written: set = set()
        self.aliases: dict = {
            p.name: frozenset((p.name,))
            for p in function.params
            if p.is_pointer
        }
        self.branch_leaks: list = []
        self.index_leaks: list = []
        self.iterations = 0

    # -- helpers -----------------------------------------------------------

    def _alias_set(self, var: Var) -> frozenset:
        known = self.aliases.get(var.name)
        if known is not None:
            return known
        if var.name in self.engine.module.globals:
            return frozenset((var.name,))
        return frozenset()

    def _contents_tainted(self, array: Var) -> bool:
        return any(r in self.regions_tainted for r in self._alias_set(array))

    def _taint_contents(self, array: Var) -> bool:
        changed = False
        for region in self._alias_set(array):
            if region not in self.regions_tainted:
                self.regions_tainted.add(region)
                changed = True
        return changed

    def _note_write(self, array: Var) -> None:
        self.regions_written.update(self._alias_set(array))

    # -- the fixpoint ------------------------------------------------------

    def run(self) -> TaintSummary:
        shape = self.engine.shape(self.function)
        for _ in range(_MAX_ITERATIONS):
            self.iterations += 1
            if not self._sweep(shape):
                break
        self._collect_leaks()
        return self._summary()

    def _sweep(self, shape: tuple) -> bool:
        changed = False
        for predicates, rows in shape:
            implicit = not self.full.isdisjoint(predicates)
            for instr, used, data_used in rows:
                if self._transfer(instr, used, data_used, implicit):
                    changed = True
        return changed

    def _transfer(self, instr, used, data_used, implicit: bool) -> bool:
        if isinstance(instr, Store):
            self._note_write(instr.array)
            tainted = implicit or not self.full.isdisjoint(used)
            return tainted and self._taint_contents(instr.array)

        if isinstance(instr, Call):
            return self._transfer_call(instr, implicit)

        if instr.dest is None:
            return False

        changed = False
        full = implicit or not self.full.isdisjoint(used)
        data = implicit or not self.data.isdisjoint(data_used)
        if isinstance(instr, CtSel):
            arm_aliases = self._alias_set_of_value(
                instr.if_true
            ) | self._alias_set_of_value(instr.if_false)
            changed |= self._update_alias(instr.dest, arm_aliases)
        elif isinstance(instr, Alloc):
            changed |= self._update_alias(instr.dest, frozenset((instr.dest,)))
            full = data = False  # a fresh pointer value is public
        elif isinstance(instr, Load):
            if self._contents_tainted(instr.array):
                full = data = True
        elif isinstance(instr, Mov) and isinstance(instr.expr, Var):
            changed |= self._update_alias(
                instr.dest, self._alias_set_of_value(instr.expr)
            )
        elif isinstance(instr, Phi):
            merged = frozenset()
            for value, _ in instr.incomings:
                merged |= self._alias_set_of_value(value)
            changed |= self._update_alias(instr.dest, merged)

        if full and instr.dest not in self.full:
            self.full.add(instr.dest)
            changed = True
        if data and instr.dest not in self.data:
            self.data.add(instr.dest)
            changed = True
        return changed

    def _alias_set_of_value(self, value) -> frozenset:
        if isinstance(value, Var):
            return self._alias_set(value)
        return frozenset()

    def _update_alias(self, dest: str, aliases: frozenset) -> bool:
        if not aliases:
            return False
        current = self.aliases.get(dest, frozenset())
        merged = current | aliases
        if merged != current:
            self.aliases[dest] = merged
            return True
        return False

    def _transfer_call(self, call: Call, implicit: bool) -> bool:
        engine = self.engine
        callee = engine.module.functions.get(call.callee)
        changed = False
        if callee is None:
            # Not part of the module: assume the worst about it.
            for arg in call.args:
                if isinstance(arg, Var) and self._alias_set(arg):
                    changed |= self._taint_contents(arg)
                    self._note_write(arg)
            if call.dest is not None and call.dest not in self.full:
                self.full.add(call.dest)
                self.data.add(call.dest)
                changed = True
            return changed

        params_full = set()
        params_data = set()
        pointees = set()
        by_position = list(zip(callee.params, call.args))
        for param, arg in by_position:
            if isinstance(arg, Var):
                if arg.name in self.full:
                    params_full.add(param.name)
                if arg.name in self.data:
                    params_data.add(param.name)
                if param.is_pointer and self._contents_tainted(arg):
                    pointees.add(param.name)
        context = TaintContext(
            frozenset(params_full),
            frozenset(params_data),
            frozenset(pointees),
            frozenset(
                g for g in self.regions_tainted if g in engine.module.globals
            ),
        )
        summary = engine.summary(call.callee, context)

        for param, arg in by_position:
            if not param.is_pointer or not isinstance(arg, Var):
                continue
            wrote = param.name in summary.pointees_written
            if wrote:
                self._note_write(arg)
            if param.name in summary.pointees_tainted or (implicit and wrote):
                changed |= self._taint_contents(arg)
        for name in summary.globals_written:
            self.regions_written.add(name)
        for name in summary.globals_tainted:
            if name not in self.regions_tainted:
                self.regions_tainted.add(name)
                changed = True
        if implicit:
            for name in summary.globals_written:
                if name not in self.regions_tainted:
                    self.regions_tainted.add(name)
                    changed = True

        if call.dest is not None:
            if (summary.returns_full or implicit) and call.dest not in self.full:
                self.full.add(call.dest)
                changed = True
            if (summary.returns_data or implicit) and call.dest not in self.data:
                self.data.add(call.dest)
                changed = True
        return changed

    # -- results -----------------------------------------------------------

    def _collect_leaks(self) -> None:
        function = self.function
        for block in function.blocks.values():
            terminator = block.terminator
            if (
                isinstance(terminator, Br)
                and isinstance(terminator.cond, Var)
                and terminator.cond.name in self.full
            ):
                self.branch_leaks.append(
                    BranchLeak(
                        Anchor(function.name, block.label, -1, str(terminator)),
                        terminator.cond.name,
                    )
                )
            for index, instr in enumerate(block.instructions):
                if isinstance(instr, Load):
                    kind = "load"
                elif isinstance(instr, Store):
                    kind = "store"
                else:
                    continue
                if not isinstance(instr.index, Var):
                    continue
                name = instr.index.name
                if name not in self.full:
                    continue
                self.index_leaks.append(
                    IndexLeak(
                        Anchor(function.name, block.label, index, str(instr)),
                        kind,
                        instr.array.name,
                        name,
                        data_tainted=name in self.data,
                    )
                )

    def _summary(self) -> TaintSummary:
        function = self.function
        returns_full = returns_data = False
        for block in function.blocks.values():
            terminator = block.terminator
            if terminator is None or not hasattr(terminator, "expr"):
                continue
            for name in terminator.used_vars():
                if name in self.full:
                    returns_full = True
                if name in self.data:
                    returns_data = True
        pointer_params = {p.name for p in function.params if p.is_pointer}
        module_globals = self.engine.module.globals
        return TaintSummary(
            returns_full,
            returns_data,
            frozenset(self.regions_tainted & pointer_params),
            frozenset(r for r in self.regions_tainted if r in module_globals),
            frozenset(self.regions_written & pointer_params),
            frozenset(r for r in self.regions_written if r in module_globals),
        )


class _Engine:
    """Summary cache and call-graph driver."""

    def __init__(self, module: Module, cache: Optional[dict] = None) -> None:
        self.module = module
        self.cache: dict = {} if cache is None else cache
        self.shapes: dict = {}  # function name -> _function_shape(...)
        self.in_progress: set = set()
        self.result = ModuleTaint(module.name)

    def shape(self, function: Function) -> tuple:
        shape = self.shapes.get(function.name)
        if shape is None:
            shape = self.shapes[function.name] = _function_shape(function)
        return shape

    def summary(self, name: str, context: TaintContext) -> TaintSummary:
        key = (name, context)
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        function = self.module.functions[name]
        if key in self.in_progress:
            # Recursive call graph: no benchmark needs one, so fall back to
            # the sound TOP summary rather than iterating to fixpoint.
            self.result.recursion_fallbacks += 1
            top = _top_summary(function, self.module)
            self.cache[key] = top
            return top
        self.in_progress.add(key)
        try:
            analysis = _FunctionAnalysis(self, function, context)
            summary = analysis.run()
        finally:
            self.in_progress.discard(key)
        self.cache[key] = summary
        self.result.summaries_computed += 1
        self.result.iterations += analysis.iterations
        self._record(function.name, analysis)
        return summary

    def _record(self, name: str, analysis: _FunctionAnalysis) -> None:
        record = self.result.functions.get(name)
        if record is None:
            record = FunctionTaint(name)
            self.result.functions[name] = record
        record.tainted_full |= analysis.full
        record.tainted_data |= analysis.data
        record.tainted_regions |= analysis.regions_tainted
        record._merge_leaks(analysis.branch_leaks, analysis.index_leaks)
        record.contexts += 1


def default_roots(module: Module) -> dict:
    """Every function as an analysis root with its declared secrets.

    A function with ``secret``-qualified parameters contributes those; one
    without contributes *all* its parameters (the paper's stance for
    cryptographic code).
    """
    return {
        name: list(function.sensitive_params) or function.param_names()
        for name, function in module.functions.items()
    }


def analyze_module_taint(
    module: Module,
    roots: Optional[dict] = None,
    include_unreached: bool = True,
    summaries: Optional[dict] = None,
) -> ModuleTaint:
    """Interprocedural taint analysis of ``module``.

    ``roots`` maps function names to their sensitive parameter lists; each
    root is analysed under that assumption and callees are analysed under
    the contexts the call sites actually produce (summaries memoised per
    context).  Defaults to :func:`default_roots`.

    With ``include_unreached=False`` only the roots and their transitive
    callees are reported — benchmark modules bundle several variants of a
    routine, and a benchmark's verdict must not be polluted by functions
    its entry never calls.

    ``summaries`` is a summary cache, keyed ``(function name, context)``,
    to reuse across calls.  Its owner must drop the entries of any
    function whose body changed, and of every function that can reach it;
    only those summaries computed by this call are reported.
    """
    if roots is None:
        roots = default_roots(module)
    engine = _Engine(module, summaries)
    for name in sorted(roots):
        function = module.functions.get(name)
        if function is None:
            raise KeyError(f"module has no function @{name}")
        engine.summary(name, TaintContext.for_root(function, roots[name]))
    # Functions never named as roots and never called still deserve a
    # record (so whole-module reports cover everything).
    if include_unreached:
        for name, function in module.functions.items():
            if name not in engine.result.functions:
                engine.summary(
                    name,
                    TaintContext.for_root(
                        function,
                        list(function.sensitive_params)
                        or function.param_names(),
                    ),
                )
    if OBS.enabled:
        OBS.counter("statics.interproc.modules")
        OBS.counter("statics.interproc.iterations", engine.result.iterations)
        OBS.counter("statics.interproc.summaries", engine.result.summaries_computed)
        if engine.result.recursion_fallbacks:
            OBS.counter(
                "statics.interproc.recursion_fallbacks",
                engine.result.recursion_fallbacks,
            )
    return engine.result
