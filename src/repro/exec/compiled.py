"""Closure-compiled execution backend ("threaded code" for the IR).

The tree-walking :class:`repro.exec.interpreter.Interpreter` re-resolves
every instruction on every dynamic step: an ``isinstance`` dispatch chain
over the instruction classes, a second chain over expression shapes, a
``Const``/``Var`` test per operand, and a dict lookup per variable.  For the
figure benchmarks and the dudect-style leak hunts — thousands of executions
per routine per input class — that dispatch dominates the run time.

This backend lowers each :class:`~repro.ir.function.Function` once into
specialized Python closures, one per instruction and terminator:

* every operand is pre-resolved at compile time — constants are wrapped and
  baked in, variables become integer indices into a flat register file (a
  plain Python list), so the hot loop performs no dict lookups and no
  ``isinstance`` dispatch;
* phi-functions are precompiled into one closure per incoming CFG edge,
  eliminating the per-execution scan of the incoming list;
* branch targets are bound to block indices at compile time;
* per-block step and cycle totals are precomputed, so the no-trace fast
  path (the ``record_trace=False`` mode the timing benchmarks use) updates
  the counters once per basic block instead of once per instruction;
* in trace mode the per-block instruction-site sequence is a precomputed
  tuple appended in bulk.

Block bodies are two-tier.  Every body starts on the closures; once a block
has been entered :data:`TIER_UP_THRESHOLD` times, its body is generated as
Python source (one function per block, see "block body codegen" below) and
swapped in, so only blocks that really run hot pay for ``compile``.

Observable semantics are identical to the interpreter's: same results,
same simulated cycles and step counts, same memory-safety violations, same
instruction/memory traces, and the same cache-hierarchy simulation (the
compiled code reuses :func:`repro.exec.interpreter._layout_instructions`
for exact instruction-address parity).  The one deliberate divergence is
*where inside a basic block* ``StepLimitExceeded`` fires: the compiled
backend checks the limit per block rather than per instruction, which is
unobservable for any run that terminates normally.

Compiled modules are kept in a process-wide cache keyed on **module
identity** (not name) plus the options that affect code generation, so the
six variants the benchmark harness builds per routine compile once and run
many times.  Entries are evicted via weakref callbacks when a module is
garbage collected; a rebuilt module (repair, optimize) is a new object and
therefore never sees stale code.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Optional, Sequence

from repro.exec.costs import DEFAULT_COST_MODEL, CostModel
from repro.exec.interpreter import (
    DEFAULT_MAX_CALL_DEPTH,
    DEFAULT_MAX_STEPS,
    ExecutionResult,
    InterpreterError,
    StepLimitExceeded,
    _layout_instructions,
)
from repro.exec.memory import Memory, Pointer
from repro.exec.traces import InstructionSite, MemoryAccess, Trace
from repro.ir.function import Function
from repro.ir.instructions import (
    Alloc,
    BinExpr,
    Br,
    Call,
    CtSel,
    Jmp,
    Load,
    Mov,
    Phi,
    Ret,
    Store,
    UnaryExpr,
)
from repro.ir.module import Module
from repro.ir.ops import WORD_BITS, WORD_BYTES, eval_binop, eval_unop, wrap
from repro.ir.values import Const, Var
from repro.obs import OBS, env_int

#: Sentinel stored in register slots that have not been written yet.
_UNDEF = object()

_MASK = (1 << WORD_BITS) - 1

#: Specialized binary operators (inputs are machine words, outputs wrapped).
#: ``/`` and ``%`` delegate to :func:`eval_binop` to share its sign- and
#: zero-handling exactly; the hot operators are direct lambdas.
_BIN = {
    "+": lambda a, b: wrap(a + b),
    "-": lambda a, b: wrap(a - b),
    "*": lambda a, b: wrap(a * b),
    "/": lambda a, b: eval_binop("/", a, b),
    "%": lambda a, b: eval_binop("%", a, b),
    "&": lambda a, b: wrap(a & b),
    "|": lambda a, b: wrap(a | b),
    "^": lambda a, b: wrap(a ^ b),
    "<<": lambda a, b: wrap(a << (b % WORD_BITS)),
    ">>": lambda a, b: wrap((a & _MASK) >> (b % WORD_BITS)),
    "<": lambda a, b: 1 if a < b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
    ">": lambda a, b: 1 if a > b else 0,
    ">=": lambda a, b: 1 if a >= b else 0,
}

_UN = {
    "-": lambda v: wrap(-v),
    "~": lambda v: wrap(~v),
}


# -- error helpers (messages mirror the interpreter's exactly) ---------------

def _raise_undefined(fname: str, name: str) -> None:
    raise InterpreterError(f"@{fname}: variable {name} is undefined at use")


def _raise_word(value, fname: str, name: Optional[str], what: str) -> None:
    if value is _UNDEF and name is not None:
        _raise_undefined(fname, name)
    raise InterpreterError(f"{what} is a pointer, expected a word")


def _raise_not_pointer(value, fname: str, name: str) -> None:
    if value is _UNDEF:
        _raise_undefined(fname, name)
    raise InterpreterError(f"@{fname}: {name} is not a pointer")


def _raise_bin_pointer(op: str) -> None:
    raise InterpreterError(f"arithmetic {op!r} applied to a pointer")


# -- operand / expression compilation ----------------------------------------

def _compile_value(value, slots: dict, fname: str):
    """Compile a ``Const``/``Var`` into an accessor closure ``acc(regs)``."""
    if not isinstance(value, Var):
        # Const: bake the wrapped value in.
        v = wrap(value.value)

        def acc(regs, _v=v):
            return _v

        return acc
    name = value.name
    slot = slots.get(name)
    if slot is None:

        def acc(regs, _f=fname, _n=name):
            raise InterpreterError(f"@{_f}: variable {_n} is undefined at use")

        return acc

    def acc(regs, _s=slot, _f=fname, _n=name):
        v = regs[_s]
        if v is _UNDEF:
            raise InterpreterError(f"@{_f}: variable {_n} is undefined at use")
        return v

    return acc


def _compile_unary(expr: UnaryExpr, slots: dict, fname: str):
    op = expr.op
    operand = expr.operand
    if isinstance(operand, Const):
        v = eval_unop(op, wrap(operand.value))

        def ev(regs, _v=v):
            return _v

        return ev
    name = operand.name
    slot = slots.get(name)
    if slot is None:

        def ev(regs, _f=fname, _n=name):
            raise InterpreterError(f"@{_f}: variable {_n} is undefined at use")

        return ev
    if op == "!":

        def ev(regs, _s=slot, _f=fname, _n=name):
            v = regs[_s]
            if v.__class__ is int:
                return 1 if v == 0 else 0
            if v is _UNDEF:
                _raise_undefined(_f, _n)
            raise InterpreterError("unary operator applied to a pointer")

        return ev
    fn = _UN[op]

    def ev(regs, _s=slot, _fn=fn, _f=fname, _n=name):
        v = regs[_s]
        try:
            return _fn(v)
        except TypeError:
            if v is _UNDEF:
                _raise_undefined(_f, _n)
            raise InterpreterError(
                "unary operator applied to a pointer"
            ) from None

    return ev


def _compile_bin(expr: BinExpr, slots: dict, fname: str):
    op = expr.op
    lhs, rhs = expr.lhs, expr.rhs
    if op in ("==", "!="):
        # Pointer operands are permitted for equality (interpreter semantics).
        la = _compile_value(lhs, slots, fname)
        ra = _compile_value(rhs, slots, fname)
        if op == "==":

            def ev(regs, _l=la, _r=ra):
                return 1 if _l(regs) == _r(regs) else 0

        else:

            def ev(regs, _l=la, _r=ra):
                return 1 if _l(regs) != _r(regs) else 0

        return ev
    fn = _BIN[op]
    lconst = isinstance(lhs, Const)
    rconst = isinstance(rhs, Const)
    if lconst and rconst:
        v = eval_binop(op, wrap(lhs.value), wrap(rhs.value))

        def ev(regs, _v=v):
            return _v

        return ev
    if lconst or rconst:
        if lconst:
            cval, var = wrap(lhs.value), rhs
        else:
            cval, var = wrap(rhs.value), lhs
        slot = slots.get(var.name)
        if slot is None:

            def ev(regs, _f=fname, _n=var.name):
                raise InterpreterError(
                    f"@{_f}: variable {_n} is undefined at use"
                )

            return ev
        vname = var.name
        if lconst:

            def ev(regs, _s=slot, _c=cval, _fn=fn, _f=fname, _n=vname, _o=op):
                b = regs[_s]
                try:
                    return _fn(_c, b)
                except TypeError:
                    if b is _UNDEF:
                        _raise_undefined(_f, _n)
                    _raise_bin_pointer(_o)

        else:

            def ev(regs, _s=slot, _c=cval, _fn=fn, _f=fname, _n=vname, _o=op):
                a = regs[_s]
                try:
                    return _fn(a, _c)
                except TypeError:
                    if a is _UNDEF:
                        _raise_undefined(_f, _n)
                    _raise_bin_pointer(_o)

        return ev
    ls = slots.get(lhs.name)
    rs = slots.get(rhs.name)
    if ls is None or rs is None:
        la = _compile_value(lhs, slots, fname)
        ra = _compile_value(rhs, slots, fname)

        def ev(regs, _l=la, _r=ra, _fn=fn, _o=op):
            a = _l(regs)
            b = _r(regs)
            try:
                return _fn(a, b)
            except TypeError:
                _raise_bin_pointer(_o)

        return ev
    lname, rname = lhs.name, rhs.name

    def ev(regs, _ls=ls, _rs=rs, _fn=fn, _f=fname, _ln=lname, _rn=rname, _o=op):
        a = regs[_ls]
        b = regs[_rs]
        try:
            return _fn(a, b)
        except TypeError:
            if a is _UNDEF:
                _raise_undefined(_f, _ln)
            if b is _UNDEF:
                _raise_undefined(_f, _rn)
            _raise_bin_pointer(_o)

    return ev


def _compile_expr(expr, slots: dict, fname: str):
    """Compile any RHS expression into ``ev(regs) -> value``."""
    if isinstance(expr, (Const, Var)):
        return _compile_value(expr, slots, fname)
    if isinstance(expr, UnaryExpr):
        return _compile_unary(expr, slots, fname)
    return _compile_bin(expr, slots, fname)


# -- per-instruction compilation ---------------------------------------------

class _Ctx:
    """Everything instruction compilation needs about its surroundings."""

    __slots__ = (
        "fname", "slots", "shells", "record_trace", "cache_enabled",
        "cost_model",
    )

    def __init__(self, fname, slots, shells, record_trace, cache_enabled,
                 cost_model):
        self.fname = fname
        self.slots = slots
        self.shells = shells
        self.record_trace = record_trace
        self.cache_enabled = cache_enabled
        self.cost_model = cost_model


def _compile_mov(instr: Mov, ctx: _Ctx):
    d = ctx.slots[instr.dest]
    expr = instr.expr
    if isinstance(expr, Const):
        v = wrap(expr.value)

        def op(regs, state, depth, _d=d, _v=v):
            regs[_d] = _v

        return op
    if isinstance(expr, Var):
        acc = _compile_value(expr, ctx.slots, ctx.fname)

        def op(regs, state, depth, _d=d, _a=acc):
            regs[_d] = _a(regs)

        return op
    ev = _compile_expr(expr, ctx.slots, ctx.fname)

    def op(regs, state, depth, _d=d, _ev=ev):
        regs[_d] = _ev(regs)

    return op


def _compile_load(instr: Load, ctx: _Ctx):
    fname = ctx.fname
    slots = ctx.slots
    d = slots[instr.dest]
    aname = instr.array.name
    aslot = slots.get(aname)
    site = f"{fname}:{instr}"
    index = instr.index
    iconst = isinstance(index, Const)
    if aslot is None or (not iconst and slots.get(index.name) is None):
        pa = _compile_value(instr.array, slots, fname)
        ia = _compile_value(index, slots, fname)

        def op(regs, state, depth, _pa=pa, _ia=ia):
            p = _pa(regs)
            if p.__class__ is not Pointer:
                _raise_not_pointer(p, fname, aname)
            _ia(regs)  # raises: the index variable is undefined

        return op
    if iconst:
        iv = wrap(index.value)
        iname = None
        islot = None
    else:
        iv = None
        iname = index.name
        islot = slots[index.name]
    observing = ctx.record_trace or ctx.cache_enabled
    if not observing:
        if iconst:

            def op(regs, state, depth, _a=aslot, _i=iv, _d=d, _site=site):
                p = regs[_a]
                if p.__class__ is not Pointer:
                    _raise_not_pointer(p, fname, aname)
                region = state.memory.regions[p.region]
                if 0 <= _i < region.size:
                    regs[_d] = region.cells[_i]
                else:
                    regs[_d] = state.memory.load(p, _i, _site)

        else:

            def op(regs, state, depth, _a=aslot, _is=islot, _d=d, _site=site):
                p = regs[_a]
                if p.__class__ is not Pointer:
                    _raise_not_pointer(p, fname, aname)
                i = regs[_is]
                if i.__class__ is not int:
                    _raise_word(i, fname, iname, "load index")
                region = state.memory.regions[p.region]
                if 0 <= i < region.size:
                    regs[_d] = region.cells[i]
                else:
                    regs[_d] = state.memory.load(p, i, _site)

        return op
    tr = ctx.record_trace
    co = ctx.cache_enabled
    pen = ctx.cost_model.cache_miss_penalty
    if iconst:
        ia_fast = None
    else:
        ia_fast = islot

    def op(regs, state, depth, _a=aslot, _d=d, _site=site, _iv=iv,
           _is=ia_fast, _tr=tr, _co=co, _pen=pen):
        p = regs[_a]
        if p.__class__ is not Pointer:
            _raise_not_pointer(p, fname, aname)
        if _is is None:
            i = _iv
        else:
            i = regs[_is]
            if i.__class__ is not int:
                _raise_word(i, fname, iname, "load index")
        region = state.memory.regions[p.region]
        address = region.base + i * WORD_BYTES
        if _tr:
            state.trace.memory.append(
                MemoryAccess("load", region.name, i, address)
            )
        if _co and not state.cache.data_access(address, is_write=False):
            state.cycles += _pen
        if 0 <= i < region.size:
            regs[_d] = region.cells[i]
        else:
            regs[_d] = state.memory.load(p, i, _site)

    return op


def _compile_store(instr: Store, ctx: _Ctx):
    fname = ctx.fname
    slots = ctx.slots
    aname = instr.array.name
    aslot = slots.get(aname)
    site = f"{fname}:{instr}"
    ia = _compile_value(instr.index, slots, fname)
    va = _compile_value(instr.value, slots, fname)
    if aslot is None:

        def op(regs, state, depth, _f=fname, _n=aname):
            raise InterpreterError(f"@{_f}: variable {_n} is undefined at use")

        return op
    observing = ctx.record_trace or ctx.cache_enabled
    if not observing:

        def op(regs, state, depth, _a=aslot, _ia=ia, _va=va, _site=site):
            p = regs[_a]
            if p.__class__ is not Pointer:
                _raise_not_pointer(p, fname, aname)
            i = _ia(regs)
            if i.__class__ is not int:
                _raise_word(i, fname, None, "store index")
            v = _va(regs)
            if v.__class__ is not int:
                raise InterpreterError(
                    "storing pointers into memory is not supported"
                )
            region = state.memory.regions[p.region]
            if 0 <= i < region.size and region.writable:
                region.cells[i] = v
            else:
                state.memory.store(p, i, v, _site)

        return op
    tr = ctx.record_trace
    co = ctx.cache_enabled
    pen = ctx.cost_model.cache_miss_penalty

    def op(regs, state, depth, _a=aslot, _ia=ia, _va=va, _site=site,
           _tr=tr, _co=co, _pen=pen):
        p = regs[_a]
        if p.__class__ is not Pointer:
            _raise_not_pointer(p, fname, aname)
        i = _ia(regs)
        if i.__class__ is not int:
            _raise_word(i, fname, None, "store index")
        v = _va(regs)
        if v.__class__ is not int:
            raise InterpreterError(
                "storing pointers into memory is not supported"
            )
        region = state.memory.regions[p.region]
        address = region.base + i * WORD_BYTES
        if _tr:
            state.trace.memory.append(
                MemoryAccess("store", region.name, i, address)
            )
        if _co and not state.cache.data_access(address, is_write=True):
            state.cycles += _pen
        if 0 <= i < region.size and region.writable:
            region.cells[i] = v
        else:
            state.memory.store(p, i, v, _site)

    return op


def _compile_ctsel(instr: CtSel, ctx: _Ctx):
    fname = ctx.fname
    slots = ctx.slots
    d = slots[instr.dest]
    ta = _compile_value(instr.if_true, slots, fname)
    fa = _compile_value(instr.if_false, slots, fname)
    cond = instr.cond
    if isinstance(cond, Const):
        chosen = ta if wrap(cond.value) != 0 else fa

        def op(regs, state, depth, _d=d, _c=chosen):
            regs[_d] = _c(regs)

        return op
    cname = cond.name
    cslot = slots.get(cname)
    if cslot is None:

        def op(regs, state, depth, _f=fname, _n=cname):
            raise InterpreterError(f"@{_f}: variable {_n} is undefined at use")

        return op

    def op(regs, state, depth, _d=d, _c=cslot, _t=ta, _f=fa):
        c = regs[_c]
        if c.__class__ is not int:
            _raise_word(c, fname, cname, "ctsel condition")
        regs[_d] = _t(regs) if c != 0 else _f(regs)

    return op


def _compile_alloc(instr: Alloc, ctx: _Ctx):
    d = ctx.slots[instr.dest]
    ev = _compile_expr(instr.size, ctx.slots, ctx.fname)
    region_name = f"{ctx.fname}:{instr.dest}"

    def op(regs, state, depth, _d=d, _ev=ev, _n=region_name):
        size = _ev(regs)
        if size.__class__ is not int:
            raise InterpreterError("allocation size is a pointer")
        regs[_d] = state.memory.allocate(_n, size)

    return op


def _compile_call(instr: Call, ctx: _Ctx):
    callee = ctx.shells.get(instr.callee)
    if callee is None:

        def op(regs, state, depth, _n=instr.callee):
            raise InterpreterError(f"call to undefined function @{_n}")

        return op
    accs = tuple(
        _compile_value(a, ctx.slots, ctx.fname) for a in instr.args
    )
    if instr.dest is None:

        def op(regs, state, depth, _cf=callee, _as=accs):
            state.executor._exec(_cf, [a(regs) for a in _as], state, depth + 1)

        return op
    d = ctx.slots[instr.dest]

    def op(regs, state, depth, _cf=callee, _as=accs, _d=d):
        regs[_d] = state.executor._exec(
            _cf, [a(regs) for a in _as], state, depth + 1
        )

    return op


def _compile_instr(instr, ctx: _Ctx):
    if isinstance(instr, Mov):
        return _compile_mov(instr, ctx)
    if isinstance(instr, Load):
        return _compile_load(instr, ctx)
    if isinstance(instr, Store):
        return _compile_store(instr, ctx)
    if isinstance(instr, CtSel):
        return _compile_ctsel(instr, ctx)
    if isinstance(instr, Alloc):
        return _compile_alloc(instr, ctx)
    if isinstance(instr, Call):
        return _compile_call(instr, ctx)

    def op(regs, state, depth, _i=instr):
        raise InterpreterError(f"unknown instruction {_i}")

    return op


# -- terminator compilation --------------------------------------------------

def _compile_terminator(terminator, ctx: _Ctx, block_index: dict,
                        blocks_fn: Function):
    fname = ctx.fname
    if isinstance(terminator, Ret):
        ev = _compile_expr(terminator.expr, ctx.slots, fname)

        def term(regs, state, _ev=ev):
            v = _ev(regs)
            if v.__class__ is not int:
                raise InterpreterError(
                    f"@{fname} returns a pointer; only word "
                    "results are supported"
                )
            state.ret = v
            return None

        return term
    if isinstance(terminator, Jmp):
        target = block_index.get(terminator.target)
        if target is None:

            def term(regs, state, _t=terminator.target):
                raise KeyError(_t)

            return term

        def term(regs, state, _t=target):
            return _t

        return term
    if isinstance(terminator, Br):
        tidx = block_index.get(terminator.if_true)
        fidx = block_index.get(terminator.if_false)
        cond = terminator.cond
        if isinstance(cond, Const):
            taken = tidx if wrap(cond.value) != 0 else fidx
            label = (terminator.if_true if wrap(cond.value) != 0
                     else terminator.if_false)
            if taken is None:

                def term(regs, state, _t=label):
                    raise KeyError(_t)

                return term

            def term(regs, state, _t=taken):
                return _t

            return term
        cname = cond.name
        cslot = ctx.slots.get(cname)
        if cslot is None:

            def term(regs, state, _f=fname, _n=cname):
                raise InterpreterError(
                    f"@{_f}: variable {_n} is undefined at use"
                )

            return term
        tlabel, flabel = terminator.if_true, terminator.if_false

        def term(regs, state, _c=cslot, _t=tidx, _f=fidx):
            c = regs[_c]
            if c.__class__ is not int:
                if c is _UNDEF:
                    _raise_undefined(fname, cname)
                raise InterpreterError("branch condition is a pointer")
            nxt = _t if c != 0 else _f
            if nxt is None:
                raise KeyError(tlabel if c != 0 else flabel)
            return nxt

        return term
    if terminator is None:

        def term(regs, state):
            raise AssertionError("block has no terminator")

        return term

    def term(regs, state, _t=terminator):
        raise InterpreterError(f"unknown terminator {_t}")

    return term


# -- block body codegen ------------------------------------------------------
#
# The per-instruction closures above are the reference lowering, the tier
# every block starts on, and the delegation target for rare shapes, but
# calling one closure per dynamic instruction still costs a Python frame
# each.  A hot block's body is therefore *generated as Python source* — one
# function per basic block — so a straight-line run of
# movs/loads/stores/ctsels executes inside a single frame with every
# operand inlined as a register-list index or a literal.  Instructions the
# generator does not recognise (alloc, call, operands that resolve to no
# slot) are emitted as calls to the closure from the reference lowering,
# so the two paths can never disagree on semantics.

_SLIT = str(1 << (WORD_BITS - 1))
_MLIT = str((1 << WORD_BITS) - 1)


def _wrap_src(expr: str) -> str:
    """Source text computing ``wrap(expr)`` for an arbitrary Python int."""
    return f"((({expr}) + {_SLIT}) & {_MLIT}) - {_SLIT}"


def _bin_src(op: str, a: str, b: str) -> Optional[str]:
    """Source for ``eval_binop(op, a, b)``; None when not inlinable."""
    if op in ("+", "-", "*"):
        return _wrap_src(f"{a} {op} {b}")
    if op in ("&", "|", "^"):
        return _wrap_src(f"({a} {op} {b})")
    if op == "<<":
        return _wrap_src(f"{a} << ({b} % {WORD_BITS})")
    if op == ">>":
        return _wrap_src(f"({a} & {_MLIT}) >> ({b} % {WORD_BITS})")
    if op in ("<", "<=", ">", ">="):
        return f"1 if {a} {op} {b} else 0"
    return None  # "/", "%" (helper call), "==", "!=" (no TypeError on Pointer)


class _Emitter:
    """Accumulates source lines and the globals the generated code needs."""

    def __init__(self, fname: str):
        self.fname = fname
        self.lines: list[str] = []
        self.env: dict = {
            "_UNDEF": _UNDEF,
            "_Ptr": Pointer,
            "_MA": MemoryAccess,
        }
        self._n = 0

    def bind(self, obj) -> str:
        """Expose a Python object to the generated code under a fresh name."""
        name = f"_h{self._n}"
        self._n += 1
        self.env[name] = obj
        return name

    def emit(self, line: str, indent: int = 1) -> None:
        self.lines.append("    " * indent + line)

    def delegate(self, closure) -> None:
        """Emit a call to a reference-lowering closure for this instruction."""
        self.emit(f"{self.bind(closure)}(regs, state, depth)")

    def build(self, label: str):
        source = "def _bfn(regs, state, depth):\n" + "\n".join(self.lines)
        code = compile(source, f"<repro.exec.compiled:{self.fname}:{label}>",
                       "exec")
        exec(code, self.env)
        return self.env["_bfn"]


def _undef_raiser(fname: str, name: str):
    def raiser():
        _raise_undefined(fname, name)

    return raiser


def _bin_err(fname: str, lname: Optional[str], rname: Optional[str], op: str):
    def raiser(a, b):
        if lname is not None and a is _UNDEF:
            _raise_undefined(fname, lname)
        if rname is not None and b is _UNDEF:
            _raise_undefined(fname, rname)
        _raise_bin_pointer(op)

    return raiser


def _unary_err(fname: str, name: str):
    def raiser(v):
        if v is _UNDEF:
            _raise_undefined(fname, name)
        raise InterpreterError("unary operator applied to a pointer")

    return raiser


def _emit_operand(em: _Emitter, value, slots: dict, local: str,
                  check: Optional[str]) -> Optional[str]:
    """Emit ``local = <operand>``; returns the operand's variable name (or
    None for a constant), or the string "fail" sentinel via exception when
    the operand has no slot."""
    if isinstance(value, Const):
        em.emit(f"{local} = {wrap(value.value)!r}")
        return None
    slot = slots.get(value.name)
    if slot is None:
        raise _NotInlinable()
    em.emit(f"{local} = regs[{slot}]")
    if check == "undef":
        raiser = em.bind(_undef_raiser(em.fname, value.name))
        em.emit(f"if {local} is _UNDEF: {raiser}()")
    return value.name


class _NotInlinable(Exception):
    """Internal: this instruction must go through the reference closure."""


def _emit_mov(em: _Emitter, instr: Mov, slots: dict) -> None:
    d = slots[instr.dest]
    expr = instr.expr
    if isinstance(expr, Const):
        em.emit(f"regs[{d}] = {wrap(expr.value)!r}")
        return
    if isinstance(expr, Var):
        _emit_operand(em, expr, slots, "v", "undef")
        em.emit(f"regs[{d}] = v")
        return
    if isinstance(expr, UnaryExpr):
        operand = expr.operand
        if isinstance(operand, Const):
            em.emit(f"regs[{d}] = {eval_unop(expr.op, wrap(operand.value))!r}")
            return
        slot = slots.get(operand.name)
        if slot is None:
            raise _NotInlinable()
        err = em.bind(_unary_err(em.fname, operand.name))
        em.emit(f"a = regs[{slot}]")
        if expr.op == "!":
            em.emit("if a.__class__ is int:")
            em.emit(f"    regs[{d}] = 1 if a == 0 else 0", 1)
            em.emit("else:")
            em.emit(f"    {err}(a)", 1)
            return
        body = _wrap_src("-a" if expr.op == "-" else "~a")
        em.emit("try:")
        em.emit(f"    regs[{d}] = {body}", 1)
        em.emit("except TypeError:")
        em.emit(f"    {err}(a)", 1)
        return
    # BinExpr
    op = expr.op
    lhs, rhs = expr.lhs, expr.rhs
    if isinstance(lhs, Const) and isinstance(rhs, Const):
        folded = eval_binop(op, wrap(lhs.value), wrap(rhs.value))
        em.emit(f"regs[{d}] = {folded!r}")
        return
    if op in ("==", "!="):
        lname = _emit_operand(em, lhs, slots, "a", "undef")
        rname = _emit_operand(em, rhs, slots, "b", "undef")
        cmp = "==" if op == "==" else "!="
        em.emit(f"regs[{d}] = 1 if a {cmp} b else 0")
        return
    lname = _emit_operand(em, lhs, slots, "a", None)
    rname = _emit_operand(em, rhs, slots, "b", None)
    err = em.bind(_bin_err(em.fname, lname, rname, op))
    body = _bin_src(op, "a", "b")
    if body is None:  # "/" and "%": exact semantics via eval_binop
        body = f"{em.bind(_BIN[op])}(a, b)"
    em.emit("try:")
    em.emit(f"    regs[{d}] = {body}", 1)
    em.emit("except TypeError:")
    em.emit(f"    {err}(a, b)", 1)


def _emit_load(em: _Emitter, instr: Load, slots: dict, ctx: "_Ctx") -> None:
    fname = em.fname
    aslot = slots.get(instr.array.name)
    if aslot is None:
        raise _NotInlinable()
    index = instr.index
    if not isinstance(index, Const) and slots.get(index.name) is None:
        raise _NotInlinable()
    d = slots[instr.dest]
    aname = instr.array.name
    perr = em.bind(lambda p, _f=fname, _n=aname: _raise_not_pointer(p, _f, _n))
    em.emit(f"p = regs[{aslot}]")
    em.emit(f"if p.__class__ is not _Ptr: {perr}(p)")
    if isinstance(index, Const):
        em.emit(f"i = {wrap(index.value)!r}")
    else:
        iname = index.name
        ierr = em.bind(
            lambda i, _f=fname, _n=iname: _raise_word(i, _f, _n, "load index")
        )
        em.emit(f"i = regs[{slots[iname]}]")
        em.emit(f"if i.__class__ is not int: {ierr}(i)")
    em.emit("r = state.regions[p.region]")
    if ctx.record_trace or ctx.cache_enabled:
        em.emit(f"addr = r.base + i * {WORD_BYTES}")
        if ctx.record_trace:
            em.emit('state.trace.memory.append(_MA("load", r.name, i, addr))')
        if ctx.cache_enabled:
            em.emit("if not state.cache.data_access(addr, is_write=False): "
                    f"state.cycles += {ctx.cost_model.cache_miss_penalty}")
    site = em.bind(f"{fname}:{instr}")
    em.emit("if 0 <= i < r.size:")
    em.emit(f"    regs[{d}] = r.cells[i]", 1)
    em.emit("else:")
    em.emit(f"    regs[{d}] = state.memory.load(p, i, {site})", 1)


def _store_val_err(fname: str, vname: Optional[str]):
    def raiser(v):
        if vname is not None and v is _UNDEF:
            _raise_undefined(fname, vname)
        raise InterpreterError("storing pointers into memory is not supported")

    return raiser


def _emit_store(em: _Emitter, instr: Store, slots: dict, ctx: "_Ctx") -> None:
    fname = em.fname
    aslot = slots.get(instr.array.name)
    if aslot is None:
        raise _NotInlinable()
    index, value = instr.index, instr.value
    if not isinstance(index, Const) and slots.get(index.name) is None:
        raise _NotInlinable()
    if not isinstance(value, Const) and slots.get(value.name) is None:
        raise _NotInlinable()
    aname = instr.array.name
    perr = em.bind(lambda p, _f=fname, _n=aname: _raise_not_pointer(p, _f, _n))
    em.emit(f"p = regs[{aslot}]")
    em.emit(f"if p.__class__ is not _Ptr: {perr}(p)")
    if isinstance(index, Const):
        em.emit(f"i = {wrap(index.value)!r}")
    else:
        iname = index.name
        ierr = em.bind(
            lambda i, _f=fname, _n=iname: _raise_word(i, _f, _n, "store index")
        )
        em.emit(f"i = regs[{slots[iname]}]")
        em.emit(f"if i.__class__ is not int: {ierr}(i)")
    if isinstance(value, Const):
        em.emit(f"v = {wrap(value.value)!r}")
    else:
        verr = em.bind(_store_val_err(fname, value.name))
        em.emit(f"v = regs[{slots[value.name]}]")
        em.emit(f"if v.__class__ is not int: {verr}(v)")
    em.emit("r = state.regions[p.region]")
    if ctx.record_trace or ctx.cache_enabled:
        em.emit(f"addr = r.base + i * {WORD_BYTES}")
        if ctx.record_trace:
            em.emit('state.trace.memory.append(_MA("store", r.name, i, addr))')
        if ctx.cache_enabled:
            em.emit("if not state.cache.data_access(addr, is_write=True): "
                    f"state.cycles += {ctx.cost_model.cache_miss_penalty}")
    site = em.bind(f"{fname}:{instr}")
    em.emit("if 0 <= i < r.size and r.writable:")
    em.emit("    r.cells[i] = v", 1)
    em.emit("else:")
    em.emit(f"    state.memory.store(p, i, v, {site})", 1)


def _emit_ctsel(em: _Emitter, instr: CtSel, slots: dict) -> None:
    fname = em.fname
    cond = instr.cond
    if isinstance(cond, Const):
        raise _NotInlinable()  # folded arm; rare — use the reference closure
    cslot = slots.get(cond.name)
    if cslot is None:
        raise _NotInlinable()
    d = slots[instr.dest]
    cname = cond.name
    cerr = em.bind(
        lambda c, _f=fname, _n=cname: _raise_word(c, _f, _n, "ctsel condition")
    )
    em.emit(f"c = regs[{cslot}]")
    em.emit(f"if c.__class__ is not int: {cerr}(c)")
    em.emit("if c != 0:")
    _emit_arm(em, instr.if_true, slots, d)
    em.emit("else:")
    _emit_arm(em, instr.if_false, slots, d)


def _emit_arm(em: _Emitter, value, slots: dict, d: int) -> None:
    if isinstance(value, Const):
        em.emit(f"    regs[{d}] = {wrap(value.value)!r}", 1)
        return
    slot = slots.get(value.name)
    if slot is None:
        raise _NotInlinable()
    raiser = em.bind(_undef_raiser(em.fname, value.name))
    em.emit(f"    v = regs[{slot}]", 1)
    em.emit(f"    if v is _UNDEF: {raiser}()", 1)
    em.emit(f"    regs[{d}] = v", 1)


def _ret_err(fname: str, vname: Optional[str]):
    def raiser(v):
        if vname is not None and v is _UNDEF:
            _raise_undefined(fname, vname)
        raise InterpreterError(
            f"@{fname} returns a pointer; only word results are supported"
        )

    return raiser


def _emit_terminator(em: _Emitter, terminator, slots: dict,
                     block_index: dict) -> bool:
    """Emit the terminator inline; False when it needs the closure path."""
    if isinstance(terminator, Ret):
        expr = terminator.expr
        if isinstance(expr, Const):
            em.emit(f"state.ret = {wrap(expr.value)!r}")
            em.emit("return None")
            return True
        if isinstance(expr, Var):
            slot = slots.get(expr.name)
            if slot is None:
                return False
            rerr = em.bind(_ret_err(em.fname, expr.name))
            em.emit(f"v = regs[{slot}]")
            em.emit(f"if v.__class__ is not int: {rerr}(v)")
            em.emit("state.ret = v")
            em.emit("return None")
            return True
        return False
    if isinstance(terminator, Jmp):
        target = block_index.get(terminator.target)
        if target is None:
            return False
        em.emit(f"return {target}")
        return True
    if isinstance(terminator, Br):
        cond = terminator.cond
        if isinstance(cond, Const):
            return False
        cslot = slots.get(cond.name)
        tidx = block_index.get(terminator.if_true)
        fidx = block_index.get(terminator.if_false)
        if cslot is None or tidx is None or fidx is None:
            return False
        fname, cname = em.fname, cond.name

        def cerr(c, _f=fname, _n=cname):
            if c is _UNDEF:
                _raise_undefined(_f, _n)
            raise InterpreterError("branch condition is a pointer")

        herr = em.bind(cerr)
        em.emit(f"c = regs[{cslot}]")
        em.emit(f"if c.__class__ is not int: {herr}(c)")
        em.emit(f"return {tidx} if c != 0 else {fidx}")
        return True
    return False


def _codegen_block_fn(label: str, non_phis, terminator, ctx: "_Ctx",
                      block_index: dict):
    """Generate the single-frame body function for one basic block."""
    em = _Emitter(ctx.fname)
    for instr in non_phis:
        mark = len(em.lines)
        try:
            if isinstance(instr, Mov):
                _emit_mov(em, instr, ctx.slots)
            elif isinstance(instr, Load):
                _emit_load(em, instr, ctx.slots, ctx)
            elif isinstance(instr, Store):
                _emit_store(em, instr, ctx.slots, ctx)
            elif isinstance(instr, CtSel):
                _emit_ctsel(em, instr, ctx.slots)
            else:
                raise _NotInlinable()
        except _NotInlinable:
            del em.lines[mark:]
            em.delegate(_compile_instr(instr, ctx))
    if not _emit_terminator(em, terminator, ctx.slots, block_index):
        term = _compile_terminator(terminator, ctx, block_index, None)
        em.emit(f"return {em.bind(term)}(regs, state)")
    return em.build(label)


def _make_loop_fn(ops: tuple, term):
    """Closure-tier body: iterate the reference closures."""

    def fn(regs, state, depth):
        for op in ops:
            op(regs, state, depth)
        return term(regs, state)

    return fn


#: Entries a block body runs on the reference closures before its source is
#: generated (see "The two tiers" in docs/BACKENDS.md for the break-even
#: measurement).  Tests monkeypatch it; 1 generates on first entry.
TIER_UP_THRESHOLD = 500


def _make_tiered_fn(cb, label, non_phis, terminator, ctx, block_index):
    """Tier-0 body: run the closures, and once the block has been entered
    ``TIER_UP_THRESHOLD`` times replace ``cb.fn`` with generated code.

    The swap happens at block entry, so no block runs half in one tier.
    Concurrent callers may both generate; the results are equivalent.
    """
    closure_fn = _make_loop_fn(
        tuple(_compile_instr(ins, ctx) for ins in non_phis),
        _compile_terminator(terminator, ctx, block_index, None),
    )
    entries = 0

    def fn(regs, state, depth):
        nonlocal entries
        entries += 1
        if entries < TIER_UP_THRESHOLD:
            return closure_fn(regs, state, depth)
        try:
            cb.fn = _codegen_block_fn(
                label, non_phis, terminator, ctx, block_index
            )
            OBS.counter("exec.tier.up")
        except Exception as exc:
            # The closures are a complete lowering, so the block keeps them.
            cb.fn = closure_fn
            OBS.counter("exec.tier.fallback")
            OBS.event("exec.tier.fallback", function=ctx.fname, block=label,
                      error=f"{type(exc).__name__}: {exc}")
        return cb.fn(regs, state, depth)

    return fn


# -- compiled containers -----------------------------------------------------

class _CompiledBlock:
    __slots__ = ("steps", "cycles", "phi_ops", "fn", "prologue")

    def __init__(self):
        self.steps = 0
        self.cycles = 0
        self.phi_ops = None
        self.fn = None
        self.prologue = None


class _CompiledFunction:
    """Shell filled by :func:`_fill_function` (allows mutual recursion)."""

    __slots__ = ("name", "nslots", "param_slots", "global_slots", "blocks")

    def __init__(self, name: str):
        self.name = name
        self.nslots = 0
        self.param_slots = ()
        self.global_slots = ()
        self.blocks = ()


class CompiledModule:
    """All functions of one module, compiled for one option set."""

    __slots__ = ("module_name", "functions")

    def __init__(self, module_name: str, functions: dict):
        self.module_name = module_name
        self.functions = functions


def _make_prologue(record_trace: bool, cache_enabled: bool, sites: tuple,
                   addrs: tuple, penalty: int):
    if record_trace and cache_enabled:

        def prologue(state, _sites=sites, _addrs=addrs, _pen=penalty):
            state.trace.instructions.extend(_sites)
            fetch = state.cache.instr_fetch
            for a in _addrs:
                if not fetch(a):
                    state.cycles += _pen

        return prologue
    if record_trace:

        def prologue(state, _sites=sites):
            state.trace.instructions.extend(_sites)

        return prologue
    if cache_enabled:

        def prologue(state, _addrs=addrs, _pen=penalty):
            fetch = state.cache.instr_fetch
            for a in _addrs:
                if not fetch(a):
                    state.cycles += _pen

        return prologue
    return None


def _fill_function(
    shell: _CompiledFunction,
    function: Function,
    module: Module,
    shells: dict,
    record_trace: bool,
    cache_enabled: bool,
    cost_model: CostModel,
    addresses: dict,
) -> None:
    fname = function.name

    # Slot allocation: globals first (the interpreter seeds the frame env
    # with the global pointers), then parameters (which shadow globals of
    # the same name), then every instruction destination.
    slots: dict[str, int] = {}
    for gname in module.globals:
        slots.setdefault(gname, len(slots))
    for param in function.params:
        slots.setdefault(param.name, len(slots))
    for _, instr in function.iter_instructions():
        if instr.dest is not None:
            slots.setdefault(instr.dest, len(slots))

    shell.nslots = len(slots)
    shell.global_slots = tuple((slots[g], g) for g in module.globals)
    shell.param_slots = tuple(slots[p.name] for p in function.params)

    ctx = _Ctx(fname, slots, shells, record_trace, cache_enabled, cost_model)

    labels = list(function.blocks)
    block_index = {label: i for i, label in enumerate(labels)}
    preds: list[set[int]] = [set() for _ in labels]
    for i, label in enumerate(labels):
        terminator = function.blocks[label].terminator
        if terminator is not None:
            for succ in terminator.successors():
                j = block_index.get(succ)
                if j is not None:
                    preds[j].add(i)

    compiled_blocks = []
    for i, label in enumerate(labels):
        block = function.blocks[label]
        cb = _CompiledBlock()
        phis = block.phis()
        non_phis = block.non_phi_instructions()

        cb.steps = len(phis) + len(non_phis) + 1
        cb.cycles = (
            len(phis) * cost_model.phi
            + sum(cost_model.instruction_cost(ins) for ins in non_phis)
            + (cost_model.terminator_cost(block.terminator)
               if block.terminator is not None else 0)
        )

        if phis:
            phi_ops: dict[int, object] = {}
            if i == 0:

                def entry_raiser(regs, _f=fname, _l=label):
                    raise InterpreterError(
                        f"@{_f}: entry block {_l} contains phis"
                    )

                phi_ops[-1] = entry_raiser
            for p in preds[i]:
                plabel = labels[p]
                accs = []
                dest_slots = []
                for phi in phis:
                    try:
                        incoming = phi.incoming_from(plabel)
                    except KeyError:

                        def acc(regs, _phi=phi, _pl=plabel):
                            _phi.incoming_from(_pl)  # raises KeyError

                        accs.append(acc)
                    else:
                        accs.append(_compile_value(incoming, slots, fname))
                    dest_slots.append(slots[phi.dest])
                if len(accs) == 1:

                    def phi_op(regs, _a=accs[0], _s=dest_slots[0]):
                        regs[_s] = _a(regs)

                else:
                    accs_t = tuple(accs)
                    slots_t = tuple(dest_slots)

                    def phi_op(regs, _as=accs_t, _ss=slots_t):
                        # Parallel semantics: all reads before any write.
                        values = [a(regs) for a in _as]
                        for s, v in zip(_ss, values):
                            regs[s] = v

                phi_ops[p] = phi_op
            cb.phi_ops = phi_ops

        observing = record_trace or cache_enabled
        call_positions = [
            k for k, ins in enumerate(non_phis) if isinstance(ins, Call)
        ]
        if observing:
            # The interpreter records each site immediately before executing
            # the instruction, so a callee's sites interleave between the
            # call site and the rest of the caller's block.  Split the batch
            # at every call: the prologue covers up to and including the
            # first call site; each call op then records the next segment
            # after its callee returns.
            sites = [
                (InstructionSite(fname, label, k), None)
                for k in range(len(phis))
            ]
            entries = []
            for k, ins in enumerate(block.instructions):
                if not isinstance(ins, Phi):
                    entries.append((k, ins))
            for k, ins in entries:
                sites.append((InstructionSite(fname, label, k), ins))
            sites.append(
                (InstructionSite(fname, label, len(block.instructions)), None)
            )

            def seg_prologue(segment):
                seg_sites = tuple(s for s, _ in segment)
                seg_addrs = tuple(
                    a for a in (
                        addresses.get((fname, label, s.index))
                        for s in seg_sites
                    ) if a is not None
                )
                return _make_prologue(
                    record_trace, cache_enabled, seg_sites, seg_addrs,
                    cost_model.cache_miss_penalty,
                )

            segments = [[]]
            for site, ins in sites:
                segments[-1].append((site, ins))
                if isinstance(ins, Call):
                    segments.append([])
            cb.prologue = seg_prologue(segments[0])

        if observing and call_positions:
            # Reference-closure body with the post-call site segments bound
            # onto the call ops; observing mode is the slow path anyway.
            ops = [_compile_instr(ins, ctx) for ins in non_phis]
            for seg_no, k in enumerate(call_positions, start=1):
                record_segment = seg_prologue(segments[seg_no])

                def wrapped(regs, state, depth, _op=ops[k],
                            _seg=record_segment):
                    _op(regs, state, depth)
                    _seg(state)

                ops[k] = wrapped
            cb.fn = _make_loop_fn(
                tuple(ops),
                _compile_terminator(block.terminator, ctx, block_index, None),
            )
        else:
            cb.fn = _make_tiered_fn(
                cb, label, non_phis, block.terminator, ctx, block_index
            )
        compiled_blocks.append(cb)

    shell.blocks = tuple(compiled_blocks)


def compile_ir_module(
    module: Module,
    record_trace: bool = False,
    cache_enabled: bool = False,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> CompiledModule:
    """Compile every function of ``module`` (bypassing the compile cache)."""
    addresses = _layout_instructions(module) if cache_enabled else {}
    shells = {name: _CompiledFunction(name) for name in module.functions}
    for name, function in module.functions.items():
        _fill_function(
            shells[name], function, module, shells,
            record_trace, cache_enabled, cost_model, addresses,
        )
    return CompiledModule(module.name, shells)


# -- identity-keyed executor caches -------------------------------------------

#: Bound (live module entries) shared by every identity-keyed executor
#: cache — compile and SoA.  Long-running servers pin modules across jobs,
#: so without a bound these grow with distinct submissions.
EXEC_CACHE_SIZE_ENV_VAR = "REPRO_EXEC_CACHE_SIZE"
DEFAULT_EXEC_CACHE_SIZE = 128


def exec_cache_limit() -> int:
    return env_int(EXEC_CACHE_SIZE_ENV_VAR, DEFAULT_EXEC_CACHE_SIZE, 1)


class _IdentityCache:
    """An LRU map from ``(module object, options key)`` to a value.

    Entries are ``id(module) -> (weakref to module, {options key: value})``
    in LRU order: recency is updated on every hit, and the least-recent
    entry is evicted once the entry count passes :func:`exec_cache_limit`.
    An ``id()`` recycled for a new module is detected by re-checking the
    weakref, and a module's entry is dropped when it is garbage collected.
    """

    def __init__(self, counter_prefix: str) -> None:
        self._lock = threading.Lock()
        self._entries: "OrderedDict[int, tuple]" = OrderedDict()
        self._dead: list = []
        self._stats = {"hits": 0, "misses": 0, "evictions": 0}
        self._prefix = counter_prefix

    def _drop(self, mid: int, ref) -> None:
        # Caller holds the lock.  The id may already hold a newer module.
        stored = self._entries.get(mid)
        if stored is not None and stored[0] is ref:
            del self._entries[mid]

    def _module_died(self, mid: int, ref) -> None:
        # Weakref callback.  Garbage collection can run it inside any
        # allocation, including one made while this thread holds the lock,
        # so it never waits for the lock: when the lock is busy the entry
        # is queued for the next locked call to drop.
        if self._lock.acquire(blocking=False):
            try:
                self._drop(mid, ref)
            finally:
                self._lock.release()
        else:
            self._dead.append((mid, ref))

    def _drop_dead(self) -> None:
        # Caller holds the lock.
        while self._dead:
            self._drop(*self._dead.pop())

    def get(self, module: Module, key):
        """The cached value for ``(module, key)``, or None on a miss."""
        mid = id(module)
        with self._lock:
            self._drop_dead()
            entry = self._entries.get(mid)
            if entry is not None:
                ref, variants = entry
                if ref() is module:
                    value = variants.get(key)
                    if value is not None:
                        self._entries.move_to_end(mid)
                        self._stats["hits"] += 1
                        OBS.counter(self._prefix + ".hits")
                        return value
                else:
                    # The original module died and its id was recycled.
                    del self._entries[mid]
        return None

    def put(self, module: Module, key, value) -> None:
        """Record a miss and store ``value`` for ``(module, key)``."""
        OBS.counter(self._prefix + ".misses")
        mid = id(module)
        with self._lock:
            self._drop_dead()
            self._stats["misses"] += 1
            entry = self._entries.get(mid)
            if entry is not None and entry[0]() is module:
                entry[1][key] = value
                self._entries.move_to_end(mid)
                return
            ref = weakref.ref(module, lambda r: self._module_died(mid, r))
            self._entries[mid] = (ref, {key: value})
            limit = exec_cache_limit()
            while len(self._entries) > limit:
                self._entries.popitem(last=False)
                self._stats["evictions"] += 1
                OBS.counter(self._prefix + ".evictions")

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._dead.clear()
            for name in self._stats:
                self._stats[name] = 0

    def stats(self) -> dict:
        with self._lock:
            self._drop_dead()
            return {**self._stats, "entries": len(self._entries)}


_COMPILE_CACHE = _IdentityCache("exec.compile_cache")


def get_compiled(
    module: Module,
    record_trace: bool,
    cache_enabled: bool,
    cost_model: CostModel,
) -> CompiledModule:
    """Fetch (or build) the compiled form of ``module``.

    The cache keys on **object identity**, not module name: repairing or
    optimizing a module produces a new ``Module`` object and therefore a
    fresh compilation, so stale code can never be served for a rebuilt
    function of the same name.
    """
    key = (bool(record_trace), bool(cache_enabled), cost_model)
    compiled = _COMPILE_CACHE.get(module, key)
    if compiled is not None:
        return compiled
    with OBS.span("exec.compile", module=module.name):
        compiled = compile_ir_module(
            module, record_trace=key[0], cache_enabled=key[1], cost_model=cost_model
        )
    _COMPILE_CACHE.put(module, key, compiled)
    return compiled


def clear_compile_cache() -> None:
    """Drop every cached compilation (mainly for tests)."""
    _COMPILE_CACHE.clear()


def compile_cache_stats() -> dict:
    """Hit/miss/eviction counters and live entry count of the compile cache."""
    return _COMPILE_CACHE.stats()


# -- execution ---------------------------------------------------------------

class _ExecState:
    __slots__ = (
        "memory", "regions", "global_pointers", "trace", "cache", "executor",
        "cycles", "steps", "ret",
    )

    def __init__(self, memory, global_pointers, trace, cache, executor):
        self.memory = memory
        self.regions = memory.regions
        self.global_pointers = global_pointers
        self.trace = trace
        self.cache = cache
        self.executor = executor
        self.cycles = 0
        self.steps = 0
        self.ret = 0


class CompiledExecutor:
    """Drop-in replacement for :class:`~repro.exec.interpreter.Interpreter`.

    Same constructor signature, same :meth:`run` contract, same observable
    semantics; execution runs through closures compiled once per module
    (shared process-wide through the compile cache) and, for hot blocks,
    through generated code.
    """

    def __init__(
        self,
        module: Module,
        strict_memory: bool = True,
        record_trace: bool = True,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        cache=None,
        max_steps: int = DEFAULT_MAX_STEPS,
        max_call_depth: int = DEFAULT_MAX_CALL_DEPTH,
    ) -> None:
        self.module = module
        self.strict_memory = strict_memory
        self.record_trace = record_trace
        self.cost_model = cost_model
        self.cache = cache
        self.max_steps = max_steps
        self.max_call_depth = max_call_depth
        self._compiled = get_compiled(
            module, record_trace, cache is not None, cost_model
        )

    # -- public API ----------------------------------------------------------

    def run(self, name: str, args: Sequence[object]) -> ExecutionResult:
        """Execute ``@name`` on the given arguments (interpreter-compatible)."""
        compiled_function, state, runtime_args, array_pointers = (
            self._begin(name, args)
        )
        value = self._exec(compiled_function, runtime_args, state, 0)
        return self._finish(value, state, array_pointers)

    def _begin(self, name: str, args: Sequence[object]):
        """Marshal arguments and build the execution state for one run."""
        function = self.module.function(name)
        if len(args) != len(function.params):
            raise InterpreterError(
                f"@{name} expects {len(function.params)} arguments, "
                f"got {len(args)}"
            )
        compiled_function = self._compiled.functions[name]

        memory = Memory(strict=self.strict_memory)
        global_pointers: dict[str, Pointer] = {}
        for array in self.module.globals.values():
            global_pointers[array.name] = memory.allocate(
                f"@{array.name}", array.size, array.initial_contents()
            )

        trace = Trace() if self.record_trace else None
        state = _ExecState(memory, global_pointers, trace, self.cache, self)

        runtime_args: list["int | Pointer"] = []
        array_pointers: list[Optional[Pointer]] = []
        for param, arg in zip(function.params, args):
            if isinstance(arg, list):
                pointer = memory.allocate(
                    f"arg:{param.name}", len(arg), list(arg)
                )
                runtime_args.append(pointer)
                array_pointers.append(pointer)
            elif isinstance(arg, Pointer):
                runtime_args.append(arg)
                array_pointers.append(arg)
            elif isinstance(arg, int):
                runtime_args.append(wrap(arg))
                array_pointers.append(None)
            else:
                raise InterpreterError(
                    f"unsupported argument {arg!r} for parameter {param.name}"
                )
        return compiled_function, state, runtime_args, array_pointers

    def _finish(self, value, state: _ExecState, array_pointers):
        memory = state.memory
        arrays = [
            memory.snapshot(p) if p is not None else None
            for p in array_pointers
        ]
        global_state = {
            array_name: memory.snapshot(pointer)
            for array_name, pointer in state.global_pointers.items()
        }
        return ExecutionResult(
            value=value,
            cycles=state.cycles,
            steps=state.steps,
            trace=state.trace,
            violations=list(memory.violations),
            arrays=arrays,
            global_state=global_state,
        )

    # -- hot loop ------------------------------------------------------------

    def _exec(self, cf: _CompiledFunction, args, state: _ExecState,
              depth: int) -> int:
        if depth > self.max_call_depth:
            raise InterpreterError(
                f"call depth exceeded at @{cf.name} (recursive program?)"
            )
        regs = [_UNDEF] * cf.nslots
        if cf.global_slots:
            global_pointers = state.global_pointers
            for slot, gname in cf.global_slots:
                regs[slot] = global_pointers[gname]
        for slot, value in zip(cf.param_slots, args):
            regs[slot] = value

        blocks = cf.blocks
        max_steps = self.max_steps
        bi = 0
        prev = -1
        while True:
            block = blocks[bi]
            steps = state.steps + block.steps
            state.steps = steps
            if steps > max_steps:
                raise StepLimitExceeded(
                    f"exceeded {max_steps} steps; the program probably loops"
                )
            state.cycles += block.cycles
            prologue = block.prologue
            if prologue is not None:
                prologue(state)
            phi_ops = block.phi_ops
            if phi_ops is not None:
                phi_ops[prev](regs)
            nxt = block.fn(regs, state, depth)
            if nxt is None:
                return state.ret
            prev = bi
            bi = nxt
