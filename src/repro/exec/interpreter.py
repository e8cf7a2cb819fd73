"""A tracing interpreter for the baseline language.

This is the execution substrate of the whole reproduction: it plays the
role of the paper's physical test machine (for the cost model), of valgrind
(exact memory-safety checking), and of the observation point for the
isochronicity verifiers (instruction and data traces).

The interpreter is deliberately straightforward — a direct operational
semantics of the language of Fig. 4 — because the correctness theorems of
the paper are stated against exactly such a semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.exec.costs import DEFAULT_COST_MODEL, CostModel
from repro.exec.memory import AccessViolation, Memory, Pointer
from repro.exec.traces import InstructionSite, MemoryAccess, Trace
from repro.ir.function import Function
from repro.ir.instructions import (
    Alloc,
    BinExpr,
    Br,
    Call,
    CtSel,
    Expr,
    Jmp,
    Load,
    Mov,
    Phi,
    Ret,
    Store,
    UnaryExpr,
)
from repro.ir.module import Module
from repro.ir.ops import eval_binop, eval_unop, wrap
from repro.ir.values import Const, Value, Var


class InterpreterError(Exception):
    """A dynamic error that is *not* a memory-safety violation."""


class StepLimitExceeded(InterpreterError):
    """The configured maximum step count was reached (runaway loop guard)."""


RuntimeValue = "int | Pointer"

#: Runaway-loop guard and recursion guard, shared with the compiled backend.
DEFAULT_MAX_STEPS = 50_000_000
DEFAULT_MAX_CALL_DEPTH = 64


def _site(frame: _Frame, instr):
    """An access's site, rendered (through the IR printer) only if
    :class:`Memory` reports the access."""
    return lambda: f"{frame.function.name}:{instr}"


@dataclass
class ExecutionResult:
    """Everything observed while running one function."""

    value: int
    cycles: int
    steps: int
    trace: Optional[Trace]
    violations: list[AccessViolation]
    arrays: list[Optional[list[int]]]
    global_state: dict[str, list[int]]

    def outputs(self) -> tuple:
        """The semantic observation used for equivalence checking.

        Two runs are semantically equal when they return the same value and
        leave the same contents in every caller-visible array (arguments and
        globals) — the notion of equivalence in the paper's Theorem 1.
        """
        arrays = tuple(
            tuple(a) if a is not None else None for a in self.arrays
        )
        global_state = tuple(sorted(
            (name, tuple(cells)) for name, cells in self.global_state.items()
        ))
        return (self.value, arrays, global_state)


@dataclass
class _Frame:
    function: Function
    env: dict[str, "int | Pointer"] = field(default_factory=dict)


class Interpreter:
    """Executes functions of a module.

    Parameters
    ----------
    module:
        The module to execute.  It is never mutated; each ``run`` gets a
        fresh memory image (globals re-initialised).
    strict_memory:
        If true, out-of-bounds accesses raise
        :class:`repro.exec.memory.MemorySafetyViolation`.  If false they are
        recorded and execution continues with C-like semantics, which lets
        the evaluation run the unsafe code produced by the SC-Eliminator
        baseline.
    record_trace:
        Record instruction and memory traces (required by the verifiers;
        disable for the timing benchmarks, where only cycles matter).
    cache:
        Optional :class:`repro.cache.hierarchy.CacheHierarchy`; when present
        every instruction fetch and data access is simulated and misses add
        penalty cycles.
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
        self._instr_addresses = _layout_instructions(module) if cache else {}
        #: True when per-instruction observation (traces or cache simulation)
        #: is required; when false the timing path skips that bookkeeping.
        self._observing = record_trace or cache is not None

    # -- public API ----------------------------------------------------------

    def run(self, name: str, args: Sequence[object]) -> ExecutionResult:
        """Execute ``@name`` on the given arguments.

        Arguments may be ints (word parameters) or lists of ints (array
        parameters: a fresh region is allocated and initialised per call).
        """
        function = self.module.function(name)
        if len(args) != len(function.params):
            raise InterpreterError(
                f"@{name} expects {len(function.params)} arguments, "
                f"got {len(args)}"
            )

        memory = Memory(strict=self.strict_memory)
        global_pointers: dict[str, Pointer] = {}
        for array in self.module.globals.values():
            global_pointers[array.name] = memory.allocate(
                f"@{array.name}", array.size, array.initial_contents(),
                writable=not array.const,
            )

        trace = Trace() if self.record_trace else None
        state = _RunState(memory, global_pointers, trace)

        runtime_args: list["int | Pointer"] = []
        array_pointers: list[Optional[Pointer]] = []
        for param, arg in zip(function.params, args):
            if isinstance(arg, list):
                pointer = memory.allocate(f"arg:{param.name}", len(arg), list(arg))
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

        value = self._call(function, runtime_args, state, depth=0)

        arrays = [
            memory.snapshot(p) if p is not None else None for p in array_pointers
        ]
        global_state = {
            array_name: memory.snapshot(pointer)
            for array_name, pointer in global_pointers.items()
        }
        return ExecutionResult(
            value=value,
            cycles=state.cycles,
            steps=state.steps,
            trace=trace,
            violations=list(memory.violations),
            arrays=arrays,
            global_state=global_state,
        )

    # -- execution engine ------------------------------------------------------

    def _call(
        self,
        function: Function,
        args: list["int | Pointer"],
        state: "_RunState",
        depth: int,
    ) -> int:
        if depth > self.max_call_depth:
            raise InterpreterError(
                f"call depth exceeded at @{function.name} (recursive program?)"
            )
        frame = _Frame(function)
        frame.env.update(state.global_pointers)
        for param, arg in zip(function.params, args):
            frame.env[param.name] = arg

        block = function.entry
        previous_label: Optional[str] = None
        while True:
            self._execute_phis(function, block, previous_label, frame, state)
            observing = self._observing
            for index, instr in enumerate(block.instructions):
                if isinstance(instr, Phi):
                    continue
                self._step(state)
                if observing:
                    self._record_site(function.name, block.label, index, state)
                state.cycles += self.cost_model.instruction_cost(instr)
                self._execute(instr, frame, state, depth)
            terminator = block.terminator
            assert terminator is not None
            self._step(state)
            if observing:
                self._record_site(
                    function.name, block.label, len(block.instructions), state
                )
            state.cycles += self.cost_model.terminator_cost(terminator)

            if isinstance(terminator, Ret):
                result = self._eval_expr(terminator.expr, frame)
                if isinstance(result, Pointer):
                    raise InterpreterError(
                        f"@{function.name} returns a pointer; only word "
                        "results are supported"
                    )
                return result
            if isinstance(terminator, Jmp):
                previous_label = block.label
                block = function.blocks[terminator.target]
            elif isinstance(terminator, Br):
                cond = self._eval_value(terminator.cond, frame)
                if isinstance(cond, Pointer):
                    raise InterpreterError("branch condition is a pointer")
                previous_label = block.label
                target = terminator.if_true if cond != 0 else terminator.if_false
                block = function.blocks[target]
            else:
                raise InterpreterError(f"unknown terminator {terminator}")

    def _execute_phis(
        self,
        function: Function,
        block,
        previous_label: Optional[str],
        frame: _Frame,
        state: "_RunState",
    ) -> None:
        phis = block.phis()
        if not phis:
            return
        if previous_label is None:
            raise InterpreterError(
                f"@{function.name}: entry block {block.label} contains phis"
            )
        # Parallel evaluation: all reads happen before any write.
        staged: list[tuple[str, "int | Pointer"]] = []
        for index, phi in enumerate(phis):
            self._step(state)
            if self._observing:
                self._record_site(function.name, block.label, index, state)
            state.cycles += self.cost_model.phi
            staged.append(
                (phi.dest, self._eval_value(phi.incoming_from(previous_label), frame))
            )
        for dest, value in staged:
            frame.env[dest] = value

    def _execute(self, instr, frame: _Frame, state: "_RunState", depth: int) -> None:
        if isinstance(instr, Mov):
            frame.env[instr.dest] = self._eval_expr(instr.expr, frame)
        elif isinstance(instr, Load):
            pointer = self._eval_pointer(instr.array, frame)
            index = self._eval_int(instr.index, frame, "load index")
            if self._observing:
                self._touch_data(pointer, index, "load", state)
            frame.env[instr.dest] = state.memory.load(
                pointer, index, _site(frame, instr)
            )
        elif isinstance(instr, Store):
            pointer = self._eval_pointer(instr.array, frame)
            index = self._eval_int(instr.index, frame, "store index")
            value = self._eval_value(instr.value, frame)
            if isinstance(value, Pointer):
                raise InterpreterError("storing pointers into memory is not supported")
            if self._observing:
                self._touch_data(pointer, index, "store", state)
            state.memory.store(pointer, index, value, _site(frame, instr))
        elif isinstance(instr, CtSel):
            cond = self._eval_int(instr.cond, frame, "ctsel condition")
            chosen = instr.if_true if cond != 0 else instr.if_false
            frame.env[instr.dest] = self._eval_value(chosen, frame)
        elif isinstance(instr, Alloc):
            size = self._eval_expr(instr.size, frame)
            if isinstance(size, Pointer):
                raise InterpreterError("allocation size is a pointer")
            frame.env[instr.dest] = state.memory.allocate(
                f"{frame.function.name}:{instr.dest}", size
            )
        elif isinstance(instr, Call):
            callee = self.module.functions.get(instr.callee)
            if callee is None:
                raise InterpreterError(f"call to undefined function @{instr.callee}")
            arg_values = [self._eval_value(a, frame) for a in instr.args]
            result = self._call(callee, arg_values, state, depth + 1)
            if instr.dest is not None:
                frame.env[instr.dest] = result
        else:
            raise InterpreterError(f"unknown instruction {instr}")

    # -- evaluation helpers --------------------------------------------------

    def _eval_value(self, value: Value, frame: _Frame) -> "int | Pointer":
        if isinstance(value, Const):
            return wrap(value.value)
        name = value.name
        if name in frame.env:
            return frame.env[name]
        raise InterpreterError(
            f"@{frame.function.name}: variable {name} is undefined at use"
        )

    def _eval_int(self, value: Value, frame: _Frame, what: str) -> int:
        result = self._eval_value(value, frame)
        if isinstance(result, Pointer):
            raise InterpreterError(f"{what} is a pointer, expected a word")
        return result

    def _eval_pointer(self, value: Var, frame: _Frame) -> Pointer:
        result = self._eval_value(value, frame)
        if not isinstance(result, Pointer):
            raise InterpreterError(
                f"@{frame.function.name}: {value.name} is not a pointer"
            )
        return result

    def _eval_expr(self, expr: Expr, frame: _Frame) -> "int | Pointer":
        if isinstance(expr, (Const, Var)):
            return self._eval_value(expr, frame)
        if isinstance(expr, UnaryExpr):
            operand = self._eval_value(expr.operand, frame)
            if isinstance(operand, Pointer):
                raise InterpreterError("unary operator applied to a pointer")
            return eval_unop(expr.op, operand)
        lhs = self._eval_value(expr.lhs, frame)
        rhs = self._eval_value(expr.rhs, frame)
        if isinstance(lhs, Pointer) or isinstance(rhs, Pointer):
            if expr.op in ("==", "!="):
                equal = lhs == rhs
                return int(equal) if expr.op == "==" else int(not equal)
            raise InterpreterError(
                f"arithmetic {expr.op!r} applied to a pointer"
            )
        return eval_binop(expr.op, lhs, rhs)

    # -- bookkeeping -----------------------------------------------------------

    def _step(self, state: "_RunState") -> None:
        state.steps += 1
        if state.steps > self.max_steps:
            raise StepLimitExceeded(
                f"exceeded {self.max_steps} steps; the program probably loops"
            )

    def _record_site(
        self, function: str, block: str, index: int, state: "_RunState"
    ) -> None:
        if state.trace is not None:
            state.trace.instructions.append(InstructionSite(function, block, index))
        if self.cache is not None:
            address = self._instr_addresses.get((function, block, index))
            if address is not None and not self.cache.instr_fetch(address):
                state.cycles += self.cost_model.cache_miss_penalty

    def _touch_data(
        self, pointer: Pointer, index: int, kind: str, state: "_RunState"
    ) -> None:
        address = state.memory.address_of(pointer, index)
        if state.trace is not None:
            region = state.memory.region_of(pointer)
            state.trace.memory.append(
                MemoryAccess(kind, region.name, index, address)
            )
        if self.cache is not None:
            if not self.cache.data_access(address, is_write=(kind == "store")):
                state.cycles += self.cost_model.cache_miss_penalty


@dataclass
class _RunState:
    memory: Memory
    global_pointers: dict[str, Pointer]
    trace: Optional[Trace]
    cycles: int = 0
    steps: int = 0

    def __post_init__(self) -> None:
        pass


def _layout_instructions(module: Module) -> dict[tuple[str, str, int], int]:
    """Assign a static 4-byte slot to every instruction (I-cache addresses)."""
    addresses: dict[tuple[str, str, int], int] = {}
    cursor = 0x40_0000
    for function in module.functions.values():
        for block in function.blocks.values():
            for index in range(len(block.instructions) + 1):
                addresses[(function.name, block.label, index)] = cursor
                cursor += 4
    return addresses
