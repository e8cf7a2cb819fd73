"""MiniC → IR code generation with on-the-fly SSA construction.

Loops are fully unrolled as they are lowered: a ``for`` compiles its body
once per trip, reading the loop counter as that trip's literal value and
each local declared in the body under a fresh per-copy name
(``name.uN``, numbered per function in declaration order).  A statically
decided ``if`` compiles only its taken arm, and code after a ``return``
is not compiled at all, so loops in dead code are never unrolled or
checked.  The only control flow left is structured ``if``/``else``; SSA
form then falls out of a classic environment-merging scheme: each branch
is compiled against a copy of the scalar environment and the join block
receives one phi per scalar whose value differs between the branches.

Width semantics: ``u8``/``u32`` values are masked to their width after
widening arithmetic (``+ - * << ~`` and unary ``-``), on stores, and on
loads (callers may pass un-normalised array contents).  ``uint``/``int``
are full machine words.  Comparisons and logical operators yield 0/1 words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.frontend import ast_nodes as ast
from repro.frontend.lexer import MiniCSyntaxError
from repro.frontend.unroll import (
    MAX_STATEMENTS,
    MAX_TRIP_COUNT,
    Substitution,
    UnrollError,
    const_eval,
    trip_values,
)
from repro.ir.ops import eval_binop, eval_unop, wrap
from repro.ir.builder import IRBuilder
from repro.ir.function import Function, Param
from repro.ir.instructions import Phi
from repro.ir.module import GlobalArray, Module
from repro.ir.values import Const, Value, Var


class CodegenError(ValueError):
    """A semantic error in MiniC source."""


@dataclass(frozen=True)
class ScalarBinding:
    value: Value
    type_name: str


@dataclass(frozen=True)
class ArrayBinding:
    pointer: Var
    elem_type: str
    size: Optional[int]  # None for pointer parameters


Binding = Union[ScalarBinding, ArrayBinding]

#: Widths for masking; "lit" is the adaptive type of integer literals.
_WIDTH_ORDER = {"u8": 0, "u32": 1, "int": 2, "uint": 2}


def _combine_types(a: str, b: str) -> str:
    if a == "lit":
        return b if b != "lit" else "uint"
    if b == "lit":
        return a
    return a if _WIDTH_ORDER[a] >= _WIDTH_ORDER[b] else b


def _mask_for(type_name: str) -> Optional[int]:
    if type_name in ("uint", "int", "lit", "void"):
        return None
    return ast.mask_of(type_name)


@dataclass(frozen=True)
class FuncSig:
    name: str
    params: tuple[ast.ParamDecl, ...]
    return_type: str


class _FunctionCodegen:
    def __init__(
        self,
        module: Module,
        signatures: dict[str, FuncSig],
        func_def: ast.FuncDef,
        global_elem_types: dict[str, str],
    ) -> None:
        self.module = module
        self.signatures = signatures
        self.def_ = func_def
        params = [
            Param(p.name, "ptr" if p.is_pointer else "int")
            for p in func_def.params
        ]
        secret = tuple(p.name for p in func_def.params if p.secret)
        self.function = Function(func_def.name, params, sensitive_params=secret)
        self.builder = IRBuilder(self.function, name_prefix="t")
        self.globals_env: dict[str, ArrayBinding] = {
            g.name: ArrayBinding(Var(g.name), global_elem_types[g.name], g.size)
            for g in module.globals.values()
        }
        #: The current unrolled copy's loop counters and renamed locals.
        self.names: Substitution = {}
        self._renamed = 0  # per-function ``.uN`` counter
        self._emitted = 0  # statements compiled, against MAX_STATEMENTS

    # -- entry point ----------------------------------------------------------

    def compile(self) -> Function:
        entry = self.builder.new_block("entry")
        self.builder.position_at(entry)
        env: dict[str, Binding] = {}
        for param in self.def_.params:
            if param.is_pointer:
                env[param.name] = ArrayBinding(
                    Var(param.name), param.type_name, None
                )
            else:
                env[param.name] = ScalarBinding(Var(param.name), param.type_name)
        terminated = self._compile_statements(self.def_.body, env)
        if not terminated:
            self.builder.ret(0)
        return self.function

    # -- statements ---------------------------------------------------------------

    def _compile_statements(
        self, statements: tuple[ast.Statement, ...], env: dict[str, Binding]
    ) -> bool:
        """Compile into the current block; returns True if control returned."""
        for statement in statements:
            if self._compile_statement(statement, env):
                return True  # anything after a return is dead code
        return False

    def _compile_statement(
        self, statement: ast.Statement, env: dict[str, Binding]
    ) -> bool:
        if isinstance(statement, ast.For):
            return self._compile_for(statement, env)
        if isinstance(statement, ast.If):
            try:
                taken = const_eval(statement.cond, self.names) != 0
            except UnrollError:
                pass
            else:
                # Statically decided by the loop counters (common at unrolled
                # loop edges, e.g. the min() guards of the paper's Fig. 2).
                branch = statement.then_body if taken else statement.else_body
                return self._compile_statements(branch, env)

        self._emitted += 1
        if self._emitted > MAX_STATEMENTS:
            raise UnrollError(
                f"unrolling exceeded {MAX_STATEMENTS} statements; "
                "the loop structure is too large to isochronify"
            )

        if isinstance(statement, ast.Decl):
            name = self._rename(statement.name)
            self._check_fresh(name, env, statement.line)
            if statement.init is not None:
                value, value_type = self._compile_expr(statement.init, env)
                value = self._mask(value, statement.type_name)
            else:
                value = Const(0)
            env[name] = ScalarBinding(value, statement.type_name)
            return False

        if isinstance(statement, ast.ArrayDecl):
            name = self._rename(statement.name)
            self._check_fresh(name, env, statement.line)
            size = self._const(statement.size, statement.line, "array size")
            if size <= 0:
                raise CodegenError(
                    f"line {statement.line}: array '{name}' must have "
                    "positive size"
                )
            pointer = self.builder.alloc(Const(size), dest=self.builder.fresh(
                name
            ))
            if len(statement.init) > size:
                raise CodegenError(
                    f"line {statement.line}: too many initialisers for "
                    f"'{name}'"
                )
            for position, init_expr in enumerate(statement.init):
                value, _ = self._compile_expr(init_expr, env)
                value = self._mask(value, statement.elem_type)
                self.builder.store(value, pointer, Const(position))
            env[name] = ArrayBinding(pointer, statement.elem_type, size)
            return False

        if isinstance(statement, ast.Assign):
            if isinstance(self.names.get(statement.name), int):
                raise UnrollError(
                    f"line {statement.line}: assignment to loop counter "
                    f"'{statement.name}' inside the loop body"
                )
            name = self._rename(statement.name)
            binding = self._lookup(name, env, statement.line)
            if not isinstance(binding, ScalarBinding):
                raise CodegenError(
                    f"line {statement.line}: cannot assign to array '{name}'"
                )
            value, _ = self._compile_expr(statement.value, env)
            value = self._mask(value, binding.type_name)
            env[name] = ScalarBinding(value, binding.type_name)
            return False

        if isinstance(statement, ast.StoreStmt):
            array = self._rename(statement.array)
            binding = self._lookup(array, env, statement.line)
            if not isinstance(binding, ArrayBinding):
                raise CodegenError(
                    f"line {statement.line}: '{array}' is not an array"
                )
            index, _ = self._compile_expr(statement.index, env)
            value, _ = self._compile_expr(statement.value, env)
            value = self._mask(value, binding.elem_type)
            self.builder.store(value, binding.pointer, index)
            return False

        if isinstance(statement, ast.Return):
            value, _ = self._compile_expr(statement.value, env)
            value = self._mask(value, self.def_.return_type)
            self.builder.ret(value)
            return True

        if isinstance(statement, ast.ExprStmt):
            self._compile_expr(statement.expr, env, allow_void=True)
            return False

        if isinstance(statement, ast.If):
            return self._compile_if(statement, env)
        raise TypeError(f"unknown statement {statement!r}")

    def _compile_for(self, loop: ast.For, env: dict[str, Binding]) -> bool:
        """Unroll: compile the body once per trip into the current block.

        The header, the step and the trip limit are checked before the
        first copy is compiled.
        """
        try:
            start = const_eval(loop.init, self.names)
            bound = const_eval(loop.bound, self.names)
            step = const_eval(loop.step, self.names)
        except UnrollError as error:
            raise UnrollError(
                f"line {loop.line}: cannot unroll loop over '{loop.var}': {error}"
            ) from None
        if step == 0:
            raise UnrollError(
                f"line {loop.line}: loop over '{loop.var}' has a zero step"
            )
        # Locals declared in the body are fresh in every iteration (C block
        # scope): alpha-rename them per copy so SSA construction stays exact.
        body_locals = _declared_names(loop.body)
        if loop.var in body_locals:
            raise UnrollError(
                f"line {loop.line}: declaration of '{loop.var}' shadows the "
                "loop counter"
            )
        counters = trip_values(
            start, loop.cond_op, bound,
            step if loop.step_op == "+" else -step,
            lambda: UnrollError(
                f"line {loop.line}: loop over '{loop.var}' exceeds "
                f"{MAX_TRIP_COUNT} iterations"
            ),
        )
        outer = self.names
        returned = False
        for counter in counters:
            names = dict(outer)
            names[loop.var] = counter
            for local in body_locals:
                self._renamed += 1
                names[local] = f"{local}.u{self._renamed}"
            self.names = names
            if self._compile_statements(loop.body, env):
                returned = True  # later copies are dead code
                break
        self.names = outer
        return returned

    def _compile_if(self, statement: ast.If, env: dict[str, Binding]) -> bool:
        cond, _ = self._compile_expr(statement.cond, env)
        if isinstance(cond, Const):
            # Statically decided (common after unrolling): emit only the
            # taken branch, straight into the current block.
            branch = statement.then_body if cond.value != 0 else statement.else_body
            return self._compile_statements(branch, env)
        then_block = self.builder.new_block("if.then")
        else_block = self.builder.new_block("if.else")
        self.builder.br(cond, then_block.label, else_block.label)

        then_env = dict(env)
        self.builder.position_at(then_block)
        then_returned = self._compile_statements(statement.then_body, then_env)
        then_end = self.builder.block

        else_env = dict(env)
        self.builder.position_at(else_block)
        else_returned = self._compile_statements(statement.else_body, else_env)
        else_end = self.builder.block

        if then_returned and else_returned:
            return True

        join = self.builder.new_block("if.join")
        if not then_returned:
            self.builder.position_at(then_end)
            self.builder.jmp(join.label)
        if not else_returned:
            self.builder.position_at(else_end)
            self.builder.jmp(join.label)
        self.builder.position_at(join)

        if then_returned:
            self._absorb(env, else_env)
        elif else_returned:
            self._absorb(env, then_env)
        else:
            for name in list(env):
                then_binding = then_env[name]
                else_binding = else_env[name]
                if then_binding is else_binding:
                    continue  # untouched by both branches (shared object)
                if not isinstance(then_binding, ScalarBinding):
                    continue
                assert isinstance(else_binding, ScalarBinding)
                if then_binding.value == else_binding.value:
                    env[name] = then_binding
                    continue
                phi = Phi(
                    self.builder.fresh(name),
                    (
                        (then_binding.value, then_end.label),
                        (else_binding.value, else_end.label),
                    ),
                )
                join.append(phi)
                env[name] = ScalarBinding(Var(phi.dest), then_binding.type_name)
        return False

    @staticmethod
    def _absorb(env: dict[str, Binding], branch_env: dict[str, Binding]) -> None:
        """One branch returned: the survivor's bindings win."""
        for name in env:
            env[name] = branch_env[name]

    # -- expressions --------------------------------------------------------------

    def _compile_expr(
        self,
        expr: ast.Expression,
        env: dict[str, Binding],
        allow_void: bool = False,
    ) -> tuple[Value, str]:
        if isinstance(expr, ast.Num):
            return Const(expr.value), "lit"

        if isinstance(expr, ast.Name):
            target = self.names.get(expr.ident, expr.ident)
            if isinstance(target, int):  # a loop counter
                return Const(target), "lit"
            binding = self._lookup(target, env, expr.line)
            if isinstance(binding, ArrayBinding):
                raise CodegenError(
                    f"line {expr.line}: array '{target}' used as a scalar"
                )
            return binding.value, binding.type_name

        if isinstance(expr, ast.Unary):
            operand, operand_type = self._compile_expr(expr.operand, env)
            if isinstance(operand, Const):  # fold without emitting
                folded = Const(eval_unop(expr.op, wrap(operand.value)))
                if expr.op == "!":
                    return folded, "uint"
                result_type = "uint" if operand_type == "lit" else operand_type
                return self._mask(folded, result_type), result_type
            result = self.builder.unop(expr.op, operand)
            if expr.op == "!":
                return result, "uint"
            result_type = "uint" if operand_type == "lit" else operand_type
            return self._mask(result, result_type), result_type

        if isinstance(expr, ast.Binary):
            return self._compile_binary(expr, env)

        if isinstance(expr, ast.Ternary):
            cond, _ = self._compile_expr(expr.cond, env)
            true_value, true_type = self._compile_expr(expr.if_true, env)
            false_value, false_type = self._compile_expr(expr.if_false, env)
            result_type = _combine_types(true_type, false_type)
            if isinstance(cond, Const):  # statically decided select
                chosen = true_value if cond.value != 0 else false_value
                return chosen, result_type
            return self.builder.ctsel(cond, true_value, false_value), result_type

        if isinstance(expr, ast.Index):
            array = self._rename(expr.array)
            binding = self._lookup(array, env, expr.line)
            if not isinstance(binding, ArrayBinding):
                raise CodegenError(
                    f"line {expr.line}: '{array}' is not an array"
                )
            index, _ = self._compile_expr(expr.index, env)
            loaded = self.builder.load(binding.pointer, index)
            return self._mask(loaded, binding.elem_type), binding.elem_type

        if isinstance(expr, ast.CallExpr):
            return self._compile_call(expr, env, allow_void)

        if isinstance(expr, ast.Cast):
            value, _ = self._compile_expr(expr.operand, env)
            return self._mask(value, expr.type_name), expr.type_name

        raise TypeError(f"unknown expression {expr!r}")

    def _compile_binary(
        self, expr: ast.Binary, env: dict[str, Binding]
    ) -> tuple[Value, str]:
        if expr.op in ("&&", "||"):
            # Branch-free logical operators (no short-circuit; see module doc).
            lhs, _ = self._compile_expr(expr.lhs, env)
            rhs, _ = self._compile_expr(expr.rhs, env)
            lhs_bool = self.builder.binop("!=", lhs, Const(0))
            rhs_bool = self.builder.binop("!=", rhs, Const(0))
            op = "&" if expr.op == "&&" else "|"
            return self.builder.binop(op, lhs_bool, rhs_bool), "uint"

        lhs, lhs_type = self._compile_expr(expr.lhs, env)
        rhs, rhs_type = self._compile_expr(expr.rhs, env)

        def emit(op: str, left: Value, right: Value) -> Value:
            # Fold constant operations at compile time: after loop unrolling
            # most index arithmetic is constant, and folding it keeps the
            # unrolled program compact and its static `if`s decidable.
            if isinstance(left, Const) and isinstance(right, Const):
                return Const(eval_binop(op, wrap(left.value), wrap(right.value)))
            return self.builder.binop(op, left, right)

        if expr.op in ("==", "!=", "<", "<=", ">", ">="):
            return emit(expr.op, lhs, rhs), "uint"

        if expr.op in ("<<", ">>"):
            result_type = "uint" if lhs_type == "lit" else lhs_type
            result = emit(expr.op, lhs, rhs)
            if expr.op == "<<":
                result = self._mask(result, result_type)
            return result, result_type

        result_type = _combine_types(lhs_type, rhs_type)
        mask = _mask_for(result_type)
        if mask is not None and expr.op in ("&", "|", "^"):
            # Bitwise results stay in range when operands do; only literals
            # can leak high bits, so normalise them at compile time.
            lhs = self._fold_mask(lhs, mask)
            rhs = self._fold_mask(rhs, mask)
        result = emit(expr.op, lhs, rhs)
        if expr.op in ("+", "-", "*"):
            result = self._mask(result, result_type)
        return result, result_type

    def _compile_call(
        self, expr: ast.CallExpr, env: dict[str, Binding], allow_void: bool
    ) -> tuple[Value, str]:
        signature = self.signatures.get(expr.callee)
        if signature is None:
            raise CodegenError(
                f"line {expr.line}: call to undefined function '{expr.callee}'"
            )
        if len(expr.args) != len(signature.params):
            raise CodegenError(
                f"line {expr.line}: '{expr.callee}' expects "
                f"{len(signature.params)} arguments, got {len(expr.args)}"
            )
        args: list[Value] = []
        for param, arg in zip(signature.params, expr.args):
            if param.is_pointer:
                array = (
                    self.names.get(arg.ident, arg.ident)
                    if isinstance(arg, ast.Name) else None
                )
                if not isinstance(array, str):  # not a name, or a counter
                    raise CodegenError(
                        f"line {expr.line}: pointer argument "
                        f"'{param.name}' must be an array name"
                    )
                binding = self._lookup(array, env, expr.line)
                if not isinstance(binding, ArrayBinding):
                    raise CodegenError(
                        f"line {expr.line}: '{array}' is not an array"
                    )
                args.append(binding.pointer)
            else:
                value, _ = self._compile_expr(arg, env)
                args.append(self._mask(value, param.type_name))
        if signature.return_type == "void":
            if not allow_void:
                raise CodegenError(
                    f"line {expr.line}: void function '{expr.callee}' used "
                    "in an expression"
                )
            self.builder.call_void(expr.callee, args)
            return Const(0), "uint"
        result = self.builder.call(expr.callee, args)
        assert result is not None
        return result, signature.return_type

    # -- helpers -----------------------------------------------------------------

    def _mask(self, value: Value, type_name: str) -> Value:
        mask = _mask_for(type_name)
        if mask is None:
            return value
        return self._fold_mask(value, mask)

    def _fold_mask(self, value: Value, mask: int) -> Value:
        if isinstance(value, Const):
            return Const(value.value & mask)
        return self.builder.binop("&", value, Const(mask))

    def _const(self, expr: ast.Expression, line: int, what: str) -> int:
        try:
            return const_eval(expr, self.names)
        except Exception as error:
            raise CodegenError(f"line {line}: {what}: {error}") from None

    def _rename(self, name: str) -> str:
        """The name a variable has in the current unrolled copy."""
        target = self.names.get(name, name)
        if isinstance(target, int):
            raise UnrollError(
                f"loop counter '{name}' used where a variable name is required"
            )
        return target

    def _lookup(
        self, name: str, env: dict[str, Binding], line: int
    ) -> Binding:
        if name in env:
            return env[name]
        if name in self.globals_env:
            return self.globals_env[name]
        raise CodegenError(f"line {line}: undefined variable '{name}'")

    def _check_fresh(
        self, name: str, env: dict[str, Binding], line: int
    ) -> None:
        if name in env or name in self.globals_env:
            raise CodegenError(f"line {line}: redefinition of '{name}'")


def _declared_names(statements: tuple[ast.Statement, ...]) -> dict[str, None]:
    """Names declared anywhere in a statement list, in declaration order."""
    declared: dict[str, None] = {}
    for statement in statements:
        if isinstance(statement, (ast.Decl, ast.ArrayDecl)):
            declared[statement.name] = None
        elif isinstance(statement, ast.If):
            declared |= _declared_names(statement.then_body)
            declared |= _declared_names(statement.else_body)
        elif isinstance(statement, ast.For):
            declared |= _declared_names(statement.body)
    return declared


def generate_module(program: ast.Program, name: str = "module") -> Module:
    """Lower a MiniC program to an IR module, unrolling every loop."""
    module = Module(name)
    global_elem_types: dict[str, str] = {}
    for global_decl in program.globals:
        size = const_eval(global_decl.size)
        if size <= 0:
            raise CodegenError(
                f"line {global_decl.line}: global '{global_decl.name}' must "
                "have positive size"
            )
        mask = _mask_for(global_decl.elem_type)
        init = tuple(
            const_eval(v) & mask if mask is not None else const_eval(v)
            for v in global_decl.init
        )
        module.add_global(
            GlobalArray(global_decl.name, size, init, global_decl.const)
        )
        global_elem_types[global_decl.name] = global_decl.elem_type

    signatures = {
        f.name: FuncSig(f.name, f.params, f.return_type)
        for f in program.functions
    }
    if len(signatures) != len(program.functions):
        raise CodegenError("duplicate function definition")

    for func_def in program.functions:
        module.add_function(
            _FunctionCodegen(
                module, signatures, func_def, global_elem_types
            ).compile()
        )
    return module
