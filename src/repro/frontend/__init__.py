"""MiniC: the C-like source language the benchmarks are written in."""

from repro.frontend.codegen import CodegenError, generate_module
from repro.frontend.lexer import MiniCSyntaxError, tokenize
from repro.frontend.parser import parse_source
from repro.frontend.unroll import UnrollError, const_eval
from repro.ir.module import Module
from repro.ir.validate import validate_module
from repro.obs import OBS


def compile_source(source: str, name: str = "module") -> Module:
    """Compile MiniC source text to a validated IR module.

    Every loop is fully unrolled during code generation, the shape the
    repair pass requires.  With tracing enabled (``REPRO_TRACE``), each
    stage — parse, SSA construction with unrolling (codegen), validation —
    is timed as a span.
    """
    with OBS.span("frontend.parse", module=name):
        program = parse_source(source)
    with OBS.span("frontend.codegen", module=name):
        module = generate_module(program, name)
    with OBS.span("frontend.validate", module=name):
        validate_module(module)
    return module


__all__ = [
    "CodegenError",
    "MiniCSyntaxError",
    "UnrollError",
    "compile_source",
    "const_eval",
    "generate_module",
    "parse_source",
    "tokenize",
]
