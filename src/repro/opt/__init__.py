"""Optimisation passes (the ``opt -O1`` stand-in)."""

from repro.opt.dce import eliminate_dead_code
from repro.opt.pipeline import OptReport, optimize, optimize_function
from repro.opt.sanitize import (
    SANITIZE_ENV_VAR,
    LeakFingerprint,
    LeakSanitizerError,
    sanitize_enabled,
)
from repro.opt.simplify import simplify_ssa
from repro.opt.simplifycfg import simplify_cfg

__all__ = [
    "LeakFingerprint", "LeakSanitizerError", "OptReport", "SANITIZE_ENV_VAR",
    "eliminate_dead_code", "optimize", "optimize_function",
    "sanitize_enabled", "simplify_cfg", "simplify_ssa",
]
