"""Execution substrate: memory model, interpreter, compiled backend, costs."""

from repro.exec.backend import (
    BACKEND_ENV_VAR,
    BACKENDS,
    default_backend,
    make_executor,
    resolve_backend,
    run_many,
)
from repro.exec.batch import (
    BATCH_SIZE_ENV_VAR,
    DEFAULT_BATCH_SIZE,
    BatchExecutor,
    batch_cache_stats,
    clear_batch_caches,
)
from repro.exec.compiled import (
    EXEC_CACHE_SIZE_ENV_VAR,
    CompiledExecutor,
    CompiledModule,
    clear_compile_cache,
    compile_cache_stats,
    compile_ir_module,
    exec_cache_limit,
    get_compiled,
)
from repro.exec.costs import DEFAULT_COST_MODEL, CostModel
from repro.exec.interpreter import (
    ExecutionResult,
    Interpreter,
    InterpreterError,
    StepLimitExceeded,
)
from repro.exec.pipeline_model import (
    BranchPredictor,
    PipelineConfig,
    PipelineModel,
    PipelineReport,
)
from repro.exec.memory import (
    AccessViolation,
    Memory,
    MemorySafetyViolation,
    Pointer,
    Region,
)
from repro.exec.traces import (
    InstructionSite,
    MemoryAccess,
    Trace,
    traces_data_consistent,
    traces_data_invariant,
    traces_operation_invariant,
)

def executor_cache_stats() -> dict:
    """One dict over every identity-keyed executor cache.

    The serve layer's ``/v1/stats`` endpoint and the warm-pool diagnostics
    read this to show what a long-running process has pinned; each entry
    carries hit/miss/eviction counters plus the live entry count, all
    bounded by ``REPRO_EXEC_CACHE_SIZE``.
    """
    return {
        "limit": exec_cache_limit(),
        "compile": compile_cache_stats(),
        "batch": batch_cache_stats(),
    }


__all__ = [
    "AccessViolation", "BACKENDS", "BACKEND_ENV_VAR", "BATCH_SIZE_ENV_VAR",
    "BatchExecutor", "BranchPredictor", "CompiledExecutor", "CompiledModule",
    "CostModel", "DEFAULT_BATCH_SIZE", "DEFAULT_COST_MODEL",
    "ExecutionResult", "InstructionSite", "Interpreter", "InterpreterError",
    "Memory", "MemoryAccess", "MemorySafetyViolation", "PipelineConfig",
    "PipelineModel", "PipelineReport", "Pointer", "Region",
    "StepLimitExceeded", "Trace",
    "EXEC_CACHE_SIZE_ENV_VAR", "batch_cache_stats", "clear_batch_caches",
    "clear_compile_cache", "compile_cache_stats", "compile_ir_module",
    "default_backend", "exec_cache_limit", "executor_cache_stats",
    "get_compiled", "make_executor", "resolve_backend",
    "run_many", "traces_data_consistent",
    "traces_data_invariant", "traces_operation_invariant",
]
