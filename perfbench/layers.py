"""Per-layer timing from outside the program.

A traced run wraps the public entry points of each layer (module-level
functions and executor methods of ``repro``) with a timer and attributes
*self* time: a call's wall time minus the time spent in nested timed
calls.  Nothing inside ``src/repro`` changes; the wrappers are installed
for a traced unit of work and removed afterwards, so untraced units run
the unmodified program.

Function hooks patch every module-level binding of the function across
loaded ``repro`` modules (``from x import f`` copies the reference), so a
call is timed whichever module it goes through.  Every traced section
runs in the benchmark's own process.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable

#: (module, attribute, layer).  ``Class.method`` attributes patch the
#: class; plain attributes patch every binding of the function object.
HOOKS = (
    ("repro.frontend.parser", "parse_source", "frontend.parse"),
    ("repro.frontend.unroll", "unroll_program", "frontend.unroll"),
    ("repro.frontend.codegen", "generate_module", "frontend.codegen"),
    ("repro.ir.validate", "validate_module", "ir.validate"),
    ("repro.core.repair", "repair_module", "core.repair"),
    ("repro.baseline.sc_eliminator", "sc_eliminate", "baseline.sce"),
    ("repro.artifacts.build", "outputs_match", "baseline.check"),
    ("repro.opt.pipeline", "optimize", "opt.optimize"),
    ("repro.statics.certifier", "analyze_module_taint", "statics.taint"),
    ("repro.statics.certifier", "_report_from_taint", "statics.time"),
    ("repro.statics.abscache", "analyze_cache", "statics.cache"),
    ("repro.statics.power", "analyze_power", "statics.power"),
    ("repro.ir.printer", "module_to_str", "ir.print"),
    ("repro.ir.parser", "parse_module", "ir.parse"),
    ("repro.artifacts.store", "ArtifactStore.save", "artifacts.save"),
    ("repro.artifacts.store", "ArtifactStore.load", "artifacts.load"),
    ("repro.exec.compiled", "compile_ir_module", "exec.compiled.lower"),
    ("repro.exec.compiled", "CompiledExecutor.run", "exec.compiled.run"),
    ("repro.exec.interpreter", "Interpreter.run", "exec.interp.run"),
    ("repro.exec.batch", "_compile_batch_function", "exec.batch.lower"),
    ("repro.exec.batch", "_build_trace_program", "exec.batch.lower"),
    ("repro.exec.batch", "BatchExecutor.run_batch", "exec.batch.run"),
    ("repro.verify.covenant", "check_covenant", "verify.covenant"),
    ("repro.verify.isochronicity", "compare_semantics", "verify.semantics"),
    ("repro.verify.isochronicity", "check_invariance", "verify.invariance"),
    ("repro.analysis.data_consistency", "classify_data_consistency",
     "verify.consistency"),
    ("repro.verify.isochronicity", "check_cache_invariance", "verify.cache"),
    ("repro.verify.dudect", "dudect_test", "verify.dudect"),
    ("repro.fuzz.generators", "generate_program", "fuzz.generate"),
    ("repro.fuzz.generators", "random_ir_module", "fuzz.generate"),
    ("repro.fuzz.mutate", "mutate_spec", "fuzz.mutate"),
    ("repro.fuzz.mutate", "mutate_ir", "fuzz.mutate"),
    ("repro.fuzz.oracles", "compile_sample", "fuzz.compile"),
    ("repro.fuzz.oracles", "run_oracles", "fuzz.oracles"),
    ("repro.fuzz.minimize", "minimize_spec", "fuzz.minimize"),
)

class LayerClock:
    """Self seconds per layer, plus batch lane counts."""

    def __init__(self) -> None:
        self.seconds: dict = defaultdict(float)
        self.lanes = 0
        self.unique_lanes = 0
        self._stack: list = []
        self._patches: list = []
        self._cache_checks = 0

    # -- recording -----------------------------------------------------------

    def _timed(self, original: Callable, layer) -> Callable:
        clock = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            name = layer() if callable(layer) else layer
            frame = [0.0]
            clock._stack.append(frame)
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                clock._stack.pop()
                clock.seconds[name] += elapsed - frame[0]
                if clock._stack:
                    clock._stack[-1][0] += elapsed

        return timed

    def _cache_layer(self) -> str:
        # check_covenant runs the cache check on the repaired module, then
        # on the O1 variant; the order tells the two apart.
        self._cache_checks += 1
        return "verify.cache" if self._cache_checks == 1 else "verify.cache_o1"

    def _covenant_layer(self) -> str:
        self._cache_checks = 0
        return "verify.covenant"

    def _count_lanes(self, original: Callable) -> Callable:
        clock = self

        @functools.wraps(original)
        def counted(executor, name, vectors):
            keys = {
                tuple(tuple(a) if isinstance(a, list) else a for a in v)
                for v in vectors
            }
            clock.lanes += len(vectors)
            clock.unique_lanes += len(keys)
            return original(executor, name, vectors)

        return counted

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, layer in HOOKS:
            module = importlib.import_module(module_name)
            if layer == "verify.cache":
                layer = self._cache_layer
            elif layer == "verify.covenant":
                layer = self._covenant_layer
            if "." in attr:
                class_name, method = attr.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                wrapped = self._timed(original, layer)
                if attr == "BatchExecutor.run_batch":
                    wrapped = self._count_lanes(wrapped)
                self._patch(owner, method, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._timed(original, layer)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro"):
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            self._patch(loaded, key, wrapped)

    @contextlib.contextmanager
    def tracing(self, active: bool):
        """Install the wrappers for the body when ``active``."""
        if not active:
            yield
            return
        self.reset()
        self.install()
        try:
            yield
        finally:
            self.restore()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation ---------------------------------------------------------

    def reset(self) -> None:
        self.seconds.clear()
        self.lanes = self.unique_lanes = 0

    def snapshot(self) -> dict:
        """Per-layer self seconds under the benchmark's metric names."""
        values = {f"{layer}_s": seconds for layer, seconds in self.seconds.items()}
        if self.lanes:
            values["exec.batch.unique_lane_frac"] = self.unique_lanes / self.lanes
        return values

    def attributed_s(self) -> float:
        return sum(self.seconds.values())
