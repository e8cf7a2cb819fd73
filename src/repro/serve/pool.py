"""The warm worker pool: pinned caches, periodic recycling.

Workers are long-lived processes that keep the identity-keyed executor
caches (compile and SoA, both keyed on live module objects) and
the :mod:`repro.serve.jobs` warm-module memo populated *across* jobs,
which is where the serve layer's throughput over per-request process
startup comes from.  Two memory-bounding disciplines apply:

* every warm cache is a bounded LRU (``REPRO_SERVE_WARM`` modules per
  worker; the executor caches honour ``REPRO_EXEC_CACHE_SIZE``);
* workers are **recycled** after ``REPRO_SERVE_RECYCLE`` jobs: the pool
  uses ``ProcessPoolExecutor(max_tasks_per_child=N)``, which retires a
  worker process after N jobs and spawns a fresh one, so a pathological
  tenant can never grow a worker's heap without bound.  Recycling
  implies the ``spawn`` start method; the one-time interpreter+import
  cost per recycled worker is exactly what the warm pool amortises.

``workers=0`` selects the in-process thread bridge (a
``ThreadPoolExecutor``): no fork/spawn, shared caches, used by unit
tests and platforms without multiprocessing.  Event streaming in thread
mode carries the server's lifecycle events only (the global ``repro.obs``
collector belongs to the server process and is not retargeted per job).
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Optional

from repro.serve.faults import apply_worker_fault
from repro.serve.jobs import canonical_result_bytes, execute_job
from repro.serve.protocol import JobSpec

WORKERS_ENV_VAR = "REPRO_SERVE_WORKERS"
RECYCLE_ENV_VAR = "REPRO_SERVE_RECYCLE"
DEFAULT_RECYCLE = 200


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    try:
        return int(raw) if raw else default
    except ValueError:
        return default


def resolve_workers(workers: Optional[int] = None) -> int:
    """Worker count: explicit, then ``REPRO_SERVE_WORKERS``, then cpu."""
    if workers is None:
        workers = _env_int(WORKERS_ENV_VAR, -1)
        if workers < 0:
            workers = os.cpu_count() or 1
    return max(0, workers)


def _worker_init() -> None:
    """Pre-import the pipeline so a recycled worker's first job is warm."""
    import repro.core.repair  # noqa: F401
    import repro.exec  # noqa: F401
    import repro.frontend  # noqa: F401
    import repro.opt.pipeline  # noqa: F401
    import repro.statics.certifier  # noqa: F401
    import repro.verify  # noqa: F401


def _process_job(payload: dict, events_path: Optional[str],
                 fault: Optional[str] = None):
    """Run one job in a pool process; returns (result bytes, obs delta).

    The worker's collector is retargeted at the job's JSONL event file,
    so every ``repro.obs`` span/event of the run streams to the client
    tailing ``GET /v1/jobs/<id>/events``; counters ride back as a
    snapshot for the parent-side merge, same discipline as the parallel
    build fan-out.  ``fault`` is an injected-failure token from the
    server's :class:`repro.serve.faults.FaultPlan` (None in production).
    """
    from repro.obs import OBS, configure

    apply_worker_fault(fault, process_mode=True)
    configure(enabled=True, trace_file=events_path)
    spec = JobSpec.from_payload(payload)
    result = execute_job(spec)
    blob = canonical_result_bytes(result)
    snapshot = OBS.snapshot()
    OBS.close()
    return blob, snapshot


def _thread_job(payload: dict, events_path: Optional[str],
                fault: Optional[str] = None):
    apply_worker_fault(fault, process_mode=False)
    spec = JobSpec.from_payload(payload)
    result = execute_job(spec)
    return canonical_result_bytes(result), None


class WarmPool:
    """The executor bridge the server dispatches jobs through."""

    def __init__(
        self,
        workers: Optional[int] = None,
        recycle: Optional[int] = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        self.recycle = (
            _env_int(RECYCLE_ENV_VAR, DEFAULT_RECYCLE)
            if recycle is None
            else recycle
        )
        self.rebuilds = 0
        if self.workers == 0:
            self.mode = "thread"
            self.slots = 1
            self._job = _thread_job
        else:
            self.mode = "process"
            self.slots = self.workers
            self._job = _process_job
        self._executor = self._make_executor()

    def _make_executor(self):
        if self.mode == "thread":
            return ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="serve-worker"
            )
        kwargs: dict = {"initializer": _worker_init}
        if self.recycle > 0:
            # max_tasks_per_child implies the spawn start method.
            kwargs["max_tasks_per_child"] = self.recycle
        return ProcessPoolExecutor(max_workers=self.workers, **kwargs)

    def submit(self, payload: dict, events_path: Optional[str],
               fault: Optional[str] = None) -> Future:
        """Dispatch one validated job payload; future of (bytes, snapshot).

        The fault token is only threaded through when one is planned, so
        the production path keeps the two-argument job signature (which
        tests are free to wrap).
        """
        if fault is None:
            return self._executor.submit(self._job, payload, events_path)
        return self._executor.submit(self._job, payload, events_path, fault)

    def rebuild(self) -> bool:
        """Replace a broken process executor; True when a swap happened.

        A worker process dying (crashed, OOM-killed, fault-injected)
        marks the whole ``ProcessPoolExecutor`` broken; the server calls
        this to swap in a fresh pool and re-dispatch.  A healthy pool is
        left alone, so concurrent dispatchers reacting to the same break
        rebuild once.
        """
        if self.mode != "process":
            return False
        if not getattr(self._executor, "_broken", False):
            return False
        self._executor.shutdown(wait=False)
        self._executor = self._make_executor()
        self.rebuilds += 1
        return True

    def stats(self) -> dict:
        return {
            "mode": self.mode,
            "workers": self.workers,
            "recycle_after_jobs": self.recycle if self.mode == "process" else 0,
            "rebuilds": self.rebuilds,
        }

    def shutdown(self, wait: bool = True) -> None:
        self._executor.shutdown(wait=wait)
