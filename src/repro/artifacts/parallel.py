"""Process-pool fan-out for building many benchmarks at once."""

from __future__ import annotations

import gc
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from typing import Iterable, Optional

from repro.artifacts.build import BuildRequest, BuiltArtifacts, build_artifacts
from repro.artifacts.store import ArtifactStore
from repro.obs import OBS, env_int

JOBS_ENV_VAR = "REPRO_JOBS"


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit argument, then ``REPRO_JOBS``, then cpu_count."""
    if jobs is None:
        jobs = env_int(JOBS_ENV_VAR, os.cpu_count() or 1, 1)
    return max(1, jobs)


def _worker(request: BuildRequest, cache_root: Optional[str]):
    # Forked workers inherit the parent collector's state (and keep their
    # own across pool task reuse); reset so the snapshot shipped back is
    # exactly this task's delta and the parent-side merge never double
    # counts.
    OBS.reset()
    store = ArtifactStore(cache_root) if cache_root is not None else None
    built = build_artifacts(request, store=store)
    if store is not None and built.ir and store.has(built.key):
        # The IR is already on disk; don't ship megabytes of text back
        # through the result pipe — the parent rehydrates from the store.
        built = replace(built, ir={})
    # The worker's metrics ride back with the result so the parent can fold
    # them into its own collector (None whenever tracing is off).
    return built, OBS.snapshot()


def build_many(
    requests: Iterable[BuildRequest],
    jobs: Optional[int] = None,
    store: Optional[ArtifactStore] = None,
) -> list[BuiltArtifacts]:
    """Build every request, fanning out across processes.

    Results are merged back in request order regardless of completion
    order, so downstream reports are deterministic; each worker talks to
    the same content-addressed store, so the fan-out is also restartable.
    """
    requests = list(requests)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(requests) <= 1:
        return [build_artifacts(request, store=store) for request in requests]

    # Workers are forked; trimming the parent heap first keeps their
    # copy-on-write footprint (and fault rate) down.
    gc.collect()
    cache_root = str(store.root) if store is not None else None
    # Longest-source-first scheduling: the big unrolled programs dominate
    # the makespan, so start them before the small ones.
    order = sorted(range(len(requests)), key=lambda i: -len(requests[i].source))
    results: list = [None] * len(requests)
    with ProcessPoolExecutor(max_workers=min(jobs, len(requests))) as pool:
        futures = [(i, pool.submit(_worker, requests[i], cache_root)) for i in order]
        for i, future in futures:
            built, snapshot = future.result()
            OBS.merge(snapshot)
            if not built.ir and store is not None:
                rehydrated = store.load(built.key, observe=False)
                if rehydrated is not None:
                    rehydrated.cache_hit = built.cache_hit
                    built = rehydrated
            results[i] = built
    return results
