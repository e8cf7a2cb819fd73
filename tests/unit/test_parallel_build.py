"""Tests for the process-pool fan-out (satellite: cross-process determinism)."""

import os
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

from repro.artifacts import ArtifactStore, build_many, resolve_jobs
from repro.artifacts.parallel import _worker
from repro.bench.runner import build_request, build_suite, clear_artifact_memo
from repro.bench.suite import get_benchmark

_NAMES = ["otdt", "ofdf", "tea"]


def _requests(names=_NAMES):
    return [build_request(get_benchmark(name)) for name in names]


class TestResolveJobs:
    def test_explicit_argument_wins(self):
        with mock.patch.dict(os.environ, {"REPRO_JOBS": "7"}):
            assert resolve_jobs(3) == 3

    def test_env_fallback(self):
        with mock.patch.dict(os.environ, {"REPRO_JOBS": "7"}):
            assert resolve_jobs() == 7

    def test_cpu_count_default(self):
        with mock.patch.dict(os.environ, clear=False) as env:
            env.pop("REPRO_JOBS", None)
            assert resolve_jobs() == max(1, os.cpu_count() or 1)

    def test_floor_of_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1


class TestBuildMany:
    def test_results_in_request_order(self, tmp_path):
        store = ArtifactStore(tmp_path)
        results = build_many(_requests(), jobs=2, store=store)
        assert [built.name for built in results] == _NAMES

    def test_parallel_matches_serial_byte_for_byte(self):
        serial = build_many(_requests(), jobs=1, store=None)
        parallel = build_many(_requests(), jobs=2, store=None)
        for a, b in zip(serial, parallel):
            assert a.ir == b.ir
            assert a.repair_stats == b.repair_stats
            assert a.sce_correct == b.sce_correct

    def test_workers_populate_the_shared_store(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cold = build_many(_requests(), jobs=2, store=store)
        assert all(not built.cache_hit for built in cold)
        warm = build_many(_requests(), jobs=2, store=store)
        assert all(built.cache_hit for built in warm)
        assert [w.ir for w in warm] == [c.ir for c in cold]


class TestCrossProcessDeterminism:
    def test_two_worker_processes_build_identical_artifacts(self):
        """Satellite: byte-identical IR + identical stats across processes."""
        request = _requests(["otdt"])[0]
        results = []
        for _ in range(2):
            # A fresh single-worker pool per build: each build runs in its
            # own OS process with its own hash seed and iteration state.
            with ProcessPoolExecutor(max_workers=1) as pool:
                built, _snapshot = pool.submit(_worker, request, None).result()
                results.append(built)
        first, second = results
        assert first.ir == second.ir
        assert first.module_names == second.module_names
        assert first.repair_stats == second.repair_stats
        assert first.sce_stats == second.sce_stats
        assert first.sce_correct == second.sce_correct
        assert first.key == second.key

    def test_check_inputs_stable_across_processes(self):
        """make_inputs must not depend on the per-process str hash salt."""
        bench = get_benchmark("loki91")
        with ProcessPoolExecutor(max_workers=1) as pool:
            remote = pool.submit(bench.make_inputs, 4).result()
        assert remote == bench.make_inputs(4)


class TestBuildSuiteWrapper:
    def test_build_suite_returns_wrapped_artifacts(self, tmp_path):
        store = ArtifactStore(tmp_path)
        artifacts = build_suite(_NAMES, jobs=2, store=store)
        assert [entry.bench.name for entry in artifacts] == _NAMES
        assert artifacts[0].repaired.instruction_count() > 0
        assert artifacts[1].sce_outcome == "incorrect"

    def test_build_suite_seeds_the_memo(self, tmp_path):
        from repro.bench.runner import _MEMO, get_artifacts

        clear_artifact_memo()
        try:
            store = ArtifactStore(tmp_path)
            artifacts = build_suite(["otdt"], jobs=1, store=store)
            assert get_artifacts("otdt") is artifacts[0]
        finally:
            clear_artifact_memo()
