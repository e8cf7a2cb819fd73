"""Unit tests for the content-addressed artifact subsystem."""

import json

import pytest

from repro.artifacts import (
    ArtifactStore,
    BuildRequest,
    build_artifacts,
    cache_key,
    pipeline_version,
)
from repro.bench.runner import build_request
from repro.bench.suite import get_benchmark


def _request(name: str) -> BuildRequest:
    return build_request(get_benchmark(name))


class TestKeys:
    def test_pipeline_version_is_stable(self):
        assert pipeline_version() == pipeline_version()
        assert len(pipeline_version()) == 16

    def test_key_is_stable(self):
        request = _request("otdt")
        assert request.key() == request.key()

    def test_key_depends_on_source(self):
        base = cache_key("int f() { return 1; }", {"entry": "f"})
        other = cache_key("int f() { return 2; }", {"entry": "f"})
        assert base != other

    def test_key_depends_on_options(self):
        source = "int f() { return 1; }"
        assert cache_key(source, {"budget": 1}) != cache_key(source, {"budget": 2})

    def test_requests_for_different_benchmarks_differ(self):
        assert _request("otdt").key() != _request("ofdf").key()


class TestStore:
    def test_missing_key_is_none(self, tmp_path):
        assert ArtifactStore(tmp_path).load("ab" * 32) is None

    def test_save_load_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        built = build_artifacts(_request("otdt"), store=store)
        assert not built.cache_hit
        loaded = store.load(built.key)
        assert loaded is not None
        assert loaded.cache_hit
        assert loaded.ir == built.ir
        assert loaded.module_names == built.module_names
        assert loaded.repair_stats == json.loads(json.dumps(built.repair_stats))
        assert loaded.sce_correct == built.sce_correct

    def test_corrupt_meta_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        built = build_artifacts(_request("otdt"), store=store)
        meta = store._entry_dir(built.key) / "meta.json"
        meta.write_text("{not json")
        assert store.load(built.key) is None
        # ...and a rebuild repopulates the entry.
        rebuilt = build_artifacts(_request("otdt"), store=store)
        assert not rebuilt.cache_hit
        assert store.load(built.key) is not None

    def test_known_keys(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.known_keys() == []
        built = build_artifacts(_request("otdt"), store=store)
        assert store.known_keys() == [built.key]


class TestBuild:
    def test_warm_build_is_a_byte_identical_hit(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cold = build_artifacts(_request("otdt"), store=store)
        warm = build_artifacts(_request("otdt"), store=store)
        assert not cold.cache_hit
        assert warm.cache_hit
        assert warm.ir == cold.ir

    def test_unsupported_sce_round_trips(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cold = build_artifacts(_request("ctbench_modexp"), store=store)
        warm = build_artifacts(_request("ctbench_modexp"), store=store)
        assert warm.cache_hit
        assert "sce" not in warm.ir
        assert warm.sce_stats is None
        assert "budget" in warm.sce_error

    def test_stage_timings_recorded(self):
        built = build_artifacts(_request("otdt"), store=None)
        for stage in ("parse", "unroll", "codegen", "repair", "sce", "opt", "print"):
            assert stage in built.timings, stage
            assert built.timings[stage] >= 0.0

    def test_secret_params_survive_the_round_trip(self, tmp_path):
        from repro.artifacts import parse_variant
        from repro.frontend import compile_source

        store = ArtifactStore(tmp_path)
        bench = get_benchmark("otdt")
        built = build_artifacts(_request("otdt"), store=store)
        warm = build_artifacts(_request("otdt"), store=store)
        fresh = compile_source(bench.source(), name=bench.name)
        for module in (fresh, parse_variant(warm, "original")):
            function = module.function(bench.entry)
            assert function.sensitive_params == fresh.function(
                bench.entry
            ).sensitive_params


class TestSharedStatements:
    """``parse_variant`` parses each distinct line once per record."""

    def test_variants_print_like_a_plain_parse(self, tmp_path):
        from repro.artifacts import parse_variant
        from repro.ir import module_to_str, parse_module

        store = ArtifactStore(tmp_path)
        build_artifacts(_request("tea"), store=store)
        warm = build_artifacts(_request("tea"), store=store)
        assert len(warm.ir) == 6
        for variant, text in warm.ir.items():
            module = parse_variant(warm, variant)
            plain = parse_module(text, name=warm.module_names[variant])
            assert module.name == plain.name
            assert module_to_str(module) == module_to_str(plain) == text

    def test_later_variants_reuse_earlier_statements(self):
        from repro.artifacts import parse_variant

        built = build_artifacts(_request("tea"), store=None)
        seen: dict = {}
        shared = 0
        for variant in built.ir:
            module = parse_variant(built, variant)
            for function in module.functions.values():
                for block in function.blocks.values():
                    for statement in (*block.instructions, block.terminator):
                        line = f"  {statement}"
                        if line in seen:
                            assert statement is seen[line], (variant, line)
                            shared += 1
                        else:
                            seen[line] = statement
        assert shared > len(seen)

    def test_table_is_not_saved_compared_or_shown(self, tmp_path):
        from dataclasses import replace

        from repro.artifacts import parse_variant

        built = build_artifacts(_request("otdt"), store=None)
        before, after = ArtifactStore(tmp_path / "a"), ArtifactStore(tmp_path / "b")
        before.save(built)
        for variant in built.ir:
            parse_variant(built, variant)
        assert built.statements
        after.save(built)
        entry = f"{built.key[:2]}/{built.key}"
        for name in ["meta.json"] + [f"{v}.ir" for v in built.ir]:
            assert (tmp_path / "b" / entry / name).read_bytes() == (
                tmp_path / "a" / entry / name
            ).read_bytes(), name
        fresh = replace(built)
        assert fresh.statements == {}
        assert fresh == built
        assert repr(fresh) == repr(built)
        assert "statements" not in repr(built)


class TestCertificationMatrix:
    VARIANTS = ("original", "original_o1", "repaired", "repaired_o1")

    def test_matrix_covers_all_variants_and_channels(self):
        built = build_artifacts(_request("otdt"), store=None)
        assert set(built.certification_matrix) == set(self.VARIANTS)
        for variant in self.VARIANTS:
            record = built.certification_matrix[variant]
            assert set(record["channels"]) == {"time", "cache", "power"}
            for channel in ("time", "cache", "power"):
                assert record[channel] is not None, (variant, channel)
        # The legacy single-channel certification mirrors the time channel.
        assert (
            built.certification["repaired"]
            == built.certification_matrix["repaired"]["time"]
        )

    def test_warm_load_does_no_static_analysis(self, tmp_path):
        from repro.obs import OBS
        from repro.statics import CertificationMatrix

        store = ArtifactStore(tmp_path)
        with OBS.capture(force=True) as cold_cap:
            cold = build_artifacts(_request("otdt"), store=store)
        assert cold_cap.counters.get("statics.cache.analyses") == 4.0
        assert cold_cap.counters.get("statics.power.analyses") == 4.0

        with OBS.capture(force=True) as warm_cap:
            warm = build_artifacts(_request("otdt"), store=store)
        assert warm.cache_hit
        assert warm.certification_matrix == cold.certification_matrix
        assert "statics.cache.analyses" not in warm_cap.counters
        assert "statics.power.analyses" not in warm_cap.counters
        # The cached payload reconstructs into a live matrix.
        matrix = CertificationMatrix.from_dict(
            warm.certification_matrix["repaired"]
        )
        assert matrix.verdicts()["time"]
