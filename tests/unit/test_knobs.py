"""Every integer, float and on/off ``REPRO_*`` knob parses the same way.

A blank value means the default; each value EXPERIMENTS.md documents is
accepted; a malformed or out-of-range value raises a ``ValueError`` that
names the knob instead of silently running with some other value.
"""

import pytest

from repro.artifacts.parallel import resolve_jobs
from repro.artifacts.store import default_store, shard_width_from_env
from repro.exec.batch import BatchExecutor
from repro.exec.compiled import exec_cache_limit
from repro.fuzz.campaign import round_size_from_env
from repro.ir import parse_module
from repro.serve.cache import default_result_cache
from repro.serve.jobs import (
    DEFAULT_WARM_MODULES,
    clear_warm_modules,
    prepared_modules,
    set_warm_limit,
    warm_module_stats,
)
from repro.serve.journal import JobJournal
from repro.serve.pool import WarmPool, resolve_workers
from repro.serve.router import RouterConfig
from repro.serve.server import ServeConfig

SUM_IR = "func @f() { entry: ret 1 }"
GATE = "uint gate(uint p) { return p; }\n"


def _recycle(tmp_path):
    pool = WarmPool(workers=0)
    pool.shutdown(wait=True)
    return pool.recycle


#: knob, reader, accepted ``(raw, value read)`` pairs, rejected raws.
KNOBS = [
    ("REPRO_BATCH_SIZE",
     lambda t: BatchExecutor(parse_module(SUM_IR)).batch_size,
     [("256", 256), ("1", 1)], ["0", "-3", "zero", "2.5"]),
    ("REPRO_JOBS", lambda t: resolve_jobs(),
     [("2", 2), ("1", 1)], ["0", "x", "-1"]),
    ("REPRO_CACHE", lambda t: default_store() is not None,
     [("1", True), ("0", False), ("off", False), ("yes", True)],
     ["2", "disabled"]),
    ("REPRO_CACHE_SHARDS", lambda t: shard_width_from_env(),
     [("2", 2), ("0", 0), ("8", 8)], ["9", "-1", "two"]),
    ("REPRO_EXEC_CACHE_SIZE", lambda t: exec_cache_limit(),
     [("128", 128), ("1", 1)], ["0", "junk"]),
    ("REPRO_SERVE_PORT", lambda t: ServeConfig.from_env().port,
     [("8765", 8765), ("0", 0)], ["-1", "65536", "http"]),
    ("REPRO_SERVE_PORT", lambda t: RouterConfig.from_env().port,
     [("8765", 8765), ("0", 0)], ["-1", "65536", "http"]),
    ("REPRO_SERVE_WORKERS", lambda t: resolve_workers(),
     [("4", 4), ("0", 0)], ["-1", "many"]),
    ("REPRO_SERVE_RECYCLE", _recycle,
     [("200", 200), ("0", 0)], ["-1", "never"]),
    ("REPRO_SERVE_QUEUE", lambda t: ServeConfig.from_env().queue_limit,
     [("512", 512), ("1", 1)], ["5OO", "0", "-2"]),
    ("REPRO_SERVE_TENANT_RPS", lambda t: ServeConfig.from_env().tenant_rps,
     [("0", 0.0), ("2.5", 2.5)], ["-1", "fast", "nan", "inf"]),
    ("REPRO_SERVE_WARM", lambda t: ServeConfig.from_env().warm_modules,
     [("32", 32), ("1", 1)], ["0", "lots"]),
    ("REPRO_SERVE_CACHE", lambda t: default_result_cache() is not None,
     [("1", True), ("0", False), ("off", False)], ["nope"]),
    ("REPRO_SERVE_HEALTH",
     lambda t: RouterConfig.from_env().health_interval,
     [("2.0", 2.0), ("0.5", 0.5)], ["0", "-1", "soon"]),
    ("REPRO_SERVE_JOURNAL_FSYNC",
     lambda t: JobJournal(t / "journal.jsonl").fsync_every,
     [("8", 8), ("1", 1)], ["0", "always"]),
    ("REPRO_SERVE_RETRIES", lambda t: ServeConfig.from_env().max_retries,
     [("2", 2), ("0", 0)], ["-1", "twice"]),
    ("REPRO_FUZZ_ROUND", lambda t: round_size_from_env(),
     [("64", 64), ("16", 16)], ["0", "big"]),
]


@pytest.mark.parametrize(
    "knob, reader, accepted, rejected", KNOBS,
    ids=[f"{row[0]}-{i}" for i, row in enumerate(KNOBS)],
)
def test_knob_accepts_documented_values_and_names_itself_on_junk(
        knob, reader, accepted, rejected, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv(knob, "  ")
    reader(tmp_path)  # blank means the default, never an error
    for raw, value in accepted:
        monkeypatch.setenv(knob, raw)
        assert reader(tmp_path) == value, raw
    for raw in rejected:
        monkeypatch.setenv(knob, raw)
        with pytest.raises(ValueError, match=knob):
            reader(tmp_path)


def test_warm_limit_read_at_start_up_bounds_the_memo(monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_WARM", "1")
    config = ServeConfig.from_env()
    # Jobs never read the knob: a value set after start-up is not seen.
    monkeypatch.setenv("REPRO_SERVE_WARM", "lots")
    pool = WarmPool(workers=0, warm_modules=config.warm_modules)
    clear_warm_modules()
    try:
        for index in range(2):
            prepared_modules(GATE + f"// k{index}\n", "gate", False)
        assert warm_module_stats()["entries"] == 1
    finally:
        pool.shutdown(wait=True)
        set_warm_limit(DEFAULT_WARM_MODULES)
        clear_warm_modules()


def test_env_number_contract(monkeypatch):
    from repro.obs import env_float, env_int

    monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
    assert env_int("REPRO_TEST_KNOB", 7, 1, 9) == 7
    assert env_float("REPRO_TEST_KNOB", 0.5) == 0.5
    monkeypatch.setenv("REPRO_TEST_KNOB", " 9 ")
    assert env_int("REPRO_TEST_KNOB", 7, 1, 9) == 9
    assert env_float("REPRO_TEST_KNOB", 0.5, 0.0) == 9.0
    monkeypatch.setenv("REPRO_TEST_KNOB", "10")
    with pytest.raises(ValueError, match=r"\$REPRO_TEST_KNOB .*\[1, 9\]"):
        env_int("REPRO_TEST_KNOB", 7, 1, 9)
    monkeypatch.setenv("REPRO_TEST_KNOB", "1" * 400)  # no float overflow
    with pytest.raises(ValueError, match="REPRO_TEST_KNOB"):
        env_int("REPRO_TEST_KNOB", 7, hi=9)
