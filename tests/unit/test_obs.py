"""Tests for the observability collector (satellite: collector coverage).

Covers the ISSUE 3 checklist: counter/timer/span semantics, the JSONL
round-trip, disabled-mode no-op behaviour, and cross-process metric
aggregation through ``build_many``.
"""

import json
import os
from unittest import mock

import pytest

from repro.artifacts import ArtifactStore, build_many
from repro.bench.runner import build_request
from repro.bench.suite import get_benchmark
from repro.obs import (
    OBS,
    TRACE_ENV_VAR,
    TRACE_FILE_ENV_VAR,
    Collector,
    configure,
    read_events,
)


class TestCounters:
    def test_counter_accumulates(self):
        collector = Collector(enabled=True)
        collector.counter("a.b", 2)
        collector.counter("a.b")
        collector.counter("a.c", 0.5)
        assert collector.counters == {"a.b": 3, "a.c": 0.5}

    def test_counter_disabled_records_nothing(self):
        collector = Collector(enabled=False)
        collector.counter("a.b", 7)
        assert collector.counters == {}


class TestCapture:
    def test_capture_reports_counter_deltas(self):
        collector = Collector(enabled=True)
        collector.counter("a.b", 5)
        with collector.capture() as window:
            collector.counter("a.b", 2)
            collector.counter("a.c", 1)
        assert window.counters == {"a.b": 2, "a.c": 1}
        assert collector.counters["a.b"] == 7  # campaign totals untouched

    def test_capture_force_enables_disabled_collector(self):
        collector = Collector(enabled=False)
        with collector.capture(force=True) as window:
            assert collector.enabled
            collector.counter("x", 3)
        assert not collector.enabled
        assert window.counters == {"x": 3}

    def test_forced_capture_truncates_events(self):
        collector = Collector(enabled=False)
        with collector.capture(force=True):
            collector.event("noise", detail=1)
        # Forced windows must not grow the event log of a collector the
        # user left disabled (long campaigns would leak memory).
        assert collector.events == []

    def test_unforced_capture_keeps_events(self):
        collector = Collector(enabled=True)
        with collector.capture():
            collector.event("kept")
        assert [e["event"] for e in collector.events] == ["kept"]


class TestSpans:
    def test_span_times_into_timer(self):
        collector = Collector(enabled=True)
        with collector.span("stage.x", item="one"):
            pass
        with collector.span("stage.x", item="two"):
            pass
        count, seconds = collector.timers["stage.x"]
        assert count == 2
        assert seconds >= 0.0

    def test_span_emits_event_with_fields(self):
        collector = Collector(enabled=True)
        with collector.span("stage.y", benchmark="tea"):
            pass
        [event] = collector.events
        assert event["event"] == "span"
        assert event["name"] == "stage.y"
        assert event["benchmark"] == "tea"
        assert event["pid"] == os.getpid()
        assert event["seconds"] >= 0.0

    def test_span_records_even_when_body_raises(self):
        collector = Collector(enabled=True)
        try:
            with collector.span("stage.z"):
                raise ValueError("boom")
        except ValueError:
            pass
        assert collector.timers["stage.z"][0] == 1

    def test_disabled_span_is_the_shared_null_singleton(self):
        collector = Collector(enabled=False)
        first = collector.span("a")
        second = collector.span("b", field=1)
        assert first is second  # no per-call allocation when disabled
        with first:
            pass
        assert collector.timers == {}
        assert collector.events == []


class TestEventsAndJsonl:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        collector = Collector(enabled=True, trace_file=str(path))
        collector.event("repair", module="tea", ctsels=3)
        with collector.span("build.opt", benchmark="tea"):
            pass
        collector.close()

        records = read_events(path)
        assert [r["event"] for r in records] == ["repair", "span"]
        assert records[0]["module"] == "tea"
        assert records[0]["ctsels"] == 3
        assert records[1]["name"] == "build.opt"
        # every record is plain JSON with a pid
        for record in records:
            assert record["pid"] == os.getpid()
            json.dumps(record)  # still serialisable

    def test_trace_file_appends_across_collectors(self, tmp_path):
        """Append mode lets forked workers share one sink file."""
        path = tmp_path / "trace.jsonl"
        for index in range(2):
            collector = Collector(enabled=True, trace_file=str(path))
            collector.event("tick", index=index)
            collector.close()
        assert [r["index"] for r in read_events(path)] == [0, 1]

    def test_trace_file_implies_enabled(self, tmp_path):
        collector = Collector(enabled=False, trace_file=str(tmp_path / "t.jsonl"))
        assert collector.enabled


class TestSnapshotMerge:
    def test_snapshot_merge_adds_counters_and_timers(self):
        worker = Collector(enabled=True)
        worker.counter("hits", 2)
        with worker.span("stage"):
            pass

        parent = Collector(enabled=True)
        parent.counter("hits", 1)
        parent.merge(worker.snapshot())
        parent.merge(worker.snapshot())

        assert parent.counters["hits"] == 5
        assert parent.timers["stage"][0] == 2

    def test_disabled_snapshot_is_none_and_merge_is_noop(self):
        disabled = Collector(enabled=False)
        assert disabled.snapshot() is None
        enabled = Collector(enabled=True)
        enabled.merge(None)
        assert enabled.counters == {}
        disabled.merge({"counters": {"x": 1}, "timers": {}})
        assert disabled.counters == {}

    def test_reset_clears_metrics(self):
        collector = Collector(enabled=True)
        collector.counter("x")
        with collector.span("y"):
            pass
        collector.reset()
        assert collector.counters == {}
        assert collector.timers == {}
        assert collector.events == []


class TestFromEnvAndConfigure:
    def test_from_env_disabled_by_default(self):
        with mock.patch.dict(os.environ, clear=False) as env:
            env.pop(TRACE_ENV_VAR, None)
            env.pop(TRACE_FILE_ENV_VAR, None)
            assert not Collector.from_env().enabled

    def test_from_env_trace_knob(self):
        with mock.patch.dict(os.environ, {TRACE_ENV_VAR: "1"}):
            assert Collector.from_env().enabled
        with mock.patch.dict(os.environ, {TRACE_ENV_VAR: "0"}):
            assert not Collector.from_env().enabled

    def test_from_env_trace_knob_takes_on_off_words(self):
        for word in ("off", "false", "no", " 0 ", ""):
            assert not Collector.from_env({TRACE_ENV_VAR: word}).enabled, word
        for word in ("on", "true", "yes", "1"):
            assert Collector.from_env({TRACE_ENV_VAR: word}).enabled, word
        with pytest.raises(ValueError, match=r"\$REPRO_TRACE\b"):
            Collector.from_env({TRACE_ENV_VAR: "junk"})

    def test_from_env_trace_file_knob(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with mock.patch.dict(
            os.environ, {TRACE_ENV_VAR: "0", TRACE_FILE_ENV_VAR: path}
        ):
            collector = Collector.from_env()
        assert collector.enabled
        assert collector.trace_file == path

    def test_configure_mutates_the_global_in_place(self):
        try:
            returned = configure(enabled=True)
            assert returned is OBS
            assert OBS.enabled
            OBS.counter("probe")
            assert OBS.counters["probe"] == 1
        finally:
            with mock.patch.dict(os.environ, clear=False) as env:
                env.pop(TRACE_ENV_VAR, None)
                env.pop(TRACE_FILE_ENV_VAR, None)
                configure()
        assert not OBS.enabled


class TestBuildManyAggregation:
    def test_cross_process_metrics_merge_into_parent(self, tmp_path):
        """Pool workers ship snapshots back; the parent folds them in."""
        requests = [
            build_request(get_benchmark(name)) for name in ("otdt", "ofdf")
        ]
        store = ArtifactStore(tmp_path / "cache")
        try:
            configure(enabled=True)
            build_many(requests, jobs=2, store=store)  # cold: builds + writes
            assert OBS.counters.get("artifacts.store.misses", 0) == 2
            assert OBS.counters.get("artifacts.store.writes", 0) == 2
            assert OBS.counters.get("core.repair.modules", 0) == 2
            assert OBS.counters.get("core.repair.ctsels_inserted", 0) > 0
            # stage timers aggregated across both worker processes
            assert OBS.timers["build.repair"][0] == 2

            OBS.reset()
            build_many(requests, jobs=2, store=store)  # warm: pure hits
            assert OBS.counters.get("artifacts.store.hits", 0) == 2
            assert OBS.counters.get("artifacts.store.misses", 0) == 0
        finally:
            with mock.patch.dict(os.environ, clear=False) as env:
                env.pop(TRACE_ENV_VAR, None)
                env.pop(TRACE_FILE_ENV_VAR, None)
                configure()

    def test_disabled_build_many_keeps_collector_empty(self, tmp_path):
        requests = [build_request(get_benchmark("otdt"))]
        store = ArtifactStore(tmp_path / "cache")
        assert not OBS.enabled
        build_many(requests, jobs=1, store=store)
        assert OBS.counters == {}
        assert OBS.timers == {}
