"""Pipeline observability: structured tracing, metrics, and the results book.

The paper's evaluation (Figs. 11-16) is built from measurements the tool
itself emits; this package is the reproduction's equivalent of that
first-class telemetry:

* :mod:`repro.obs.collector` — the zero-dependency event/metric collector
  (counters, timers, spans, JSONL sink) behind the ``REPRO_TRACE`` /
  ``REPRO_TRACE_FILE`` knobs.  Off by default; instrumented call sites
  across the frontend, optimiser, repair pass, executors, artifact store
  and verifiers cost one attribute check each when disabled.
* :mod:`repro.obs.report` — ``lif report``: aggregates a suite run's
  metrics with the committed ``BENCH_*.json`` records and renders the
  deterministic results book ``docs/RESULTS.md``.

See ``docs/OBSERVABILITY.md`` for the metric catalogue and event schema.
"""

from repro.obs.collector import (
    OBS,
    TRACE_ENV_VAR,
    TRACE_FILE_ENV_VAR,
    Collector,
    configure,
    env_flag,
    env_float,
    env_int,
    read_events,
)

__all__ = [
    "OBS",
    "TRACE_ENV_VAR",
    "TRACE_FILE_ENV_VAR",
    "Collector",
    "configure",
    "env_flag",
    "env_float",
    "env_int",
    "read_events",
]
