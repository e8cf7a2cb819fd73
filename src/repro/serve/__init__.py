"""``lif serve`` — the multi-tenant repair-as-a-service layer.

The one-shot pipeline (``repro.api``) pays process startup, cold compile
caches and serial intake on every invocation.  This package turns it into
a long-running local service:

* :mod:`repro.serve.protocol` — job specs, content-addressed job keys
  (the same SHA-256 discipline as ``repro.artifacts.keys``), and the
  HTTP+JSONL wire format.
* :mod:`repro.serve.jobs` — deterministic job execution over the public
  ``repro.api`` entry points; served results are byte-identical to a
  direct call by construction (and checked differentially by
  ``benchmarks/bench_serve_throughput.py`` before any timing is taken).
* :mod:`repro.serve.cache` — the sharded content-addressed result cache
  (``<root>/serve/<shard>/<key>.json``): identical submissions from any
  tenant are deduplicated by key and answered without re-execution.
* :mod:`repro.serve.pool` — the warm worker pool: workers keep parsed
  and repaired modules alive between jobs (pinning the identity-keyed
  compile/SoA caches) and are periodically recycled to bound
  memory.
* :mod:`repro.serve.server` — the asyncio front end: bounded intake
  queue with 429 back-pressure, per-tenant token-bucket rate limiting,
  per-job JSONL event streams built on the ``repro.obs`` sink, and a
  graceful drain that finishes in-flight jobs before exit.
* :mod:`repro.serve.client` — the blocking stdlib client used by ``lif
  submit``, the tests and the throughput benchmark.
* :mod:`repro.serve.ring` — the consistent-hash ring (SHA-256 virtual
  points) that spreads job keys across shards with bounded movement.
* :mod:`repro.serve.router` — the shard router (``lif serve --shards
  N``): health-checked consistent-hash forwarding, per-shard draining,
  deterministic failover, and the shard-process supervisor.
* :mod:`repro.serve.journal` — the append-only crash-replay journal:
  accepted jobs survive a SIGKILL and replay byte-identically.
* :mod:`repro.serve.faults` — deterministic fault injection
  (``REPRO_SERVE_FAULTS``) for the chaos suite and the soak benchmark.

Protocol and operational semantics are documented in ``docs/SERVE.md``.
"""

from repro.serve.cache import ResultCache, default_result_cache
from repro.serve.client import ServeClient
from repro.serve.faults import FaultPlan
from repro.serve.jobs import canonical_result_bytes, execute_job
from repro.serve.journal import JobJournal
from repro.serve.pool import WarmPool
from repro.serve.protocol import (
    JOB_KINDS,
    JobSpec,
    ProtocolError,
    job_key,
)
from repro.serve.ring import HashRing
from repro.serve.router import RouterServer, Shard, ShardSupervisor
from repro.serve.server import RepairServer, ServeConfig

__all__ = [
    "JOB_KINDS",
    "FaultPlan",
    "HashRing",
    "JobJournal",
    "JobSpec",
    "ProtocolError",
    "RepairServer",
    "ResultCache",
    "RouterServer",
    "ServeClient",
    "ServeConfig",
    "Shard",
    "ShardSupervisor",
    "WarmPool",
    "canonical_result_bytes",
    "default_result_cache",
    "execute_job",
    "job_key",
]
