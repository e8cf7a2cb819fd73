"""The asyncio front end: intake, back-pressure, durability, streaming, drain.

One process runs a small HTTP/1.1 server in front of the warm worker
pool.  :class:`RepairServer` adds routes, drain, start-up (journal
replay, dispatchers) and teardown (pool, journal) to the plumbing it
shares with the router (:class:`repro.serve.httpio.HTTPService`):

* **Bounded intake.**  Admission is controlled by the number of jobs
  submitted-but-not-finished; past ``REPRO_SERVE_QUEUE`` the server
  answers ``429`` with a ``Retry-After`` header instead of queueing
  without bound.
* **Per-tenant rate limiting.**  A token bucket per tenant id
  (``REPRO_SERVE_TENANT_RPS`` tokens/second, burst of twice that);
  ``0`` disables the limiter.
* **Priority classes.**  Jobs carry a priority class label; dispatch is
  deficit-round-robin over the per-class queues with
  ``REPRO_SERVE_CLASSES`` weights, so a heavy class gets proportionally
  more slots while every non-empty class is served each cycle —
  starvation-free by construction.
* **Crash durability.**  With ``REPRO_SERVE_JOURNAL`` set, every
  accepted job is journalled before it is acknowledged and marked done
  when it finishes; a restarted server replays accepted-but-incomplete
  jobs under their original ids and re-serves byte-identical results
  (:mod:`repro.serve.journal`).
* **Self-healing dispatch.**  A worker death (including the injected
  kind, :mod:`repro.serve.faults`) breaks the process pool; the server
  rebuilds the pool and re-dispatches the job up to
  ``REPRO_SERVE_RETRIES`` times before declaring it failed.
* **Content-addressed dedup.**  A submission whose job key is already
  in the sharded result cache is answered immediately (``cached:
  true``); one whose key is currently *in flight* coalesces onto the
  running job instead of executing twice.
* **Streaming progress.**  Every job owns a JSONL spool file; the
  server appends lifecycle events and process workers retarget their
  ``repro.obs`` sink at it, so ``GET /v1/jobs/<id>/events`` tails the
  live event stream of the repair/verify stages.
* **Graceful drain.**  ``POST /v1/shutdown`` (or SIGINT/SIGTERM under
  ``lif serve``) stops intake with ``503`` and finishes every in-flight
  job before the process exits; status and result endpoints keep
  answering during the drain.
* **Client errors are 400s.**  A malformed request, body or
  ``?timeout=`` is a ``400``; ``?wait=1`` blocks for at most
  ``ServeConfig.wait_timeout``.

Horizontal scale-out — N of these processes behind the consistent-hash
router — lives in :mod:`repro.serve.router`.  Endpoints, wire examples
and semantics: ``docs/SERVE.md``.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import time
from collections import OrderedDict, deque
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.obs import OBS, env_float, env_int
from repro.serve import httpio
from repro.serve.cache import ResultCache, default_result_cache
from repro.serve.faults import (
    FaultPlan,
    make_torn_append_fault,
    worker_fault_token,
)
from repro.serve.journal import JobJournal
from repro.serve.jobs import DEFAULT_WARM_MODULES, warm_limit_from_env
from repro.serve.pool import WarmPool
from repro.serve.protocol import (
    DEFAULT_PRIORITY,
    JobSpec,
    ProtocolError,
    decode_json,
    encode_event,
    job_key,
)

HOST_ENV_VAR = "REPRO_SERVE_HOST"
PORT_ENV_VAR = "REPRO_SERVE_PORT"
QUEUE_ENV_VAR = "REPRO_SERVE_QUEUE"
TENANT_RPS_ENV_VAR = "REPRO_SERVE_TENANT_RPS"
SPOOL_ENV_VAR = "REPRO_SERVE_SPOOL"
JOURNAL_ENV_VAR = "REPRO_SERVE_JOURNAL"
CLASSES_ENV_VAR = "REPRO_SERVE_CLASSES"
RETRIES_ENV_VAR = "REPRO_SERVE_RETRIES"

DEFAULT_PORT = 8765
DEFAULT_QUEUE_LIMIT = 512
DEFAULT_MAX_RETRIES = 2


def spool_root(environ) -> str:
    """The spool directory a server uses when its config names none."""
    return environ.get(SPOOL_ENV_VAR) or os.path.join(
        environ.get("REPRO_CACHE_DIR", ".repro-cache"), "serve-spool"
    )


def parse_class_weights(text: Optional[str]) -> dict:
    """``"gold=4,normal=1"`` → ``{"gold": 4, "normal": 1}``.

    Unknown classes default to weight 1 at dispatch time, so the map
    only needs the classes that deserve more (or, at 0-is-invalid, no
    fewer) slots.  Malformed entries are ignored rather than fatal — a
    scheduling knob must never take the service down.
    """
    weights: dict[str, int] = {}
    for chunk in (text or "").split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, sep, value = chunk.partition("=")
        name = name.strip()
        if not sep or not name:
            continue
        try:
            weight = int(value)
        except ValueError:
            continue
        if weight >= 1:
            weights[name] = weight
    return weights


@dataclass
class ServeConfig:
    """Everything ``lif serve`` can tune (flags override the environment)."""

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    workers: Optional[int] = None
    recycle: Optional[int] = None
    queue_limit: int = DEFAULT_QUEUE_LIMIT
    tenant_rps: float = 0.0  # 0 = rate limiting off
    spool_dir: Optional[str] = None
    use_cache: bool = True
    #: Append-only accept/done ledger; None disables crash replay.
    journal_path: Optional[str] = None
    #: Priority-class weights for the deficit-round-robin dispatcher.
    class_weights: dict = field(default_factory=dict)
    #: Re-dispatches after a transport failure before a job is failed.
    max_retries: int = DEFAULT_MAX_RETRIES
    #: Warm-memo bound per worker (``REPRO_SERVE_WARM``).
    warm_modules: int = DEFAULT_WARM_MODULES
    #: Seconds a ``?wait=1`` status request may block before answering.
    wait_timeout: float = 600.0
    #: After the last in-flight job drains, keep answering status/result
    #: requests on connections that are still open for up to this long, so
    #: clients that submitted before the shutdown can collect their results.
    drain_grace: float = 5.0

    @classmethod
    def from_env(cls, **overrides) -> "ServeConfig":
        config = cls(
            host=os.environ.get(HOST_ENV_VAR, "127.0.0.1"),
            port=env_int(PORT_ENV_VAR, DEFAULT_PORT, 0, 65535),
            queue_limit=env_int(QUEUE_ENV_VAR, DEFAULT_QUEUE_LIMIT, 1),
            tenant_rps=env_float(TENANT_RPS_ENV_VAR, 0.0, 0.0),
            spool_dir=os.environ.get(SPOOL_ENV_VAR) or None,
            journal_path=os.environ.get(JOURNAL_ENV_VAR) or None,
            class_weights=parse_class_weights(
                os.environ.get(CLASSES_ENV_VAR)
            ),
            max_retries=env_int(RETRIES_ENV_VAR, DEFAULT_MAX_RETRIES, 0),
            warm_modules=warm_limit_from_env(),
        )
        for name, value in overrides.items():
            if value is not None:
                setattr(config, name, value)
        return config


class TokenBucket:
    """Classic token bucket; ``rate`` tokens/second, ``burst`` capacity."""

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.stamp = time.monotonic()

    def take(self) -> float:
        """0.0 when a token was taken, else seconds until one is due."""
        now = time.monotonic()
        self.tokens = min(self.burst, self.tokens + (now - self.stamp) * self.rate)
        self.stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        return (1.0 - self.tokens) / self.rate


class WeightedQueue:
    """Per-class FIFOs drained by deficit round robin.

    Each refill cycle grants every *non-empty* class ``weight`` serves
    (classes absent from the weight map get 1), so a class with weight 4
    gets 4x the slots of a weight-1 class under contention and no
    non-empty class ever waits more than one cycle — the
    starvation-freedom property ``tests/unit/test_serve_priority.py``
    asserts.  Control items (dispatcher stop tokens) bypass the classes.
    """

    def __init__(self, weights: Optional[dict] = None) -> None:
        self.weights = dict(weights or {})
        self._buckets: "OrderedDict[str, deque]" = OrderedDict()
        self._credit: dict[str, float] = {}
        self._control: deque = deque()
        self._size = 0
        self._event = asyncio.Event()
        self.served: dict[str, int] = {}

    def weight_of(self, cls: str) -> int:
        return max(1, int(self.weights.get(cls, 1)))

    def put_nowait(self, item, cls: str = DEFAULT_PRIORITY) -> None:
        bucket = self._buckets.get(cls)
        if bucket is None:
            bucket = self._buckets[cls] = deque()
        bucket.append(item)
        self._size += 1
        self._event.set()

    def put_control(self, item) -> None:
        self._control.append(item)
        self._event.set()

    async def get(self):
        while True:
            if self._control:
                return self._control.popleft()
            if self._size:
                return self._pop()
            self._event.clear()
            await self._event.wait()

    def _pop(self):
        while True:
            nonempty = [
                cls for cls, bucket in self._buckets.items() if bucket
            ]
            for cls in sorted(nonempty):
                if self._credit.get(cls, 0.0) >= 1.0:
                    self._credit[cls] -= 1.0
                    item = self._buckets[cls].popleft()
                    self._size -= 1
                    self.served[cls] = self.served.get(cls, 0) + 1
                    return item
            # No class holds credit: start a new cycle.  Credit never
            # accumulates past one cycle (empty classes get none), so a
            # burst cannot be starved by banked credit.
            for cls in sorted(nonempty):
                self._credit[cls] = float(self.weight_of(cls))


@dataclass
class JobRecord:
    """Server-side state of one accepted job."""

    job_id: str
    key: str
    tenant: str
    payload: dict
    priority: str = DEFAULT_PRIORITY
    status: str = "queued"  # queued | running | done | failed
    attempts: int = 0
    result: Optional[bytes] = None
    error: Optional[str] = None
    events_path: Optional[Path] = None
    created: float = field(default_factory=time.monotonic)
    finished_event: "asyncio.Event" = field(default_factory=asyncio.Event)

    def public(self, include_result: bool = True) -> dict:
        view: dict = {
            "job_id": self.job_id,
            "key": self.key,
            "status": self.status,
        }
        if self.error is not None:
            view["error"] = self.error
        if include_result and self.result is not None:
            view["result"] = json.loads(self.result.decode())
        return view


_STOP = object()


class RepairServer(httpio.HTTPService):
    """The long-running multi-tenant service in front of ``repro.api``."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        super().__init__(config or ServeConfig.from_env())
        self.pool = WarmPool(
            self.config.workers, self.config.recycle, self.config.warm_modules
        )
        self.cache: Optional[ResultCache] = (
            default_result_cache() if self.config.use_cache else None
        )
        self.spool_dir = Path(self.config.spool_dir or spool_root(os.environ))
        self.jobs: dict[str, JobRecord] = {}
        self.by_key: dict[str, str] = {}  # in-flight key -> job_id
        self.queue = WeightedQueue(self.config.class_weights)
        self.buckets: dict[str, TokenBucket] = {}
        self.tenant_jobs: dict[str, int] = {}
        self.pending = 0  # submitted but not finished (queued + running)
        self.running = 0
        self.peak_in_flight = 0
        self.faults = FaultPlan.from_env()
        self.journal: Optional[JobJournal] = None
        self._seq = 0
        self._journal_seq = 0
        self._dispatch_seq = 0
        self._response_seq = 0
        self._dispatchers: list = []

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        if self.config.journal_path:
            self.journal = JobJournal(self.config.journal_path)
            self.journal.append_fault = make_torn_append_fault(self.faults)
            for record in self.journal.recover():
                self._replay(record)
        await super().start()
        self._dispatchers = [
            asyncio.create_task(self._dispatcher())
            for _ in range(max(1, self.pool.slots))
        ]

    async def _teardown(self) -> None:
        deadline = time.monotonic() + max(0.0, self.config.drain_grace)
        while self._active_connections > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        for _ in self._dispatchers:
            self.queue.put_control(_STOP)
        await asyncio.gather(*self._dispatchers, return_exceptions=True)
        self.pool.shutdown(wait=True)
        if self.journal is not None:
            self.journal.close()

    async def drain(self) -> None:
        """Stop intake; the drained flag trips when in-flight hits zero."""
        self.draining = True
        self._count("serve.drain_requested")
        if self.pending == 0:
            self._drained.set()

    # -- crash replay --------------------------------------------------------

    def _replay(self, journalled: dict) -> None:
        """Re-enqueue one accepted-but-incomplete job from the journal.

        The original job id is kept, so a client that submitted before
        the crash can still collect its result after the restart.  A job
        whose result already reached the content-addressed cache (the
        crash fell between the cache write and the ``done`` append) is
        completed from the cache without re-execution.
        """
        payload = journalled.get("payload")
        job_id = journalled.get("job_id", "")
        key = journalled.get("key", "")
        try:
            spec = JobSpec.from_payload(payload)
        except ProtocolError:
            self._count("serve.journal.replay_rejected")
            return
        self._journal_seq = max(self._journal_seq,
                                int(journalled.get("seq", 0)))
        numeric = job_id[1:] if job_id[:1] == "j" else ""
        if numeric.isdigit():
            self._seq = max(self._seq, int(numeric))
        record = JobRecord(
            job_id=job_id,
            key=key,
            tenant=spec.tenant,
            payload=spec.to_payload(),
            priority=spec.priority,
            events_path=self.spool_dir / f"{job_id}.jsonl",
        )
        self.jobs[job_id] = record
        cached = self.cache.get(key) if self.cache is not None else None
        if cached is not None:
            record.result = cached
            record.status = "done"
            record.finished_event.set()
            self._count("serve.journal.replay_cache_hits")
            self._journal_done(record)
            return
        self.by_key.setdefault(key, job_id)
        self.pending += 1
        self._count("serve.journal.replayed_jobs")
        self._append_event(
            record,
            {"event": "job.replayed", "job_id": job_id, "key": key},
        )
        self.queue.put_nowait(record, record.priority)

    def _journal_done(self, record: JobRecord) -> None:
        if self.journal is None:
            return
        self._journal_seq += 1
        try:
            self.journal.append_done(
                self._journal_seq, record.job_id, record.key, record.status
            )
        except OSError:
            self._count("serve.journal.append_errors")

    # -- dispatch ------------------------------------------------------------

    async def _dispatcher(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            record = await self.queue.get()
            if record is _STOP:
                return
            record.status = "running"
            record.attempts += 1
            self.running += 1
            self._append_event(record, {"event": "job.started",
                                        "job_id": record.job_id,
                                        "attempt": record.attempts})
            events = (
                str(record.events_path)
                if self.pool.mode == "process" else None
            )
            self._dispatch_seq += 1
            fault = worker_fault_token(self.faults, self._dispatch_seq)
            try:
                future = self._pool_submit(record.payload, events, fault)
                blob, snapshot = await asyncio.wrap_future(future, loop=loop)
                OBS.merge(snapshot)
                record.result = blob
                record.status = "done"
                self._count("serve.completed")
                if self.cache is not None:
                    self.cache.put(record.key, blob)
            except Exception as exc:  # transport/pool failure, not a result
                self.running -= 1
                if isinstance(exc, BrokenExecutor):
                    self._rebuild_pool()
                if record.attempts <= self.config.max_retries:
                    record.status = "queued"
                    self._count("serve.retries")
                    self._append_event(
                        record,
                        {"event": "job.retried", "job_id": record.job_id,
                         "attempt": record.attempts,
                         "error": f"{type(exc).__name__}: {exc}"},
                    )
                    self.queue.put_nowait(record, record.priority)
                    continue
                record.status = "failed"
                record.error = f"{type(exc).__name__}: {exc}"
                self._count("serve.transport_failures")
                self._finish(record)
                continue
            self.running -= 1
            self._finish(record)

    def _pool_submit(self, payload: dict, events: Optional[str], fault):
        """Submit to the pool, rebuilding it once if it arrives broken."""
        try:
            return self.pool.submit(payload, events, fault=fault)
        except (BrokenExecutor, RuntimeError):
            self._rebuild_pool()
            return self.pool.submit(payload, events, fault=fault)

    def _rebuild_pool(self) -> None:
        """Replace a broken process pool (a worker died mid-job)."""
        if self.pool.rebuild():
            self._count("serve.pool.rebuilds")

    def _finish(self, record: JobRecord) -> None:
        """Terminal bookkeeping shared by the done and failed paths."""
        self.pending -= 1
        if self.by_key.get(record.key) == record.job_id:
            del self.by_key[record.key]
        self._journal_done(record)
        self._append_event(
            record,
            {"event": "job.done", "job_id": record.job_id,
             "status": record.status},
        )
        record.finished_event.set()
        if self.draining and self.pending == 0:
            self._drained.set()

    # -- submission ----------------------------------------------------------

    def _submit(self, payload: object) -> tuple:
        """Returns (http status, response payload)."""
        if self.draining:
            self._count("serve.rejected_draining")
            return 503, {"error": "draining",
                         "detail": "server is draining; resubmit elsewhere"}
        spec = JobSpec.from_payload(payload)  # ProtocolError -> 400 upstream
        retry = self._rate_limit(spec.tenant)
        if retry > 0:
            self._count("serve.rejected_ratelimit")
            return 429, {"error": "rate_limited", "tenant": spec.tenant,
                         "retry_after": retry}
        key = job_key(spec)
        self._count("serve.submitted")
        self.tenant_jobs[spec.tenant] = self.tenant_jobs.get(spec.tenant, 0) + 1
        if self.cache is not None:
            cached = self.cache.get(key)
            if cached is not None:
                self._count("serve.cache_served")
                record = self._new_record(spec, key, register=False)
                record.status = "done"
                record.result = cached
                record.finished_event.set()
                self._append_event(
                    record,
                    {"event": "job.cached", "job_id": record.job_id,
                     "key": key},
                )
                self._append_event(
                    record,
                    {"event": "job.done", "job_id": record.job_id,
                     "status": "done"},
                )
                response = record.public()
                response["cached"] = True
                return 200, response
        inflight = self.by_key.get(key)
        if inflight is not None:
            self._count("serve.coalesced")
            return 202, {"job_id": inflight, "key": key,
                         "status": self.jobs[inflight].status,
                         "coalesced": True}
        if self.pending >= self.config.queue_limit:
            self._count("serve.rejected_backpressure")
            return 429, {"error": "backpressure",
                         "queued": self.pending, "retry_after": 1}
        record = self._new_record(spec, key, register=True)
        if self.journal is not None:
            # Durability before acknowledgement: the accept record must
            # be on disk before the client can observe the acceptance.
            self._journal_seq += 1
            try:
                self.journal.append_accept(
                    self._journal_seq, record.job_id, key, record.payload
                )
            except OSError:
                self._count("serve.journal.append_errors")
        self.pending += 1
        self.peak_in_flight = max(self.peak_in_flight, self.pending)
        self._append_event(
            record,
            {"event": "job.queued", "job_id": record.job_id, "key": key,
             "kind": spec.kind, "tenant": spec.tenant,
             "priority": spec.priority},
        )
        self.queue.put_nowait(record, record.priority)
        return 202, {"job_id": record.job_id, "key": key,
                     "status": "queued", "cached": False}

    def _new_record(self, spec: JobSpec, key: str, register: bool) -> JobRecord:
        self._seq += 1
        job_id = f"j{self._seq:08d}"
        record = JobRecord(
            job_id=job_id,
            key=key,
            tenant=spec.tenant,
            payload=spec.to_payload(),
            priority=spec.priority,
            events_path=self.spool_dir / f"{job_id}.jsonl",
        )
        try:
            # Job ids restart per server process; a leftover spool file from
            # a previous run must not replay into this job's event stream.
            record.events_path.unlink()
        except OSError:
            pass
        self.jobs[job_id] = record
        if register:
            self.by_key[key] = job_id
        return record

    def _rate_limit(self, tenant: str) -> float:
        rate = self.config.tenant_rps
        if rate <= 0:
            return 0.0
        bucket = self.buckets.get(tenant)
        if bucket is None:
            bucket = self.buckets[tenant] = TokenBucket(rate, 2 * rate)
        return bucket.take()

    def _append_event(self, record: JobRecord, event: dict) -> None:
        if record.events_path is None:
            return
        try:
            with open(record.events_path, "ab") as handle:
                handle.write(encode_event({**event, "pid": os.getpid()}))
        except OSError:
            pass
        if OBS.enabled:
            OBS.event(event.pop("event"), **event)

    # -- stats ---------------------------------------------------------------

    def stats(self) -> dict:
        from repro.exec import executor_cache_stats
        from repro.serve.jobs import warm_module_stats

        return {
            "uptime_seconds": round(time.monotonic() - self.started, 3),
            "pending": self.pending,
            "running": self.running,
            "peak_in_flight": self.peak_in_flight,
            "draining": self.draining,
            "queue_limit": self.config.queue_limit,
            "tenant_rps": self.config.tenant_rps,
            "max_retries": self.config.max_retries,
            "counters": dict(sorted(self.counters.items())),
            "tenants": dict(sorted(self.tenant_jobs.items())),
            "classes": {
                "weights": dict(sorted(self.queue.weights.items())),
                "served": dict(sorted(self.queue.served.items())),
            },
            "pool": self.pool.stats(),
            "result_cache": self.cache.stats() if self.cache else None,
            "journal": self.journal.stats() if self.journal else None,
            "faults": self.faults.stats() if self.faults else None,
            "exec_caches": executor_cache_stats(),
            "warm_modules": warm_module_stats(),
        }

    # -- routes --------------------------------------------------------------

    async def _route(self, method: str, path: str, query: str, body: bytes,
                     writer) -> None:
        params = httpio.parse_query(query)
        if method == "POST" and path == "/v1/jobs":
            status, payload = self._submit(decode_json(body))
            if status in (200, 202):
                self._response_seq += 1
                if self.faults.take("drop", self._response_seq):
                    # Injected mid-response connection loss: the job (if
                    # accepted) stays in flight; the client must recover
                    # idempotently through its job key.
                    self._count("serve.dropped_responses")
                    writer.transport.abort()
                    return
            extra = ()
            if status == 429:
                extra = (("Retry-After", str(max(1, int(payload.get(
                    "retry_after", 1) + 0.999)))),)
            await httpio.respond(writer, status, payload, extra_headers=extra)
            return
        if method == "POST" and path == "/v1/shutdown":
            pending = self.pending
            await self.drain()
            await httpio.respond(
                writer, 200, {"status": "draining", "pending": pending}
            )
            return
        if method == "GET" and path == "/v1/healthz":
            await httpio.respond(
                writer, 200,
                {"status": "draining" if self.draining else "ok"},
            )
            return
        if method == "GET" and path == "/v1/stats":
            await httpio.respond(writer, 200, self.stats())
            return
        if method == "GET" and path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            job_id, _, sub = rest.partition("/")
            record = self.jobs.get(job_id)
            if record is None:
                await httpio.respond(
                    writer, 404, {"error": "unknown_job", "job_id": job_id}
                )
                return
            if sub == "":
                timeout = self._wait_timeout(params)
                if timeout is not None and record.result is None \
                        and record.status not in ("done", "failed"):
                    try:
                        await asyncio.wait_for(
                            record.finished_event.wait(), timeout
                        )
                    except asyncio.TimeoutError:
                        pass
                await httpio.respond(writer, 200, record.public())
                return
            if sub == "result":
                if record.result is None:
                    await httpio.respond(
                        writer, 404,
                        {"error": "not_done", "status": record.status},
                    )
                    return
                await httpio.respond_raw(writer, 200, record.result)
                return
            if sub == "events":
                await self._stream_events(writer, record)
                return
        await httpio.respond(writer, 404, {"error": "unknown_endpoint",
                                           "path": path})

    def _wait_timeout(self, params: dict) -> Optional[float]:
        """Seconds a ``?wait=1`` request blocks, at most ``wait_timeout``."""
        if params.get("wait") != "1":
            return None
        try:
            timeout = float(params.get("timeout", self.config.wait_timeout))
        except ValueError:
            timeout = math.nan
        if math.isnan(timeout):
            raise ProtocolError(
                f"timeout must be a number, got {params['timeout']!r}"
            )
        return min(max(timeout, 0.0), self.config.wait_timeout)

    async def _stream_events(self, writer, record: JobRecord) -> None:
        """Tail the job's JSONL spool until the job finishes."""
        writer.write(httpio.response_head(200, "application/x-ndjson"))
        await writer.drain()
        offset = 0
        while True:
            chunk = b""
            try:
                with open(record.events_path, "rb") as handle:
                    handle.seek(offset)
                    chunk = handle.read()
            except OSError:
                pass
            if chunk:
                # Only ship complete lines; a partial tail stays buffered.
                cut = chunk.rfind(b"\n") + 1
                if cut:
                    writer.write(chunk[:cut])
                    await writer.drain()
                    offset += cut
            elif record.finished_event.is_set():
                return
            await asyncio.sleep(0.02)


def run_server(config: Optional[ServeConfig] = None, announce=None) -> int:
    """Run the service until drained (what ``lif serve`` does)."""
    return httpio.run_service(
        lambda: RepairServer(config or ServeConfig.from_env()), announce
    )


class ServerThread(httpio.ServiceThread):
    """An in-process server on a background thread (tests, benchmarks).

    Context-manager use drains the server on exit, so in-flight jobs
    finish before the ``with`` block returns::

        with ServerThread(ServeConfig(port=0, workers=2)) as handle:
            client = ServeClient(handle.host, handle.port)
            ...
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig.from_env()
        super().__init__("repro-serve", lambda: RepairServer(self.config))

    @property
    def server(self) -> Optional[RepairServer]:
        return self.service
