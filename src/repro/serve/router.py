"""The consistent-hash shard router: ``lif serve --shards N``.

One router process fronts N independent :mod:`repro.serve.server`
shard processes.  Every submission is keyed by its content address
(:func:`repro.serve.protocol.job_key`) and placed on a consistent-hash
ring (:mod:`repro.serve.ring`), so

* identical submissions always land on the same shard — the shard's
  in-flight coalescing and warm caches keep working across the fleet;
* adding or removing a shard moves only ~1/N of the key space
  (property-tested in ``tests/property/test_serve_ring.py``);
* a dead shard's keys fail over to the next shard in that key's
  deterministic preference order; everyone else's keys stay put.

The router is *stateless* above the ring: job ids returned to clients
are compound — ``<shard id>.<shard-local id>`` — so status, result and
event-stream requests route without a lookup table, and a router
restart loses nothing.  Shard health is probed every
``REPRO_SERVE_HEALTH`` seconds and on every forwarding failure; a shard
that answers again is restored to the ring (``serve.shard.recovered``).

:class:`RouterServer` adds forwarding routes, the fleet drain and the
health loop to the plumbing it shares with the shard server
(:class:`repro.serve.httpio.HTTPService`).

Per-shard draining: ``POST /v1/shards/<sid>/drain`` takes one shard out
of the intake ring and lets its in-flight jobs finish while the rest of
the fleet keeps accepting — the rolling-restart primitive.

:class:`ShardSupervisor` spawns the shard processes (``lif serve
--port 0`` subprocesses, one journal each) and is what the soak
benchmark and the crash tests kill and restart.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.obs import OBS, env_float, env_int
from repro.serve import httpio
from repro.serve.protocol import JobSpec, decode_json, job_key
from repro.serve.ring import HashRing
from repro.serve.server import (
    DEFAULT_PORT,
    HOST_ENV_VAR,
    PORT_ENV_VAR,
    SPOOL_ENV_VAR,
    spool_root,
)

HEALTH_ENV_VAR = "REPRO_SERVE_HEALTH"
DEFAULT_HEALTH_INTERVAL = 2.0
#: Shortest accepted probe interval; shorter would keep the router busy.
MIN_HEALTH_INTERVAL = 0.1

#: Seconds the router gives a shard to answer one forwarded request.
FORWARD_TIMEOUT = 600.0
#: Seconds the router gives a shard to answer a health probe.
PROBE_TIMEOUT = 5.0

#: Transport failures that demote a shard and trigger failover.
_TRANSPORT_ERRORS = (OSError, asyncio.TimeoutError, EOFError)


@dataclass
class Shard:
    """One backend repair server, as the router sees it."""

    shard_id: str
    host: str
    port: int
    healthy: bool = True
    draining: bool = False
    forwarded: int = 0
    failures: int = 0
    #: Supervisor bookkeeping (None when the shard is externally managed).
    process: Optional[object] = field(default=None, repr=False)

    def live(self) -> bool:
        return self.healthy and not self.draining

    def public(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "address": f"{self.host}:{self.port}",
            "healthy": self.healthy,
            "draining": self.draining,
            "forwarded": self.forwarded,
            "failures": self.failures,
        }


@dataclass
class RouterConfig:
    """Bind address and probe cadence of the shard router."""

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    health_interval: float = DEFAULT_HEALTH_INTERVAL
    forward_timeout: float = FORWARD_TIMEOUT

    @classmethod
    def from_env(cls, **overrides) -> "RouterConfig":
        config = cls(
            host=os.environ.get(HOST_ENV_VAR, "127.0.0.1"),
            port=env_int(PORT_ENV_VAR, DEFAULT_PORT, 0, 65535),
            health_interval=env_float(
                HEALTH_ENV_VAR, DEFAULT_HEALTH_INTERVAL, MIN_HEALTH_INTERVAL
            ),
        )
        for name, value in overrides.items():
            if value is not None:
                setattr(config, name, value)
        return config


class RouterServer(httpio.HTTPService):
    """Consistent-hash front door over a fleet of repair shards."""

    INTERNAL_ERRORS = "serve.router.internal_errors"

    def __init__(self, config: RouterConfig, shards: "list[Shard]") -> None:
        if not shards:
            raise ValueError("router needs at least one shard")
        super().__init__(config)
        self.shards: "dict[str, Shard]" = {
            shard.shard_id: shard for shard in shards
        }
        self.ring = HashRing()
        for shard_id in self.shards:
            self.ring.add(shard_id)
        self._health_task: Optional[asyncio.Task] = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        await super().start()
        self._health_task = asyncio.create_task(self._health_loop())

    async def _teardown(self) -> None:
        self._health_task.cancel()
        await asyncio.gather(self._health_task, return_exceptions=True)

    async def drain(self) -> None:
        """Drain every shard, then the router itself."""
        self.draining = True
        self._count("serve.router.drain_requested")
        await asyncio.gather(
            *(self._drain_shard(s) for s in self.shards.values()),
            return_exceptions=True,
        )
        self._drained.set()

    async def _drain_shard(self, shard: Shard) -> None:
        shard.draining = True
        try:
            await httpio.fetch(shard.host, shard.port, "POST",
                               "/v1/shutdown", timeout=PROBE_TIMEOUT)
        except _TRANSPORT_ERRORS:
            pass

    # -- routing -------------------------------------------------------------

    def live_shards(self) -> "set[str]":
        return {sid for sid, s in self.shards.items() if s.live()}

    def preference(self, key: str) -> "list[Shard]":
        """Failover order for one key: live shards, ring-determined."""
        live = self.live_shards()
        return [
            self.shards[sid]
            for sid in self.ring.preference(key)
            if sid in live
        ]

    async def _forward_submit(self, body: bytes, writer) -> None:
        spec = JobSpec.from_payload(decode_json(body))  # ProtocolError: 400
        key = job_key(spec)
        self._count("serve.router.submitted")
        last_error = "no live shards"
        for shard in self.preference(key):
            try:
                status, blob = await httpio.fetch(
                    shard.host, shard.port, "POST", "/v1/jobs", body,
                    timeout=self.config.forward_timeout,
                )
            except _TRANSPORT_ERRORS as exc:
                self._demote(shard, f"{type(exc).__name__}: {exc}")
                last_error = f"shard {shard.shard_id} unreachable"
                continue
            payload = _maybe_json(blob)
            if status == 503 and isinstance(payload, dict) \
                    and payload.get("error") == "draining":
                # The shard is shutting down on its own; take it out of
                # the intake ring and fail over like a dead shard.
                shard.draining = True
                self._count("serve.shard.failover")
                last_error = f"shard {shard.shard_id} draining"
                continue
            shard.forwarded += 1
            await _relay(writer, shard.shard_id, status, blob, payload)
            return
        self._count("serve.router.no_shard")
        await httpio.respond(
            writer, 503,
            {"error": "no_shard", "detail": last_error, "retry_after": 1},
        )

    async def _forward_job_get(self, compound: str, sub: str, query: str,
                               writer) -> None:
        shard_id, sep, local_id = compound.partition(".")
        shard = self.shards.get(shard_id)
        if not sep or shard is None:
            await httpio.respond(
                writer, 404,
                {"error": "unknown_job", "job_id": compound,
                 "detail": "job ids are <shard>.<id> behind the router"},
            )
            return
        target = f"/v1/jobs/{local_id}"
        if sub:
            target += f"/{sub}"
        if query:
            target += f"?{query}"
        if sub == "events":
            await self._pipe(shard, target, writer)
            return
        try:
            status, blob = await httpio.fetch(
                shard.host, shard.port, "GET", target,
                timeout=self.config.forward_timeout,
            )
        except _TRANSPORT_ERRORS as exc:
            self._demote(shard, f"{type(exc).__name__}: {exc}")
            await httpio.respond(
                writer, 502,
                {"error": "shard_unreachable", "shard": shard_id},
            )
            return
        # Results pass through raw: byte-identity with the shard (and
        # with a direct repro.api call) is a soak-benchmark invariant.
        await _relay(writer, shard_id, status, blob,
                     None if sub else _maybe_json(blob))

    async def _pipe(self, shard: Shard, target: str, writer) -> None:
        """Stream a shard response (event tail) through verbatim."""
        try:
            reader, upstream = await asyncio.open_connection(
                shard.host, shard.port
            )
        except OSError as exc:
            self._demote(shard, str(exc))
            await httpio.respond(
                writer, 502,
                {"error": "shard_unreachable", "shard": shard.shard_id},
            )
            return
        try:
            upstream.write(
                httpio.request_head(shard.host, shard.port, "GET", target)
            )
            await upstream.drain()
            while True:
                chunk = await reader.read(4096)
                if not chunk:
                    break
                writer.write(chunk)
                await writer.drain()
        except _TRANSPORT_ERRORS:
            pass
        finally:
            try:
                upstream.close()
                await upstream.wait_closed()
            except OSError:
                pass

    def _demote(self, shard: Shard, detail: str) -> None:
        shard.failures += 1
        if shard.healthy:
            shard.healthy = False
            self._count("serve.shard.failover")
            if OBS.enabled:
                OBS.event("shard.down", shard=shard.shard_id, detail=detail)

    # -- health --------------------------------------------------------------

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.health_interval)
            await self.probe_all()

    async def probe_all(self) -> None:
        await asyncio.gather(
            *(self._probe(s) for s in self.shards.values()),
            return_exceptions=True,
        )

    async def _probe(self, shard: Shard) -> None:
        try:
            status, blob = await httpio.fetch(
                shard.host, shard.port, "GET", "/v1/healthz",
                timeout=PROBE_TIMEOUT,
            )
        except _TRANSPORT_ERRORS:
            if shard.healthy:
                self._demote(shard, "health probe failed")
            return
        payload = _maybe_json(blob)
        draining = isinstance(payload, dict) \
            and payload.get("status") == "draining"
        if status == 200 and not draining:
            if not shard.healthy:
                self._count("serve.shard.recovered")
                if OBS.enabled:
                    OBS.event("shard.recovered", shard=shard.shard_id)
            shard.healthy = True
            shard.draining = False
        elif draining:
            shard.draining = True

    # -- stats ---------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "role": "router",
            "uptime_seconds": round(time.monotonic() - self.started, 3),
            "draining": self.draining,
            "shard_count": len(self.shards),
            "live_shards": sorted(self.live_shards()),
            "counters": dict(sorted(self.counters.items())),
            "shards": {
                sid: shard.public()
                for sid, shard in sorted(self.shards.items())
            },
            "ring": self.ring.stats(),
        }

    async def _aggregate_stats(self) -> dict:
        view = self.stats()
        shard_stats: dict = {}

        async def pull(shard: Shard) -> None:
            try:
                status, blob = await httpio.fetch(
                    shard.host, shard.port, "GET", "/v1/stats",
                    timeout=PROBE_TIMEOUT,
                )
                if status == 200:
                    shard_stats[shard.shard_id] = _maybe_json(blob)
            except _TRANSPORT_ERRORS:
                shard_stats[shard.shard_id] = None

        await asyncio.gather(
            *(pull(s) for s in self.shards.values()),
            return_exceptions=True,
        )
        view["shard_stats"] = dict(sorted(shard_stats.items()))
        return view

    # -- routes --------------------------------------------------------------

    async def _route(self, method: str, path: str, query: str, body: bytes,
                     writer) -> None:
        if method == "POST" and path == "/v1/jobs":
            if self.draining:
                await httpio.respond(writer, 503, {"error": "draining"})
                return
            await self._forward_submit(body, writer)
            return
        if method == "GET" and path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            compound, _, sub = rest.partition("/")
            await self._forward_job_get(compound, sub, query, writer)
            return
        if method == "GET" and path == "/v1/healthz":
            await httpio.respond(
                writer, 200,
                {"status": "draining" if self.draining else "ok",
                 "shards": {
                     sid: ("draining" if s.draining
                           else "ok" if s.healthy else "down")
                     for sid, s in sorted(self.shards.items())
                 }},
            )
            return
        if method == "GET" and path == "/v1/stats":
            await httpio.respond(writer, 200, await self._aggregate_stats())
            return
        if method == "GET" and path == "/v1/shards":
            await httpio.respond(
                writer, 200,
                {"shards": [
                    s.public() for _, s in sorted(self.shards.items())
                ]},
            )
            return
        if method == "POST" and path.startswith("/v1/shards/") \
                and path.endswith("/drain"):
            shard_id = path[len("/v1/shards/"):-len("/drain")]
            shard = self.shards.get(shard_id)
            if shard is None:
                await httpio.respond(
                    writer, 404,
                    {"error": "unknown_shard", "shard": shard_id},
                )
                return
            self._count("serve.shard.drained")
            await self._drain_shard(shard)
            await httpio.respond(
                writer, 200, {"status": "draining", "shard": shard_id}
            )
            return
        if method == "POST" and path == "/v1/shutdown":
            await httpio.respond(writer, 200, {"status": "draining"})
            self.start_drain()
            return
        await httpio.respond(writer, 404, {"error": "unknown_endpoint",
                                           "path": path})


async def _relay(writer, shard_id: str, status: int, blob: bytes,
                 payload) -> None:
    """Answer with a shard's reply; a job view gets its compound id."""
    if isinstance(payload, dict) and "job_id" in payload:
        payload["job_id"] = f"{shard_id}.{payload['job_id']}"
        payload["shard"] = shard_id
        await httpio.respond(writer, status, payload)
    else:
        await httpio.respond_raw(writer, status, blob)


def _maybe_json(blob: bytes):
    try:
        return json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None


# -- shard processes ----------------------------------------------------------


class ShardSupervisor:
    """Spawn and manage N ``lif serve`` shard subprocesses.

    Each shard binds an ephemeral port and gets its own journal file
    (``shard-<i>.jsonl`` under ``journal_dir``), so a killed-and-restarted
    shard replays its own accepted jobs, and its own event spool
    (``shard-<i>`` under the spool root).  The announce line on the
    shard's stderr is how the supervisor learns the bound port.
    """

    ANNOUNCE_MARKER = "listening on http://"

    def __init__(
        self,
        count: int,
        workers: Optional[int] = None,
        journal_dir: Optional[str] = None,
        env: Optional[dict] = None,
        startup_timeout: float = 60.0,
    ) -> None:
        if count < 1:
            raise ValueError("need at least one shard")
        self.count = count
        self.workers = workers
        self.journal_dir = journal_dir
        self.env = dict(env) if env else None
        self.startup_timeout = startup_timeout
        self.shards: "list[Shard]" = []

    def start(self) -> "list[Shard]":
        for index in range(self.count):
            self.shards.append(self._spawn(f"s{index}", index))
        return self.shards

    def _spawn(self, shard_id: str, index: int) -> Shard:
        command = [
            sys.executable, "-m", "repro.cli", "serve", "--port", "0",
        ]
        if self.workers is not None:
            command += ["--workers", str(self.workers)]
        if self.journal_dir:
            journal = os.path.join(
                self.journal_dir, f"shard-{index}.jsonl"
            )
            command += ["--journal", journal]
        env = dict(os.environ if self.env is None else self.env)
        env.setdefault("PYTHONUNBUFFERED", "1")
        # Job ids restart at j00000001 in every shard, so shards sharing a
        # spool would stream and unlink each other's event files.
        env[SPOOL_ENV_VAR] = os.path.join(spool_root(env), f"shard-{index}")
        process = subprocess.Popen(
            command,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        host, port = self._await_announce(process, shard_id)
        return Shard(
            shard_id=shard_id, host=host, port=port, process=process
        )

    def _await_announce(self, process, shard_id: str) -> tuple:
        deadline = time.monotonic() + self.startup_timeout
        while True:
            if time.monotonic() > deadline:
                process.kill()
                raise TimeoutError(
                    f"shard {shard_id} did not announce within "
                    f"{self.startup_timeout}s"
                )
            line = process.stderr.readline()
            if not line:
                if process.poll() is not None:
                    raise RuntimeError(
                        f"shard {shard_id} exited with "
                        f"{process.returncode} before announcing"
                    )
                time.sleep(0.05)
                continue
            marker = line.find(self.ANNOUNCE_MARKER)
            if marker < 0:
                continue
            address = line[marker + len(self.ANNOUNCE_MARKER):].split()[0]
            host, _, port_text = address.partition(":")
            self._drain_stderr(process)
            return host, int(port_text)

    @staticmethod
    def _drain_stderr(process) -> None:
        """Keep reading the shard's stderr so the pipe never blocks it."""

        def pump() -> None:
            try:
                for _ in process.stderr:
                    pass
            except (OSError, ValueError):
                pass

        threading.Thread(target=pump, daemon=True).start()

    def kill(self, shard_id: str) -> None:
        """SIGKILL one shard — the crash the journal exists for."""
        shard = self._find(shard_id)
        if shard.process is not None:
            shard.process.send_signal(signal.SIGKILL)
            shard.process.wait(timeout=30)
        shard.healthy = False

    def restart(self, shard_id: str) -> Shard:
        """Respawn a killed shard in place (same id, same journal)."""
        shard = self._find(shard_id)
        index = self.shards.index(shard)
        if shard.process is not None and shard.process.poll() is None:
            shard.process.kill()
            shard.process.wait(timeout=30)
        fresh = self._spawn(shard_id, index)
        # Mutate in place: the router holds a reference to this Shard.
        shard.host = fresh.host
        shard.port = fresh.port
        shard.process = fresh.process
        shard.healthy = True
        shard.draining = False
        return shard

    def _find(self, shard_id: str) -> Shard:
        for shard in self.shards:
            if shard.shard_id == shard_id:
                return shard
        raise KeyError(f"unknown shard {shard_id!r}")

    def stop(self) -> None:
        for shard in self.shards:
            process = shard.process
            if process is None or process.poll() is not None:
                continue
            process.terminate()
        for shard in self.shards:
            process = shard.process
            if process is None:
                continue
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=30)


def run_router(config: RouterConfig, shards: "list[Shard]",
               announce=None) -> int:
    """Run the router until drained (``lif serve --shards N``)."""
    return httpio.run_service(lambda: RouterServer(config, shards), announce)


class RouterThread(httpio.ServiceThread):
    """An in-process router on a background thread (tests, benchmarks)."""

    def __init__(self, config: RouterConfig, shards: "list[Shard]") -> None:
        self.config = config
        self.shards = shards
        super().__init__(
            "repro-serve-router", lambda: RouterServer(config, shards)
        )

    @property
    def router(self) -> Optional[RouterServer]:
        return self.service

    def probe_now(self) -> None:
        """Force an immediate health sweep (tests don't wait the interval)."""
        if self.loop is not None and self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self.router.probe_all(), self.loop
            )
            future.result(timeout=30)
