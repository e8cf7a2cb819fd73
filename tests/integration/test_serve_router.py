"""Integration tests of the consistent-hash shard router.

Two in-process shard servers (thread-mode pools) behind an in-process
router thread: routing, byte-identity through the extra hop, shard
affinity, per-shard draining, and failover to live shards.
"""

import json
import socket
import threading
import time

import pytest

from repro.serve import (
    JobSpec,
    canonical_result_bytes,
    execute_job,
    job_key,
)
from repro.serve.client import ServeClient
from repro.serve.jobs import clear_warm_modules
from repro.serve.router import (
    RouterConfig,
    RouterThread,
    Shard,
    ShardSupervisor,
)
from repro.serve.server import ServeConfig, ServerThread

GATE = """
uint gate(secret uint s, uint p) {
  uint y = 0;
  if (s > p) {
    y = 3;
  } else {
    y = 8;
  }
  return y;
}
"""


def _variant(index):
    return JobSpec(
        kind="repair", source=GATE + f"// route {index}\n", name=f"r{index}"
    )


@pytest.fixture()
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_warm_modules()
    yield tmp_path
    clear_warm_modules()


@pytest.fixture()
def fleet(isolated_cache):
    """Two thread-mode shards behind a router; yields (router, backends)."""
    backends = [
        ServerThread(ServeConfig.from_env(port=0, workers=0)).start()
        for _ in range(2)
    ]
    shards = [
        Shard(f"s{i}", backend.host, backend.port)
        for i, backend in enumerate(backends)
    ]
    router = RouterThread(RouterConfig(port=0, health_interval=0.2), shards)
    router.start()
    yield router, backends
    router.request_drain()
    router.join()
    for backend in backends:
        backend.request_drain()
        backend.join()


def test_jobs_route_complete_and_match_direct_api(fleet):
    router, _ = fleet
    client = ServeClient(router.host, router.port)
    accepted = {}
    for i in range(6):
        response = client.submit(_variant(i))
        assert response["job_id"].split(".")[0] in ("s0", "s1")
        accepted[i] = response["job_id"]
    for i, compound in accepted.items():
        view = client.wait(compound, timeout=120)
        assert view["status"] == "done"
        assert view["job_id"] == compound  # compound id echoed back
        blob = client.result_bytes(compound)
        direct = canonical_result_bytes(execute_job(_variant(i)))
        assert blob == direct


def test_identical_submissions_share_a_shard_and_coalesce(fleet):
    router, _ = fleet
    client = ServeClient(router.host, router.port)
    spec = _variant(42)
    first = client.submit(spec)
    second = client.submit(spec)
    shard_of = lambda r: r["job_id"].split(".")[0]  # noqa: E731
    assert shard_of(first) == shard_of(second)
    assert second.get("coalesced") or second.get("cached")
    client.wait(first["job_id"], timeout=120)


def test_spread_uses_both_shards(fleet):
    router, _ = fleet
    # The ring itself must spread these keys over both shards.
    owners = {
        router.router.ring.route(job_key(_variant(i))) for i in range(32)
    }
    assert owners == {"s0", "s1"}


def test_per_shard_drain_moves_intake_to_the_rest(fleet):
    router, _ = fleet
    client = ServeClient(router.host, router.port)
    drained = client._json("POST", "/v1/shards/s0/drain")
    assert drained == {"status": "draining", "shard": "s0"}
    for i in range(8):
        response = client.submit(_variant(100 + i))
        assert response["job_id"].startswith("s1."), response
    health = client.health()
    assert health["shards"]["s0"] == "draining"
    assert health["shards"]["s1"] == "ok"


def test_dead_shard_fails_over_to_live_one(fleet):
    router, backends = fleet
    # Kill shard s0 outright (drain + join = socket gone).
    backends[0].request_drain()
    backends[0].join()
    router.probe_now()
    client = ServeClient(router.host, router.port)
    for i in range(6):
        response = client.submit(_variant(200 + i))
        assert response["job_id"].startswith("s1."), response
        assert client.wait(response["job_id"], timeout=120)["status"] == "done"
    stats = client.stats()
    assert stats["live_shards"] == ["s1"]
    assert stats["shards"]["s0"]["healthy"] is False


def test_failover_counter_fires_on_forward_failure(fleet):
    router, backends = fleet
    backends[1].request_drain()
    backends[1].join()
    client = ServeClient(router.host, router.port)
    # Without a probe, the router discovers the dead shard on the first
    # forward that fails, demotes it, and retries the next preference.
    for i in range(12):
        response = client.submit(_variant(300 + i))
        assert response["job_id"].startswith("s0."), response
    counters = client.stats()["counters"]
    assert counters.get("serve.shard.failover", 0) >= 1


def test_compound_job_id_is_required_behind_the_router(fleet):
    router, _ = fleet
    client = ServeClient(router.host, router.port)
    for bogus in ("j00000001", "nope.j1", "s0"):
        status, blob = client._request("GET", f"/v1/jobs/{bogus}")
        assert status == 404, bogus
        assert json.loads(blob.decode())["error"] == "unknown_job"


def test_aggregate_stats_include_shard_views(fleet):
    router, _ = fleet
    client = ServeClient(router.host, router.port)
    done = client.submit(_variant(7))
    client.wait(done["job_id"], timeout=120)
    stats = client.stats()
    assert stats["role"] == "router"
    assert stats["shard_count"] == 2
    assert set(stats["shard_stats"]) == {"s0", "s1"}
    owner = done["job_id"].split(".")[0]
    assert stats["shard_stats"][owner]["counters"]["serve.completed"] >= 1
    assert stats["ring"]["replicas"] >= 1


def test_event_stream_pipes_through_the_router(fleet):
    router, _ = fleet
    client = ServeClient(router.host, router.port)
    accepted = client.submit(_variant(55))
    client.wait(accepted["job_id"], timeout=120)
    names = [event.get("event") for event in
             client.events(accepted["job_id"], timeout=60)]
    assert "job.queued" in names
    assert "job.done" in names


def test_spawned_shards_keep_separate_event_spools(isolated_cache):
    # Every shard numbers its jobs from j00000001; the first job of each
    # shard must stream only its own events.
    supervisor = ShardSupervisor(2, workers=0)
    shards = supervisor.start()
    router = RouterThread(RouterConfig(port=0, health_interval=0.2), shards)
    try:
        router.start()
        client = ServeClient(router.host, router.port)
        first = {}
        for i in range(32):
            spec = _variant(100 + i)
            first.setdefault(router.router.ring.route(job_key(spec)), spec)
        assert set(first) == {"s0", "s1"}
        keys = {}
        for owner, spec in sorted(first.items()):
            accepted = client.submit(spec)
            assert accepted["job_id"] == f"{owner}.j00000001"
            client.wait(accepted["job_id"], timeout=120)
            keys[accepted["job_id"]] = accepted["key"]
        for job_id, key in keys.items():
            queued = [event["key"] for event in
                      client.events(job_id, timeout=60)
                      if event.get("event") == "job.queued"]
            assert queued == [key], job_id
        spool = isolated_cache / "cache" / "serve-spool"
        assert sorted(p.name for p in spool.iterdir()) == [
            "shard-0", "shard-1",
        ]
    finally:
        router.request_drain()
        router.join()
        supervisor.stop()


def _hold_thread_after_loop_close(handle):
    """Keep a harness thread alive just after ``asyncio.run`` has closed
    its loop: the window a late drain request can land in."""
    closed, release = threading.Event(), threading.Event()
    close = handle.loop.close

    def held_close():
        close()
        closed.set()
        release.wait(60)

    handle.loop.close = held_close
    return closed, release


def test_drain_request_after_shutdown_is_a_noop(isolated_cache):
    backend = ServerThread(ServeConfig.from_env(port=0, workers=0)).start()
    router = RouterThread(
        RouterConfig(port=0, health_interval=0.2),
        [Shard("s0", backend.host, backend.port)],
    ).start()
    handles = (router, backend)
    held = [_hold_thread_after_loop_close(handle) for handle in handles]
    # Draining the router also shuts its shard down (POST /v1/shutdown),
    # so both loops close on their own, as in the fleet fixture.
    router.request_drain()
    try:
        for handle, (closed, _) in zip(handles, held):
            assert closed.wait(60)
            assert handle._thread.is_alive()
            # Already drained: must neither raise nor schedule a drain.
            handle.request_drain()
    finally:
        for handle, (_, release) in zip(handles, held):
            release.set()
            handle.join()


def _raw_request(port, request: bytes):
    """Send ``request`` verbatim; returns (status, decoded JSON body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        sock.sendall(request)
        reply = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


def _internal_errors(stats):
    """``*internal_errors`` counters of a front end and of its shards."""
    views = [stats] + list((stats.get("shard_stats") or {}).values())
    return sum(
        value for view in views
        for name, value in view["counters"].items()
        if name.endswith("internal_errors")
    )


@pytest.mark.parametrize("front", ["server", "router"])
def test_malformed_client_input_is_a_400(front, isolated_cache, monkeypatch):
    # The first job dispatched sleeps 3 s, so it is still running below.
    monkeypatch.setenv("REPRO_SERVE_FAULTS", "slow@1:3")
    backend = ServerThread(
        ServeConfig.from_env(port=0, workers=0, wait_timeout=0.3)
    ).start()
    handles = [backend]
    if front == "router":
        handles.insert(0, RouterThread(
            RouterConfig(port=0, health_interval=0.2),
            [Shard("s0", backend.host, backend.port)],
        ).start())
    port = handles[0].port
    try:
        for length in (b"abc", b"-5"):
            status, payload = _raw_request(
                port,
                b"POST /v1/jobs HTTP/1.1\r\nContent-Length: " + length
                + b"\r\n\r\n{}",
            )
            assert (status, payload["error"]) == (400, "bad_request")
            assert "Content-Length" in payload["detail"]
        client = ServeClient("127.0.0.1", port)
        job_id = client.submit(_variant(0))["job_id"]
        status, payload = _raw_request(
            port,
            f"GET /v1/jobs/{job_id}?wait=1&timeout=abc HTTP/1.1\r\n\r\n"
            .encode(),
        )
        assert (status, payload["error"]) == (400, "bad_request")
        # The server's wait_timeout (0.3 s) bounds a longer ?timeout=.
        started = time.monotonic()
        status, view = _raw_request(
            port,
            f"GET /v1/jobs/{job_id}?wait=1&timeout=600 HTTP/1.1\r\n\r\n"
            .encode(),
        )
        assert time.monotonic() - started < 2.5
        assert status == 200 and view["status"] in ("queued", "running")
        assert client.wait(job_id, timeout=120)["status"] == "done"
        assert _internal_errors(client.stats()) == 0
    finally:
        for handle in handles:
            handle.request_drain()
            handle.join()
