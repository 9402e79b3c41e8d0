"""Tests for the sharded worker fleet behind the front router.

One module-scoped two-worker fleet serves two cities whose ``(city,
isp)`` hashes land on different shards; tests cover routing
byte-identity, worker failover, telemetry aggregation, and error
relay.  Workers are real subprocesses, so this module is the slowest
in the serving suite.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.core.bst import BSTModel
from repro.market.isps import city_catalog
from repro.obs.metrics import parse_prometheus_text
from repro.serve.client import ServeClient, ServeError
from repro.serve.engine import TierAssigner
from repro.serve.registry import ModelRegistry, shard_for
from repro.serve.router import (
    RouterConfig,
    RouterServer,
    WorkerHandle,
    _RouterService,
    build_router,
)
from repro.vendors.ookla import OoklaSimulator

N_WORKERS = 2


@pytest.fixture(scope="module")
def fleet_registry(tmp_path_factory):
    """(registry root, {city: (result, downloads, uploads)})."""
    root = tmp_path_factory.mktemp("router-registry")
    registry = ModelRegistry(root)
    models = {}
    for city in ("A", "B"):
        table = OoklaSimulator(city, seed=11).generate(3_000)
        catalog = city_catalog(city)
        downs = np.asarray(table["download_mbps"], dtype=float)
        ups = np.asarray(table["upload_mbps"], dtype=float)
        result = BSTModel(catalog).fit(downs, ups)
        registry.register(
            registry.key_for(city, catalog),
            result,
            downloads=downs,
            uploads=ups,
        )
        models[city] = (result, downs, ups)
    return root, models


def _start_router(root):
    server = build_router(
        root,
        RouterConfig(port=0, n_workers=N_WORKERS, default_city="A"),
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServeClient(f"http://{host}:{port}", timeout_s=60.0)
    return client, server, thread


@pytest.fixture(scope="module")
def fleet(fleet_registry):
    """(client, server, {city: (result, downloads, uploads)})."""
    root, models = fleet_registry
    client, server, thread = _start_router(root)
    yield client, server, models
    server.shutdown()
    server.server_close()
    thread.join(timeout=30)


def test_cities_land_on_distinct_shards():
    shards = {
        city: shard_for(city, city_catalog(city).isp_name, N_WORKERS)
        for city in ("A", "B")
    }
    assert set(shards.values()) == set(range(N_WORKERS))


def test_routed_assignment_is_byte_identical(fleet):
    client, _, models = fleet
    for city, (result, downs, ups) in models.items():
        exact = TierAssigner(result).assign(downs[:400], ups[:400])
        out = client.assign(
            downs[:400].tolist(), ups[:400].tolist(), city=city
        )
        assert out["tiers"] == exact.tiers.tolist()
        assert out["group_indices"] == exact.group_indices.tolist()
        assert out["model"]["city"] == city


def test_default_city_routes_without_selector(fleet):
    client, _, models = fleet
    result, downs, ups = models["A"]
    out = client.assign(downs[:5].tolist(), ups[:5].tolist())
    assert out["model"]["city"] == "A"


def test_healthz_reports_fleet(fleet):
    client, _, _ = fleet
    health = client.healthz()
    assert health["status"] == "ok"
    assert health["router"]["n_workers"] == N_WORKERS
    assert health["router"]["workers_alive"] == N_WORKERS
    assert len(health["workers"]) == N_WORKERS
    for worker_health in health["workers"]:
        assert worker_health["status"] == "ok"


def test_models_endpoint_lists_both_cities(fleet):
    client, _, _ = fleet
    cities = {record["city"] for record in client.models()}
    assert cities == {"A", "B"}


def test_metrics_aggregate_across_workers(fleet):
    client, _, models = fleet
    # Touch both shards so both workers hold traffic counters.
    for city, (_, downs, ups) in models.items():
        client.assign(downs[:3].tolist(), ups[:3].tolist(), city=city)
    families = parse_prometheus_text(client.metrics_text())
    # Worker families survive aggregation and keep their sample shape.
    assert families["serve_requests_total"][0][1] > 0
    assert families["serve_status_2xx_total"][0][1] > 0
    assert "serve_request_latency_s_window" in families
    # The router's own instruments ride along in the same exposition.
    assert families["serve_router_requests_total"][0][1] > 0
    assert families["serve_router_forwarded_total"][0][1] > 0
    assert families["serve_router_workers_alive"][0][1] == N_WORKERS


def test_router_own_family_replaces_workers_copies(fleet):
    # Every worker's drift monitor emits stream.*; a --refit router
    # monitor emits the same names, and the exposition names each once.
    client, server, models = fleet
    _, downs, ups = models["A"]
    client.assign(downs[:3].tolist(), ups[:3].tolist(), city="A")
    workers_only = parse_prometheus_text(client.metrics_text())
    assert workers_only["stream_events_total"][0][1] >= 3
    server.router.metrics.counter("stream.events").inc(7)
    families = parse_prometheus_text(client.metrics_text())
    assert families["stream_events_total"] == [({}, 7.0)]


def test_error_relay_keeps_structured_body(fleet):
    client, _, _ = fleet
    with pytest.raises(ServeError) as excinfo:
        client.assign([1.0], [1.0], city="Z")
    assert excinfo.value.status == 404
    assert excinfo.value.trace_id
    with pytest.raises(ServeError) as excinfo:
        client.assign([float("nan")], [1.0], city="A")
    assert excinfo.value.status == 400
    assert excinfo.value.trace_id


def test_dead_worker_restarts_on_next_request(fleet):
    client, server, models = fleet
    result, downs, ups = models["A"]
    shard = shard_for("A", city_catalog("A").isp_name, N_WORKERS)
    handle = server.router.workers[shard]
    old_pid = handle.pid
    handle.proc.kill()
    handle.proc.wait()
    assert not handle.alive
    out = client.assign(downs[:10].tolist(), ups[:10].tolist(), city="A")
    exact = TierAssigner(result).assign(downs[:10], ups[:10])
    assert out["tiers"] == exact.tiers.tolist()
    assert handle.alive
    assert handle.pid != old_pid
    assert handle.restarts >= 1


def test_reload_fans_out_to_owning_shard(fleet, tmp_path):
    """POST /reload re-registers + hot-swaps through the router."""
    client, server, models = fleet
    registry = server.router.registry
    result, downs, ups = models["A"]
    catalog = city_catalog("A")
    key = registry.key_for("A", catalog)
    slug = key.slug
    new_fit = BSTModel(catalog).fit(downs * 0.35, ups * 0.35)
    new_expected = TierAssigner(new_fit).assign(downs[:50], ups[:50])
    old_expected = TierAssigner(result).assign(downs[:50], ups[:50])
    assert new_expected.tiers.tolist() != old_expected.tiers.tolist()
    try:
        registry.register(key, new_fit, downloads=downs, uploads=ups)
        out = client.reload([slug])
        assert slug in out["reloaded"]
        assert len(out["workers"]) == 1  # only the owning shard
        assert out["workers"][0]["status"] == 200
        swapped = client.assign(
            downs[:50].tolist(), ups[:50].tolist(), city="A"
        )
        assert swapped["tiers"] == new_expected.tiers.tolist()
    finally:
        # Restore the original generation for any later test.
        registry.register(key, result, downloads=downs, uploads=ups)
        client.reload([slug])
    back = client.assign(downs[:50].tolist(), ups[:50].tolist(), city="A")
    assert back["tiers"] == old_expected.tiers.tolist()


# ---------------------------------------------------------------------------
# Pooled keep-alive connections to the workers
# ---------------------------------------------------------------------------
def _counter(server, name: str) -> float:
    return server.router.metrics.counter(name).value


def _shard_handle(server, city: str) -> WorkerHandle:
    shard = shard_for(city, city_catalog(city).isp_name, N_WORKERS)
    return server.router.workers[shard]


def test_shutdown_with_warm_pooled_connections_is_prompt(fleet_registry):
    """Idle pooled sockets pin worker handler threads; the router closes
    them before SIGTERM, so both workers drain and exit 0 at once
    instead of waiting out their socket timeouts."""
    root, models = fleet_registry
    client, server, thread = _start_router(root)
    try:
        for city, (_, downs, ups) in models.items():
            for _ in range(3):
                client.assign(downs[:5].tolist(), ups[:5].tolist(), city=city)
        handles = server.router.workers
        for handle in handles:
            assert handle._idle, "no warm pooled connection"
        procs = [handle.proc for handle in handles]
    finally:
        t0 = time.monotonic()
        server.shutdown()
        server.server_close()
        elapsed = time.monotonic() - t0
        thread.join(timeout=30)
    assert [proc.returncode for proc in procs] == [0] * N_WORKERS
    assert all(not handle._idle for handle in handles)
    # A worker's socket timeout is 10 s; waiting on one idle pooled
    # connection would take at least that long.
    assert elapsed < 5.0, f"router shutdown took {elapsed:.1f}s"


def test_worker_closed_pooled_socket_is_retried_without_restart(fleet):
    client, server, models = fleet
    result, downs, ups = models["A"]
    client.assign(downs[:5].tolist(), ups[:5].tolist(), city="A")
    handle = _shard_handle(server, "A")
    pid, restarts = handle.pid, handle.restarts
    worker_restarts = _counter(server, "serve.router.worker_restarts")
    stale = _counter(server, "serve.router.stale_retries")
    # Make the worker close a pooled connection: a request line it
    # rejects is answered with Connection: close, then EOF.
    conn, reused = handle.connection()
    assert reused
    conn.sock.sendall(b"BOGUS / HTTP/1.1\r\n\r\n")
    while conn.sock.recv(65536):
        pass
    handle.release(conn)
    out = client.assign(downs[:10].tolist(), ups[:10].tolist(), city="A")
    exact = TierAssigner(result).assign(downs[:10], ups[:10])
    assert out["tiers"] == exact.tiers.tolist()
    assert _counter(server, "serve.router.stale_retries") == stale + 1
    assert _counter(server, "serve.router.worker_restarts") == (
        worker_restarts
    )
    assert (handle.pid, handle.restarts) == (pid, restarts)


def test_restart_never_reuses_a_connection_to_the_old_port(fleet):
    client, server, models = fleet
    result, downs, ups = models["A"]
    handle = _shard_handle(server, "A")
    for _ in range(2):
        client.assign(downs[:5].tolist(), ups[:5].tolist(), city="A")
    old_port = int(handle.base_url.rsplit(":", 1)[1])
    # One connection is checked out (in flight) across the restart,
    # the others sit idle in the pool.
    in_flight, _ = handle.connection()
    idle_before = list(handle._idle)
    worker_restarts = _counter(server, "serve.router.worker_restarts")
    handle.proc.kill()
    handle.proc.wait()
    out = client.assign(downs[:10].tolist(), ups[:10].tolist(), city="A")
    exact = TierAssigner(result).assign(downs[:10], ups[:10])
    assert out["tiers"] == exact.tiers.tolist()
    assert _counter(server, "serve.router.worker_restarts") == (
        worker_restarts + 1
    )
    new_port = int(handle.base_url.rsplit(":", 1)[1])
    assert new_port != old_port
    assert all(conn.sock is None for conn in idle_before)  # closed
    handle.release(in_flight)
    assert in_flight.sock is None  # closed, not pooled
    assert handle._idle
    assert all(conn.port == new_port for conn in handle._idle)


# ---------------------------------------------------------------------------
# Malformed input and broken workers
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("length", ["abc", "1.5", "-3"])
def test_non_integer_content_length_is_structured_400(
    fleet, raw_post, length
):
    client, server, _ = fleet
    status, body = raw_post(client.base_url, "/assign", length)
    assert status == 400
    assert "Content-Length" in body["error"]["message"]
    assert body["error"]["trace_id"]


@pytest.mark.parametrize(
    "uploads", [[5.0, 6.0], []], ids=["two_uploads", "no_uploads"]
)
def test_unpaired_stream_body_is_structured_400(fleet, uploads):
    client, server, _ = fleet
    with pytest.raises(ServeError) as excinfo:
        client.assign([100.0], uploads, city="A", stream=True)
    assert excinfo.value.status == 400
    assert "pair one-to-one" in str(excinfo.value)
    assert excinfo.value.trace_id


def test_negative_content_length_on_reload_is_400(fleet, raw_post):
    client, server, _ = fleet
    reloads = _counter(server, "serve.router.reloads")
    status, body = raw_post(client.base_url, "/reload", "-1")
    assert status == 400
    assert "Content-Length" in body["error"]["message"]
    assert _counter(server, "serve.router.reloads") == reloads


def test_each_response_is_one_write(fleet, response_writes):
    """Headers and body leave in one write (no Nagle/delayed-ACK split)."""
    client, server, models = fleet
    _, downs, ups = models["A"]
    host, port = server.server_address[:2]
    body = json.dumps(
        {"downloads": downs[:20].tolist(), "uploads": ups[:20].tolist()}
    ).encode()
    with response_writes(server) as writes:
        conn = http.client.HTTPConnection(host, port, timeout=60)
        try:
            statuses = []
            for method, path, payload in (
                ("POST", "/assign", body),
                ("GET", "/models", None),
                ("GET", "/nope", None),
            ):
                conn.request(method, path, body=payload)
                response = conn.getresponse()
                response.read()
                statuses.append(response.status)
        finally:
            conn.close()
    assert statuses == [200, 200, 404]
    assert len(writes) == 3


_TRUNCATED = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    b"Content-Length: 500\r\n\r\n{\"tiers\": ["
)


@pytest.mark.parametrize(
    "reply", [_TRUNCATED, b"garbage\r\n\r\n"], ids=["truncated", "bad-status"]
)
def test_malformed_worker_response_is_502(
    tmp_path, fitted_a, catalog_a, reply
):
    """http.client.HTTPException from a forward maps to 502, not 500."""
    listener = socket.create_server(("127.0.0.1", 0))
    stop = threading.Event()

    def stub_worker() -> None:
        listener.settimeout(0.2)
        while not stop.is_set():
            try:
                sock, _ = listener.accept()
            except socket.timeout:
                continue
            with sock:
                sock.settimeout(10)
                data = b""
                while b"\r\n\r\n" not in data:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    data += chunk
                sock.sendall(reply)

    stub = threading.Thread(target=stub_worker, daemon=True)
    stub.start()
    registry = ModelRegistry(tmp_path / "models")
    registry.register(registry.key_for("A", catalog_a), fitted_a)
    config = RouterConfig(port=0, n_workers=1, default_city="A")
    handle = WorkerHandle(0, tmp_path / "models", config)
    handle._reset_pool(listener.getsockname()[:2])
    restarts = []
    handle.restart = lambda: restarts.append(1)  # no real process
    router = _RouterService(registry, config, [handle])
    server = RouterServer(("127.0.0.1", 0), router)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        client = ServeClient(f"http://{host}:{port}", timeout_s=30.0)
        with pytest.raises(ServeError) as excinfo:
            client.assign([110.0], [5.5])
        assert excinfo.value.status == 502
        assert "worker unavailable" in excinfo.value.message
        assert excinfo.value.trace_id
        assert restarts == [1]  # one restart-and-retry, then 502
        assert router.metrics.counter("serve.router.errors").value == 1
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        stop.set()
        stub.join(timeout=10)
        listener.close()
