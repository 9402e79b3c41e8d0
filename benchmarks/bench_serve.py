"""Serving benchmarks: warm-registry assignment vs refit-per-request.

Asserts the serving contracts from docs/SERVING.md:

- a warm registry makes ``contextualize`` at least **20x** faster than
  refitting per request (the fit is the pipeline's dominant cost; the
  warm path only re-runs the frozen predictors) while producing
  byte-identical context columns;
- the stdlib HTTP server sustains at least **1000 assignments/sec**
  with a single worker process;
- the sharded multi-worker router sustains at least **20,000
  assignments/sec** while each routed response stays byte-identical
  to the exact in-process engine;
- on one keep-alive connection to a 2-worker router, sequential
  ``/assign`` requests return at their service time: the median of
  50 streamed single tuples and of 20 2000-row batches each stays
  under **25 ms**.  A response written as two segments (headers, then
  body) stalls ~40 ms per request on Nagle + delayed ACK; fresh
  connections per request never show that, keep-alive clients do.

Emits ``BENCH_serve.json`` (via :func:`repro.obs.runs.record_bench`)
so ``repro obs check`` tracks serving regressions alongside the other
benchmarks.  Run with ``-s`` to see the timing tables::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve.py -q -s
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time
import urllib.request

import numpy as np

from repro.frame import write_csv
from repro.market import city_catalog
from repro.obs import use_collector, use_registry
from repro.obs.runs import record_bench
from repro.pipeline.contextualize import contextualize
from repro.serve.engine import TierAssigner
from repro.serve.registry import ModelRegistry
from repro.serve.router import RouterConfig, build_router
from repro.serve.server import ServeConfig, build_server
from repro.vendors.ookla import OoklaSimulator

SERVE_N = int(os.environ.get("REPRO_BENCH_SERVE_N", "40000"))
HTTP_REQUESTS = 20
HTTP_BATCH = 200
ROUTER_WORKERS = 2
ROUTER_THREADS = 4
ROUTER_REQUESTS = 40
ROUTER_BATCH = 2000
KEEPALIVE_STREAM_REQUESTS = 50
KEEPALIVE_BULK_REQUESTS = 20
KEEPALIVE_BULK_ROWS = 2000
KEEPALIVE_P50_MS = 25.0


def _stage_table(collector) -> str:
    """Per-span-name timing summary (same layout as conftest's)."""
    stats = collector.aggregate_stats()
    if not stats:
        return "(no spans recorded)"
    width = max(len(name) for name in stats)
    lines = [
        f"{'stage'.ljust(width)}  calls  total ms    p50 ms    p95 ms"
    ]
    for name in sorted(
        stats, key=lambda n: stats[n]["total_s"], reverse=True
    ):
        row = stats[name]
        lines.append(
            f"{name.ljust(width)}  {int(row['count']):>5}  "
            f"{row['total_s'] * 1e3:>8.1f}  "
            f"{row['p50_s'] * 1e3:>8.2f}  {row['p95_s'] * 1e3:>8.2f}"
        )
    return "\n".join(lines)


def test_warm_registry_vs_refit_and_throughput(benchmark, tmp_path):
    """Warm-path speedup >= 20x, byte-identical; server >= 1000/s."""
    catalog = city_catalog("A")
    tests = OoklaSimulator("A", seed=0).generate(SERVE_N)
    registry = ModelRegistry(tmp_path / "models")

    with use_collector() as collector, use_registry() as metrics:
        # Refit-per-request baseline: the plain contextualize path.
        t0 = time.perf_counter()
        refit = contextualize(tests, catalog)
        refit_s = time.perf_counter() - t0

        # Cold registry pass fits once and registers.
        contextualize(tests, catalog, registry=registry, city="A")

        # Warm path: model comes from the registry, no fit.
        t0 = time.perf_counter()
        warm = contextualize(tests, catalog, registry=registry, city="A")
        warm_s = time.perf_counter() - t0

        metrics.gauge("serve.bench.refit_s").set(refit_s)
        metrics.gauge("serve.bench.warm_s").set(warm_s)
        metrics.gauge("serve.bench.speedup").set(refit_s / warm_s)

        # Parity: the warm path's output is byte-identical.
        refit_csv = tmp_path / "refit.csv"
        warm_csv = tmp_path / "warm.csv"
        write_csv(refit.table, refit_csv)
        write_csv(warm.table, warm_csv)
        byte_identical = refit_csv.read_bytes() == warm_csv.read_bytes()

        # Single-worker HTTP throughput over the warm registry.
        server = build_server(
            registry, ServeConfig(port=0, default_city="A")
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            url = f"http://{host}:{port}/assign"
            downs = np.asarray(tests["download_mbps"], dtype=float)
            ups = np.asarray(tests["upload_mbps"], dtype=float)
            finite = np.isfinite(downs) & np.isfinite(ups)
            downs, ups = downs[finite], ups[finite]
            bodies = [
                json.dumps(
                    {
                        "downloads": downs[i : i + HTTP_BATCH].tolist(),
                        "uploads": ups[i : i + HTTP_BATCH].tolist(),
                    }
                ).encode("utf-8")
                for i in range(0, HTTP_REQUESTS * HTTP_BATCH, HTTP_BATCH)
            ]
            t0 = time.perf_counter()
            assigned = 0
            for body in bodies:
                request = urllib.request.Request(
                    url,
                    data=body,
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request, timeout=30) as resp:
                    assigned += len(json.loads(resp.read())["tiers"])
            http_s = time.perf_counter() - t0
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        throughput = assigned / http_s
        metrics.gauge("serve.bench.http_rps").set(throughput)

        # Raw engine rate: the vectorised exact path, no HTTP in the way.
        assigner = TierAssigner(registry.load(registry.key_for("A", catalog))[0])
        t0 = time.perf_counter()
        assigner.assign(downs, ups)
        engine_rows_s = downs.size / (time.perf_counter() - t0)
        metrics.gauge("serve.bench.engine_rows_s").set(engine_rows_s)

        # Sharded multi-worker path: a second city on the other shard,
        # a 2-worker router in front, concurrent clients, and a
        # byte-identity check on every routed response.
        catalog_b = city_catalog("B")
        tests_b = OoklaSimulator("B", seed=0).generate(SERVE_N)
        contextualize(tests_b, catalog_b, registry=registry, city="B")
        downs_b = np.asarray(tests_b["download_mbps"], dtype=float)
        ups_b = np.asarray(tests_b["upload_mbps"], dtype=float)
        finite_b = np.isfinite(downs_b) & np.isfinite(ups_b)
        downs_b, ups_b = downs_b[finite_b], ups_b[finite_b]
        assigner_b = TierAssigner(
            registry.load(registry.key_for("B", catalog_b))[0]
        )
        speeds = {"A": (downs, ups), "B": (downs_b, ups_b)}
        exacts = {"A": assigner, "B": assigner_b}
        requests_spec = []
        for i in range(ROUTER_REQUESTS):
            city = "AB"[i % 2]
            d, u = speeds[city]
            rows = np.arange(i * ROUTER_BATCH, (i + 1) * ROUTER_BATCH) % d.size
            expected = exacts[city].assign(d[rows], u[rows])
            requests_spec.append(
                (
                    json.dumps(
                        {
                            "downloads": d[rows].tolist(),
                            "uploads": u[rows].tolist(),
                            "city": city,
                        }
                    ).encode("utf-8"),
                    expected.tiers.tolist(),
                )
            )
        router = build_router(
            tmp_path / "models",
            RouterConfig(
                port=0, n_workers=ROUTER_WORKERS, default_city="A"
            ),
        )
        router_thread = threading.Thread(
            target=router.serve_forever, daemon=True
        )
        router_thread.start()
        try:
            rhost, rport = router.server_address[:2]
            router_url = f"http://{rhost}:{rport}/assign"
            mismatches: list[int] = []
            router_assigned = [0] * ROUTER_THREADS
            errors: list[Exception] = []

            def _drive(worker_idx: int) -> None:
                try:
                    for j in range(
                        worker_idx, len(requests_spec), ROUTER_THREADS
                    ):
                        body, expected_tiers = requests_spec[j]
                        request = urllib.request.Request(
                            router_url,
                            data=body,
                            headers={"Content-Type": "application/json"},
                        )
                        with urllib.request.urlopen(
                            request, timeout=60
                        ) as resp:
                            out = json.loads(resp.read())
                        if out["tiers"] != expected_tiers:
                            mismatches.append(j)
                        router_assigned[worker_idx] += len(out["tiers"])
                except Exception as exc:  # surface in the main thread
                    errors.append(exc)

            # Warm both shards (model load + first JSON parse) off the
            # clock, then measure the sustained concurrent rate.
            for city in ("A", "B"):
                d, u = speeds[city]
                warm_body = json.dumps(
                    {
                        "downloads": d[:8].tolist(),
                        "uploads": u[:8].tolist(),
                        "city": city,
                    }
                ).encode("utf-8")
                request = urllib.request.Request(
                    router_url,
                    data=warm_body,
                    headers={"Content-Type": "application/json"},
                )
                urllib.request.urlopen(request, timeout=60).read()
            drivers = [
                threading.Thread(target=_drive, args=(i,))
                for i in range(ROUTER_THREADS)
            ]
            t0 = time.perf_counter()
            for driver in drivers:
                driver.start()
            for driver in drivers:
                driver.join()
            router_s = time.perf_counter() - t0
        finally:
            router.shutdown()
            router_thread.join(timeout=30)
            router.server_close()
        if errors:
            raise errors[0]
        router_throughput = sum(router_assigned) / router_s
        router_identical = not mismatches
        metrics.gauge("serve.bench.router_rps").set(router_throughput)

    record_bench(
        "serve",
        wall_s=refit_s + warm_s + http_s,
        collector=collector,
        registry=metrics,
        results={
            "refit_s": refit_s,
            "warm_s": warm_s,
            "speedup": refit_s / warm_s,
            "byte_identical": float(byte_identical),
            "http_assignments_per_s": throughput,
            "engine_rows_per_s": engine_rows_s,
            "router_assignments_per_s": router_throughput,
            "router_byte_identical": float(router_identical),
        },
        params={
            "n": SERVE_N,
            "http_requests": HTTP_REQUESTS,
            "http_batch": HTTP_BATCH,
            "router_workers": ROUTER_WORKERS,
            "router_threads": ROUTER_THREADS,
            "router_requests": ROUTER_REQUESTS,
            "router_batch": ROUTER_BATCH,
        },
        seed=0,
    )

    print()
    print(f"-- warm registry vs refit (n={SERVE_N}, city A) --")
    print(f"refit per request: {refit_s * 1e3:9.1f} ms")
    print(
        f"warm registry:     {warm_s * 1e3:9.1f} ms  "
        f"({refit_s / warm_s:.0f}x)"
    )
    print(f"byte-identical output: {byte_identical}")
    print(
        f"http throughput:   {throughput:9.0f} assignments/s "
        f"({assigned} over {http_s * 1e3:.1f} ms, single worker)"
    )
    print(f"engine rows/s:     {engine_rows_s:9.0f} exact")
    print(
        f"router throughput: {router_throughput:9.0f} assignments/s "
        f"({sum(router_assigned)} over {router_s * 1e3:.1f} ms, "
        f"{ROUTER_WORKERS} workers x {ROUTER_THREADS} clients, "
        f"byte-identical: {router_identical})"
    )
    print()
    print("-- per-stage spans --")
    print(_stage_table(collector))

    assert byte_identical, "warm-path output differs from refit output"
    assert refit_s / warm_s >= 20.0, (
        f"warm registry speedup {refit_s / warm_s:.1f}x < 20x"
    )
    assert throughput >= 1000.0, (
        f"server throughput {throughput:.0f}/s < 1000/s"
    )
    assert router_identical, (
        f"router responses diverged from the exact engine on requests "
        f"{mismatches[:5]}"
    )
    assert router_throughput >= 20_000.0, (
        f"router throughput {router_throughput:.0f}/s < 20000/s"
    )

    # pytest-benchmark records the warm path for regression tracking.
    benchmark.pedantic(
        lambda: contextualize(tests, catalog, registry=registry, city="A"),
        rounds=3,
        iterations=1,
    )


def _keepalive_latencies_ms(
    host: str, port: int, bodies: list[bytes]
) -> tuple[list[float], list[dict]]:
    """Send ``bodies`` back to back on one keep-alive connection."""
    conn = http.client.HTTPConnection(host, port, timeout=60)
    latencies: list[float] = []
    outputs: list[dict] = []
    try:
        for body in bodies:
            t0 = time.perf_counter()
            conn.request(
                "POST",
                "/assign",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = response.read()
            latencies.append((time.perf_counter() - t0) * 1e3)
            assert response.status == 200, payload[:200]
            outputs.append(json.loads(payload))
    finally:
        conn.close()
    return latencies, outputs


def test_keepalive_assign_returns_at_service_time(tmp_path):
    """Keep-alive /assign p50 < 25 ms for single tuples and 2000 rows."""
    root = tmp_path / "models"
    registry = ModelRegistry(root)
    catalog = city_catalog("A")
    tests = OoklaSimulator("A", seed=0).generate(KEEPALIVE_BULK_ROWS * 2)
    contextualize(tests, catalog, registry=registry, city="A")
    downs = np.asarray(tests["download_mbps"], dtype=float)
    ups = np.asarray(tests["upload_mbps"], dtype=float)
    finite = np.isfinite(downs) & np.isfinite(ups)
    downs, ups = downs[finite], ups[finite]
    assigner = TierAssigner(registry.load(registry.key_for("A", catalog))[0])
    stream_bodies = [
        json.dumps(
            {
                "downloads": [float(downs[i])],
                "uploads": [float(ups[i])],
                "stream": True,
            }
        ).encode("utf-8")
        for i in range(KEEPALIVE_STREAM_REQUESTS)
    ]
    bulk_rows = [
        np.arange(i, i + KEEPALIVE_BULK_ROWS) % downs.size
        for i in range(KEEPALIVE_BULK_REQUESTS)
    ]
    bulk_bodies = [
        json.dumps(
            {"downloads": downs[rows].tolist(), "uploads": ups[rows].tolist()}
        ).encode("utf-8")
        for rows in bulk_rows
    ]
    router = build_router(
        root, RouterConfig(port=0, n_workers=ROUTER_WORKERS, default_city="A")
    )
    thread = threading.Thread(target=router.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = router.server_address[:2]
        # Load the model in the worker (and its batcher) off the clock.
        _keepalive_latencies_ms(
            host, port, stream_bodies[:1] + bulk_bodies[:1]
        )
        stream_ms, stream_out = _keepalive_latencies_ms(
            host, port, stream_bodies
        )
        bulk_ms, bulk_out = _keepalive_latencies_ms(host, port, bulk_bodies)
    finally:
        router.shutdown()
        router.server_close()
        thread.join(timeout=30)
    stream_p50 = float(np.median(stream_ms))
    bulk_p50 = float(np.median(bulk_ms))
    stream_exact = assigner.assign(
        downs[:KEEPALIVE_STREAM_REQUESTS], ups[:KEEPALIVE_STREAM_REQUESTS]
    )
    assert [out["tiers"][0] for out in stream_out] == (
        stream_exact.tiers.tolist()
    )
    for rows, out in zip(bulk_rows, bulk_out):
        exact = assigner.assign(downs[rows], ups[rows])
        assert out["tiers"] == exact.tiers.tolist()

    record_bench(
        "serve_keepalive",
        wall_s=(sum(stream_ms) + sum(bulk_ms)) / 1e3,
        results={"stream_p50_ms": stream_p50, "bulk_p50_ms": bulk_p50},
        params={
            "router_workers": ROUTER_WORKERS,
            "stream_requests": KEEPALIVE_STREAM_REQUESTS,
            "bulk_requests": KEEPALIVE_BULK_REQUESTS,
            "bulk_rows": KEEPALIVE_BULK_ROWS,
        },
        seed=0,
    )
    print()
    print("-- keep-alive /assign through a 2-worker router --")
    print(
        f"stream single tuple: p50 {stream_p50:6.1f} ms "
        f"max {max(stream_ms):6.1f} ms ({KEEPALIVE_STREAM_REQUESTS} requests)"
    )
    print(
        f"{KEEPALIVE_BULK_ROWS}-row batch:      p50 {bulk_p50:6.1f} ms "
        f"max {max(bulk_ms):6.1f} ms ({KEEPALIVE_BULK_REQUESTS} requests)"
    )
    assert stream_p50 < KEEPALIVE_P50_MS, (
        f"keep-alive streamed /assign p50 {stream_p50:.1f} ms >= "
        f"{KEEPALIVE_P50_MS} ms (delayed-ACK stall?)"
    )
    assert bulk_p50 < KEEPALIVE_P50_MS, (
        f"keep-alive {KEEPALIVE_BULK_ROWS}-row /assign p50 {bulk_p50:.1f} ms "
        f">= {KEEPALIVE_P50_MS} ms (delayed-ACK stall?)"
    )
