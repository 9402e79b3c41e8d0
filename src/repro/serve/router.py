"""Front router for a fleet of sharded assignment workers.

Scaling one Python server past a point means processes, not threads:
the router spawns N :mod:`repro.serve.worker` subprocesses, each owning
the ``(city, isp)`` models whose :func:`~repro.serve.registry.shard_for`
hash lands on its shard, and exposes one endpoint with the same HTTP
contract as the single-process server:

- ``POST /assign``  -- resolved against the registry index, forwarded
  to the owning shard's worker, response relayed verbatim (the worker
  honours the router's ``X-Trace-Id``, so traces join up end to end);
- ``GET /models``   -- answered from the shared registry directly;
- ``GET /healthz``  -- router process table plus every worker's own
  health document;
- ``GET /metrics``  -- the workers' expositions scraped, parsed, and
  aggregated (counters/gauges summed, quantile samples combined by
  max) with the router's own ``serve.router.*`` instruments appended;
- ``POST /reload``  -- fanned out to the owning shards (all shards for
  an empty body) so a drift-triggered refit hot-swaps every worker
  serving the affected model; see docs/STREAMING.md.

Requests to a worker travel over pooled keep-alive connections (one
idle pool per worker process, no size setting).  A pooled connection
the worker has since closed is retried once on a fresh connection
(``serve.router.stale_retries``).  A worker that fails a fresh
connection -- it died: crash, OOM kill -- is restarted on the next
request that needs its shard (``serve.router.worker_restarts`` counts
these), and the failed forward is retried once against the fresh
process; a forward that still fails, including a malformed or
truncated worker response, answers 502.  ``server_close`` joins the
router's handler threads, closes every idle worker connection, and
then stops the workers with SIGTERM; they shut down gracefully, so the
router inherits the single server's drain-on-exit contract.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from http.server import ThreadingHTTPServer
from pathlib import Path
from typing import Any

from repro.obs.logging import get_logger, kv
from repro.obs.metrics import (
    MetricsRegistry,
    parse_prometheus_text,
    render_prometheus,
)
from repro.obs.trace import new_trace_id
from repro.serve.handler import JsonHandler
from repro.serve.registry import (
    ModelKey,
    ModelRecord,
    ModelRegistry,
    shard_for,
)

log = get_logger("serve.router")

__all__ = [
    "RouterConfig",
    "RouterServer",
    "WorkerHandle",
    "build_router",
]

_SERVING_RE = re.compile(r"serving on http://([^\s:]+):(\d+)")

# What a request to a worker can raise: socket errors (refused, reset,
# timed out) and malformed or truncated HTTP responses.
_WORKER_ERRORS = (OSError, http.client.HTTPException)


def _escape_label(value: str) -> str:
    """Escape a label value per the Prometheus text exposition rules."""
    return value.replace("\\", "\\\\").replace('"', '\\"')


def _slug_city_isp(slug: str) -> tuple[str, str]:
    """The ``(city, isp)`` a model slug shards by (raises ValueError)."""
    key = ModelKey.from_slug(slug)
    return key.city, key.isp


@dataclass(frozen=True)
class RouterConfig:
    """Knobs of the router process."""

    host: str = "127.0.0.1"
    port: int = 8000
    n_workers: int = 2
    default_city: str = ""
    request_timeout_s: float = 30.0  # per forwarded request
    start_timeout_s: float = 60.0  # worker bind deadline
    max_body_bytes: int = 8 * 1024 * 1024
    worker_trace_sample: float = 1.0


class WorkerHandle:
    """One supervised worker subprocess, its base URL, and its pool.

    ``start`` spawns ``python -m repro.serve.worker`` with this
    handle's shard assignment, parses the ``serving on ...`` line for
    the ephemeral port, and keeps draining the child's stdout on a
    daemon thread.  ``restart`` is start-over-again: used by the router
    when a forward finds the process dead.

    The handle also pools idle keep-alive ``HTTPConnection``s to the
    running process: :meth:`connection` hands out an idle one or opens
    a new one, :meth:`release` takes back a connection whose response
    was read completely.  The pool belongs to one process: ``start``,
    ``restart`` and ``stop`` close every idle connection, and a
    connection to an earlier port is closed on release instead of
    pooled, so no request reaches a dead worker's socket twice.
    """

    def __init__(
        self,
        shard: int,
        registry_root: str | Path,
        config: RouterConfig,
    ) -> None:
        self.shard = int(shard)
        self.registry_root = str(registry_root)
        self.config = config
        self.proc: subprocess.Popen | None = None
        self.base_url = ""
        self.restarts = 0
        self._lock = threading.Lock()
        # Idle connections to the process at _pool_address.  Order:
        # _lock may be held while taking _pool_lock, never the reverse.
        self._pool_lock = threading.Lock()
        self._idle: list[http.client.HTTPConnection] = []
        self._pool_address: tuple[str, int] | None = None

    @property
    def alive(self) -> bool:
        with self._lock:
            return self.proc is not None and self.proc.poll() is None

    @property
    def pid(self) -> int | None:
        with self._lock:
            return self.proc.pid if self.proc is not None else None

    def start(self) -> None:
        """Spawn the worker and wait for it to bind (idempotent)."""
        with self._lock:
            if self.proc is not None and self.proc.poll() is None:
                return
            argv = [
                sys.executable,
                "-m",
                "repro.serve.worker",
                "--registry",
                self.registry_root,
                "--host",
                "127.0.0.1",
                "--port",
                "0",
                "--shard",
                str(self.shard),
                "--shards",
                str(self.config.n_workers),
                "--trace-sample",
                str(self.config.worker_trace_sample),
            ]
            if self.config.default_city:
                argv += ["--default-city", self.config.default_city]
            env = dict(os.environ)
            src_root = str(Path(__file__).resolve().parents[2])
            existing = env.get("PYTHONPATH", "")
            env["PYTHONPATH"] = (
                f"{src_root}{os.pathsep}{existing}" if existing else src_root
            )
            self.proc = subprocess.Popen(
                argv,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                env=env,
                text=True,
            )
            host, port = self._await_bind(self.proc)
            self.base_url = f"http://{host}:{port}"
            self._reset_pool((host, port))
            pid, url = self.proc.pid, self.base_url
        log.info(
            "worker started", extra=kv(shard=self.shard, pid=pid, url=url)
        )

    def restart(self) -> None:
        """Reap the dead process (if any) and spawn a fresh worker."""
        with self._lock:
            if self.proc is not None and self.proc.poll() is None:
                return  # already healthy; a racing restart beat us
            if self.proc is not None:
                self.proc.wait()
                self.proc = None
            self._reset_pool(None)  # the dead worker's sockets
            self.restarts += 1
        self.start()

    def stop(self, timeout_s: float = 15.0) -> None:
        """Close idle connections, SIGTERM the worker, await its exit.

        The worker's shutdown joins its handler threads, and a thread
        serving one of our keep-alive connections waits for the next
        request until its socket times out -- so the pool closes first.
        """
        with self._lock:
            proc, self.proc = self.proc, None
            self._reset_pool(None)
        if proc is None or proc.poll() is not None:
            return
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            log.warning(
                "worker ignored SIGTERM; killing",
                extra=kv(shard=self.shard, pid=proc.pid),
            )
            proc.kill()
            proc.wait()

    # -- connection pool -------------------------------------------------
    def connection(
        self, reuse: bool = True
    ) -> tuple[http.client.HTTPConnection, bool]:
        """``(conn, reused)``: an idle pooled connection, else a new one.

        ``reuse=False`` always opens a new connection.  Raises
        ``ConnectionRefusedError`` while no process is running.
        """
        with self._pool_lock:
            if reuse and self._idle:
                return self._idle.pop(), True
            address = self._pool_address
        if address is None:
            raise ConnectionRefusedError(
                f"worker shard {self.shard} is not running"
            )
        host, port = address
        conn = http.client.HTTPConnection(
            host, port, timeout=self.config.request_timeout_s
        )
        return conn, False

    def release(self, conn: http.client.HTTPConnection) -> None:
        """Pool a connection whose response body was read completely."""
        with self._pool_lock:
            if (conn.host, conn.port) == self._pool_address:
                self._idle.append(conn)
                return
        conn.close()  # made for an earlier process

    def close_idle(self) -> None:
        """Close every idle pooled connection."""
        with self._pool_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _reset_pool(self, address: tuple[str, int] | None) -> None:
        """Point the pool at a new process (None: none running)."""
        with self._pool_lock:
            self._pool_address = address
        self.close_idle()

    # ------------------------------------------------------------------
    def _await_bind(self, proc: subprocess.Popen) -> tuple[str, int]:
        """Read stdout until the worker names its port; then drain it."""
        deadline = time.monotonic() + self.config.start_timeout_s
        assert proc.stdout is not None
        while True:
            if time.monotonic() > deadline:
                proc.kill()
                raise RuntimeError(
                    f"worker shard {self.shard} did not bind within "
                    f"{self.config.start_timeout_s:.0f}s"
                )
            line = proc.stdout.readline()
            if not line:
                code = proc.wait()
                raise RuntimeError(
                    f"worker shard {self.shard} exited with code {code} "
                    "before binding"
                )
            match = _SERVING_RE.search(line)
            if match:
                threading.Thread(
                    target=self._drain, args=(proc.stdout,), daemon=True
                ).start()
                return match.group(1), int(match.group(2))

    @staticmethod
    def _drain(stream) -> None:
        for _ in stream:
            pass


class _RouterService:
    """Request routing, worker supervision, and telemetry aggregation."""

    def __init__(
        self,
        registry: ModelRegistry,
        config: RouterConfig,
        workers: list[WorkerHandle],
    ) -> None:
        self.registry = registry
        self.config = config
        self.workers = workers
        self.metrics = MetricsRegistry()
        self._started = time.monotonic()
        # Optional observer of successfully-forwarded traffic, called as
        # tap(city, isp, downloads, uploads); repro.stream.attach points
        # this at a StreamMonitor when `repro serve --refit` is on.
        self.stream_tap = None

    # -- routing ---------------------------------------------------------
    def resolve_record(self, payload: dict[str, Any]) -> ModelRecord:
        """The registry record a payload's selectors address.

        Mirrors ``AssignmentService.resolve`` (missing selectors match
        anything, ties go to the most recent registration) so the
        router forwards to the worker that will pick the same model.
        """
        city = payload.get("city") or self.config.default_city or None
        isp = payload.get("isp")
        config_hash = payload.get("config_hash")
        candidates = [
            record
            for record in self.registry.records()
            if (city is None or record.key.city == city)
            and (isp is None or record.key.isp == isp)
            and (config_hash is None or record.key.config_hash == config_hash)
        ]
        if not candidates:
            raise KeyError(
                "no registered model matches "
                f"city={city!r} isp={isp!r} config_hash={config_hash!r}"
            )
        return max(candidates, key=lambda r: r.created_s)

    def forward_assign(
        self, body: bytes, record: ModelRecord, trace_id: str
    ) -> tuple[int, bytes]:
        """POST the raw body to the owning shard; returns (status, body).

        When the forward fails on a fresh connection the worker is
        restarted (if it died) and the request retried once on the
        fresh process; 4xx/5xx worker responses relay as-is (they carry
        the worker's structured error JSON and the shared trace id).
        """
        shard = shard_for(
            record.key.city, record.key.isp, self.config.n_workers
        )
        handle = self.workers[shard]
        try:
            status, payload = self._request(
                handle, "POST", "/assign", body, trace_id
            )
        except _WORKER_ERRORS as exc:
            log.warning(
                "worker unreachable; restarting shard",
                extra=kv(shard=shard, error=str(exc), trace_id=trace_id),
            )
            self.metrics.counter("serve.router.worker_restarts").inc()
            self.metrics.counter("serve.router.retries").inc()
            handle.restart()
            status, payload = self._request(
                handle, "POST", "/assign", body, trace_id
            )
        self.metrics.counter("serve.router.forwarded").inc()
        return status, payload

    def _request(
        self,
        handle: WorkerHandle,
        method: str,
        path: str,
        body: bytes | None = None,
        trace_id: str = "",
    ) -> tuple[int, bytes]:
        """One request to a worker over a pooled keep-alive connection.

        A reused connection may have been closed by the worker (its
        socket timeout ends idle connections), so a failure there is
        retried once on a fresh connection; a failure on a fresh
        connection raises.  Returns ``(status, body)`` for any status.
        """
        headers = {"X-Trace-Id": trace_id} if trace_id else {}
        if body is not None:
            headers["Content-Type"] = "application/json"
        conn, reused = handle.connection()
        while True:
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                payload = response.read()
            except _WORKER_ERRORS:
                conn.close()
                if not reused:
                    raise
                self.metrics.counter("serve.router.stale_retries").inc()
                conn, reused = handle.connection(reuse=False)
                continue
            if response.will_close:
                conn.close()
            else:
                handle.release(conn)
            return response.status, payload

    def reload_models(
        self, slugs: list[str] | None = None, trace_id: str = ""
    ) -> dict[str, Any]:
        """Fan ``POST /reload`` out to the shards that own ``slugs``.

        None (or an empty list) reloads every worker.  The router's own
        registry cache is evicted too, so ``resolve_record`` sees fresh
        index entries.  Worker outcomes are reported per shard; an
        unreachable worker is an error row, not a failed fan-out.
        """
        self.registry.evict_cache()
        if slugs:
            shards = sorted(
                {
                    shard_for(*_slug_city_isp(slug), self.config.n_workers)
                    for slug in slugs
                }
            )
        else:
            shards = list(range(len(self.workers)))
        body = json.dumps({"slugs": slugs} if slugs else {}).encode("utf-8")
        reloaded: list[str] = []
        worker_rows: list[dict[str, Any]] = []
        for shard in shards:
            handle = self.workers[shard]
            try:
                status, payload = self._request(
                    handle, "POST", "/reload", body, trace_id or new_trace_id()
                )
                row: dict[str, Any] = {"shard": shard, "status": status}
                if status == 200:
                    outcome = json.loads(payload)
                    row["reloaded"] = outcome.get("reloaded", [])
                    reloaded.extend(row["reloaded"])
            except _WORKER_ERRORS as exc:
                row = {"shard": shard, "error": str(exc)}
            worker_rows.append(row)
        self.metrics.counter("serve.router.reloads").inc()
        log.info(
            "fanned out model reload",
            extra=kv(
                shards=",".join(str(s) for s in shards),
                models=",".join(reloaded) if reloaded else "(none)",
            ),
        )
        return {"reloaded": sorted(set(reloaded)), "workers": worker_rows}

    # -- aggregation -----------------------------------------------------
    def scrape_worker(self, handle: WorkerHandle, path: str) -> bytes:
        status, payload = self._request(handle, "GET", path)
        if status != 200:
            raise http.client.HTTPException(
                f"worker shard {handle.shard} answered {status} for {path}"
            )
        return payload

    def health(self) -> dict[str, Any]:
        worker_rows = []
        worker_health = []
        for handle in self.workers:
            worker_rows.append(
                {
                    "shard": handle.shard,
                    "url": handle.base_url,
                    "pid": handle.pid,
                    "alive": handle.alive,
                    "restarts": handle.restarts,
                }
            )
            try:
                worker_health.append(
                    json.loads(self.scrape_worker(handle, "/healthz"))
                )
            except (*_WORKER_ERRORS, ValueError) as exc:
                worker_health.append({"error": str(exc)})
        alive = sum(1 for row in worker_rows if row["alive"])
        self.metrics.gauge("serve.router.workers_alive").set(alive)
        return {
            "status": "ok" if alive == len(self.workers) else "degraded",
            "router": {
                "uptime_s": round(time.monotonic() - self._started, 3),
                "n_workers": len(self.workers),
                "workers_alive": alive,
                "workers": worker_rows,
            },
            "workers": worker_health,
        }

    def metrics_text(self) -> str:
        """One exposition: workers' samples merged + router's own.

        Counter totals, rates, and plain gauges sum across workers;
        quantile-labelled samples (summary/window percentiles) combine
        by max — "worst shard" is the operative read for a latency
        quantile aggregated without raw observations.
        """
        merged: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
        maxed: set[tuple[str, tuple[tuple[str, str], ...]]] = set()
        for handle in self.workers:
            try:
                text = self.scrape_worker(handle, "/metrics").decode("utf-8")
                families = parse_prometheus_text(text)
            except (*_WORKER_ERRORS, ValueError) as exc:
                log.warning(
                    "worker metrics scrape failed",
                    extra=kv(shard=handle.shard, error=str(exc)),
                )
                continue
            for name, samples in families.items():
                for labels, value in samples:
                    if math.isnan(value):
                        continue
                    key = (name, tuple(sorted(labels.items())))
                    if "quantile" in labels:
                        maxed.add(key)
                        merged[key] = max(merged.get(key, value), value)
                    else:
                        merged[key] = merged.get(key, 0.0) + value
        own = render_prometheus(self.metrics)
        # A family the router emits itself (the stream.* of a --refit
        # monitor) replaces the workers' copies: an exposition may name
        # each family once.
        own_names = set(parse_prometheus_text(own))
        lines: list[str] = []
        last_family = None
        for name, labels in sorted(merged):
            if name in own_names:
                continue
            if name != last_family:
                kind = "counter" if name.endswith("_total") else "gauge"
                lines.append(f"# TYPE {name} {kind}")
                last_family = name
            label_text = ",".join(
                f'{k}="{_escape_label(v)}"' for k, v in labels
            )
            rendered = f"{name}{{{label_text}}}" if label_text else name
            lines.append(
                f"{rendered} {format(merged[(name, labels)], '.10g')}"
            )
        return "\n".join(lines) + ("\n" + own if own else "\n")

    def models(self) -> list[dict[str, Any]]:
        # lint: allow[DET002] age_s compares against stored epoch stamps
        now = time.time()
        return [
            {**record.to_dict(), "age_s": round(record.age_s(now), 3)}
            for record in self.registry.records()
        ]

    # -- lifecycle -------------------------------------------------------
    def start_workers(self) -> None:
        for handle in self.workers:
            handle.start()
        self.metrics.gauge("serve.router.workers_alive").set(
            sum(1 for handle in self.workers if handle.alive)
        )

    def close(self) -> None:
        """Close every idle worker connection, then stop the workers."""
        for handle in self.workers:
            handle.close_idle()
        for handle in self.workers:
            handle.stop()


class _RouterHandler(JsonHandler):
    """HTTP routing for :class:`RouterServer`."""

    server: "RouterServer"

    def _config(self) -> RouterConfig:
        return self.server.router.config

    def _count_error(self) -> None:
        self.server.router.metrics.counter("serve.router.errors").inc()

    def _observe(self, status: int, elapsed_s: float) -> None:
        self.server.router.metrics.histogram(
            "serve.router.request_latency_s"
        ).observe(elapsed_s)

    # -- routes ----------------------------------------------------------
    def _handle(self, route) -> None:
        router = self.server.router
        router.metrics.counter("serve.router.requests").inc()
        self._trace_id = new_trace_id()
        self._begin()
        try:
            route()
        except BrokenPipeError:
            pass  # client went away; nothing to send
        except Exception as exc:  # defensive: never kill the thread
            log.error(
                "unhandled router error",
                extra=kv(
                    path=self.path,
                    error=repr(exc),
                    trace_id=self._trace_id,
                ),
            )
            try:
                self._error(500, f"internal error: {exc}")
            # lint: allow[COR003] best-effort 500; the socket may be gone
            except Exception:
                pass
        finally:
            self._account()

    def _route_get(self) -> None:
        path = self.path.split("?", 1)[0]
        router = self.server.router
        if path == "/healthz":
            self._send_json(200, router.health())
        elif path == "/models":
            self._send_json(200, {"models": router.models()})
        elif path == "/metrics":
            self._send_body(
                200,
                router.metrics_text().encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        else:
            self._error(404, f"unknown path {path!r}")

    def _route_post(self) -> None:
        path = self.path.split("?", 1)[0]
        router = self.server.router
        if path == "/reload":
            self._route_reload()
            return
        if path != "/assign":
            self._error(404, f"unknown path {path!r}")
            return
        request = self._read_json(required=True)
        if request is None:
            return
        body, payload = request
        if not isinstance(payload, dict):
            self._error(400, "request body must be a JSON object")
            return
        try:
            record = router.resolve_record(payload)
        except KeyError as exc:
            self._error(404, str(exc).strip("'\""))
            return
        try:
            status, response = router.forward_assign(
                body, record, self._trace_id
            )
        except _WORKER_ERRORS as exc:
            self._error(502, f"worker unavailable: {exc}")
            return
        self._send_body(status, response, "application/json")
        if status == 200:
            tap = router.stream_tap
            if tap is not None:
                try:
                    tap(
                        record.key.city,
                        record.key.isp,
                        payload.get("downloads", ()),
                        payload.get("uploads", ()),
                    )
                # lint: allow[COR003] the tap must never fail a request
                except Exception as exc:
                    log.warning(
                        "stream tap failed", extra=kv(error=repr(exc))
                    )

    def _route_reload(self) -> None:
        """``POST /reload``: fan the hot-swap out to the worker fleet."""
        router = self.server.router
        ok, slugs = self._reload_slugs()
        if not ok:
            return
        try:
            response = router.reload_models(slugs, trace_id=self._trace_id)
        except ValueError as exc:
            self._error(400, str(exc))
            return
        response["trace_id"] = self._trace_id
        self._send_json(200, response)


class RouterServer(ThreadingHTTPServer):
    """Threading front server bound to one worker fleet.

    Shares ``serve_until_shutdown``'s duck-typed contract with
    :class:`~repro.serve.server.ServeServer`: ``server_close`` joins
    handler threads, closes the idle worker connections (each one pins
    a worker handler thread that the worker's own shutdown would wait
    on), then SIGTERMs every worker and waits for their graceful exits.
    """

    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], router: _RouterService):
        self.router = router
        super().__init__(address, _RouterHandler)

    def server_close(self) -> None:
        super().server_close()  # joins handler threads first
        self.router.close()


def build_router(
    registry_root: str | Path, config: RouterConfig | None = None
) -> RouterServer:
    """A ready-to-run router with its workers started.

    ``port=0`` binds an ephemeral port.  Raises ``RuntimeError`` when a
    worker fails to bind within ``config.start_timeout_s``.
    """
    config = config or RouterConfig()
    registry = ModelRegistry(registry_root)
    workers = [
        WorkerHandle(shard, registry_root, config)
        for shard in range(config.n_workers)
    ]
    router = _RouterService(registry, config, workers)
    server = RouterServer((config.host, config.port), router)
    try:
        router.start_workers()
    except Exception:
        server.server_close()
        raise
    return server
