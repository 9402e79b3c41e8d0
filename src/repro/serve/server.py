"""Stdlib HTTP service for online tier assignment.

A thin serving layer over :mod:`repro.serve.registry` and
:mod:`repro.serve.engine`: a ``ThreadingHTTPServer`` (no third-party web
framework) exposing

- ``POST /assign`` -- assign tiers to a batch of ``<download, upload>``
  tuples against a registered model (selected by city / isp /
  config_hash; defaults to the configured city's most recent model).
  The body is checked once -- paired, finite, non-empty, else 400 --
  and every request, batched or ``"stream": true``, is answered by the
  model's exact :class:`~repro.serve.engine.TierAssigner`;
- ``GET /models``  -- the registry's records (staleness metadata
  included);
- ``GET /healthz`` -- liveness plus request counters, loaded-model
  count, per-model drift status, and active alerts;
- ``GET /metrics`` -- Prometheus text exposition of the service's
  dedicated registry (cumulative totals plus windowed rates and
  latency quantiles over :data:`repro.obs.metrics.DEFAULT_WINDOW_S`;
  see docs/ALERTING.md);
- ``POST /reload`` -- hot-swap models: drop loaded state (optionally
  limited to a ``{"slugs": [...]}`` body) so the next request resolves
  the freshest registration.  The refit scheduler
  (:mod:`repro.stream.scheduler`) calls this after registering a
  drift-triggered refit; see docs/STREAMING.md.

Every request gets a fresh ``trace_id`` (echoed in the ``X-Trace-Id``
response header, ``/assign`` responses, and error JSON) and — when the
id passes the ``trace_sample_rate`` coin — runs under a
``serve.request`` span carrying ``method`` / ``path`` / ``status`` /
``trace_id``.  Requests feed the ``serve.requests`` counter, the
``serve.errors`` (+ per-class ``serve.errors_4xx`` / ``serve.errors_5xx``)
counters, and per-endpoint / per-status-class latency histograms, into
both the process-global registry (when observability is on) and a
dedicated always-on :class:`~repro.obs.metrics.MetricsRegistry` that
backs ``/metrics``.  Assigned tuples also stream into the service's
drift detector, a :class:`~repro.stream.monitor.StreamMonitor`: per
``(city, isp)`` it compares the windowed download/upload means against
the ``training_stats`` of the newest registration and flags a model
whose traffic has moved more than ``drift_rel_threshold`` (relative)
once the window holds ``drift_min_samples`` observations.
``/healthz``, the ``model_drift`` alert and ``repro serve --refit``'s
scheduler all read that one monitor.  An :class:`~repro.obs.alerts.
AlertEngine` evaluates declarative rules over the windowed metrics and
the drift verdicts on a background loop.

Shutdown is graceful: ``serve_until_shutdown`` installs
SIGTERM/SIGINT handlers that stop the accept loop, then drains
in-flight handler threads (``daemon_threads`` stays off and
``server_close`` joins them) and closes the micro-batchers, so a
terminated server never drops an accepted request.
"""

from __future__ import annotations

import json
import queue
import re
import signal
import threading
import time
from dataclasses import dataclass, field
from http.server import ThreadingHTTPServer
from typing import Any

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs.alerts import (
    AlertEngine,
    AlertEvaluator,
    default_serve_rules,
    load_rules,
)
from repro.obs.logging import get_logger, kv
from repro.obs.metrics import MetricsRegistry, render_prometheus
from repro.obs.trace import new_trace_id, should_sample, span, use_trace_id
from repro.serve.engine import (
    BatcherClosedError,
    MicroBatcher,
    TierAssigner,
    _validate_batch,
)
from repro.serve.handler import JsonHandler
from repro.serve.registry import (
    ModelKey,
    ModelRecord,
    ModelRegistry,
    shard_for,
)
from repro.stream.monitor import StreamMonitor

log = get_logger("serve.server")

__all__ = [
    "AssignmentService",
    "ServeConfig",
    "ServeServer",
    "build_server",
    "serve_until_shutdown",
]


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of the assignment service."""

    host: str = "127.0.0.1"
    port: int = 8000
    default_city: str = ""  # model picked when a request names none
    request_timeout_s: float = 10.0  # per-connection socket timeout
    max_body_bytes: int = 8 * 1024 * 1024  # request bodies above -> 413
    drift_rel_threshold: float = 0.5  # |obs - train| / train mean
    drift_min_samples: int = 200  # windowed observations before drift
    trace_sample_rate: float = 1.0  # fraction of requests spanned
    alert_interval_s: float = 1.0  # evaluator period; <= 0 disables
    alert_log: str | None = None  # JSONL transition log path
    alert_rules_path: str | None = None  # JSON rules; None -> defaults
    shard: tuple[int, int] | None = None  # (index, total) (city, isp) shard


@dataclass
class _LoadedModel:
    """One model resolved for serving: assigner + provenance."""

    key: ModelKey
    record: ModelRecord
    assigner: TierAssigner
    batcher: MicroBatcher | None = None
    lock: threading.Lock = field(default_factory=threading.Lock)


class AssignmentService:
    """Model resolution, assignment, and drift tracking for the server.

    Usable without HTTP (the CLI smoke test and the benchmark drive it
    directly): :meth:`assign_payload` implements the ``/assign``
    contract over plain dicts.
    """

    def __init__(self, registry: ModelRegistry, config: ServeConfig):
        self.registry = registry
        self.config = config
        self._lock = threading.Lock()
        self._loaded: dict[str, _LoadedModel] = {}
        # Dedicated registry and drift detector: the service watches its
        # own traffic even when global observability is off; the
        # registry backs GET /metrics and the alert engine.
        self.metrics = MetricsRegistry()
        self.monitor = StreamMonitor(
            registry,
            metrics=self.metrics,
            clock=time.monotonic,
            drift_rel_threshold=config.drift_rel_threshold,
            min_samples=config.drift_min_samples,
        )
        rules = (
            load_rules(config.alert_rules_path)
            if config.alert_rules_path
            else default_serve_rules()
        )
        self.alerts = AlertEngine(
            rules,
            registry=self.metrics,
            drift_provider=self.drift_status,
            log_path=config.alert_log,
        )
        self._evaluator: AlertEvaluator | None = None
        self._started = time.monotonic()
        self.n_requests = 0
        self.n_errors = 0

    def start_alerting(self) -> None:
        """Start the background alert evaluator (idempotent)."""
        if self.config.alert_interval_s <= 0:
            return
        if self._evaluator is None:
            self._evaluator = AlertEvaluator(
                self.alerts, interval_s=self.config.alert_interval_s
            ).start()

    # -- model resolution ------------------------------------------------
    def resolve(
        self,
        city: str | None = None,
        isp: str | None = None,
        config_hash: str | None = None,
    ) -> _LoadedModel:
        """The loaded model matching the given selectors.

        Missing selectors match anything; ties resolve to the most
        recently registered record.  Raises ``KeyError`` when nothing
        matches.  A sharded service (``config.shard``) only matches
        models whose ``(city, isp)`` hash lands on its shard.
        """
        city = city or self.config.default_city or None
        shard = self.config.shard
        candidates = [
            record
            for record in self.registry.records()
            if (city is None or record.key.city == city)
            and (isp is None or record.key.isp == isp)
            and (config_hash is None or record.key.config_hash == config_hash)
            and (
                shard is None
                or shard_for(record.key.city, record.key.isp, shard[1])
                == shard[0]
            )
        ]
        if not candidates:
            raise KeyError(
                "no registered model matches "
                f"city={city!r} isp={isp!r} config_hash={config_hash!r}"
            )
        record = max(candidates, key=lambda r: r.created_s)
        return self._load(record.key)

    def _load(self, key: ModelKey) -> _LoadedModel:
        with self._lock:
            loaded = self._loaded.get(key.slug)
        if loaded is not None:
            return loaded
        result, record = self.registry.load(key)
        loaded = _LoadedModel(
            key=key, record=record, assigner=TierAssigner(result)
        )
        with self._lock:
            # Another thread may have raced us; keep the first.
            loaded = self._loaded.setdefault(key.slug, loaded)
            n_loaded = len(self._loaded)
        obs_metrics.gauge("serve.models_loaded").set(n_loaded)
        self.metrics.gauge("serve.models_loaded").set(n_loaded)
        return loaded

    def batcher_for(self, loaded: _LoadedModel) -> MicroBatcher:
        """The model's micro-batcher (created on first streaming use)."""
        with loaded.lock:
            if loaded.batcher is None:
                loaded.batcher = MicroBatcher(loaded.assigner)
            return loaded.batcher

    # -- assignment ------------------------------------------------------
    def assign_payload(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Implement the ``/assign`` contract over plain dicts.

        Payload: ``{"downloads": [...], "uploads": [...]}`` plus
        optional ``city`` / ``isp`` / ``config_hash`` selectors and
        ``"stream": true`` to route single tuples through the
        micro-batching queue.  Raises ``ValueError`` for malformed
        payloads and ``KeyError`` when no model matches.
        """
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        downloads = payload.get("downloads")
        uploads = payload.get("uploads")
        if downloads is None or uploads is None:
            raise ValueError(
                "request must carry 'downloads' and 'uploads' arrays"
            )
        try:
            downloads = np.asarray(downloads, dtype=float)
            uploads = np.asarray(uploads, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"non-numeric speed values: {exc}") from exc
        # One input contract for both branches: the stream branch reads
        # downloads[0] / uploads[0], so pairing and finiteness must hold
        # before it is taken.
        downloads, uploads = _validate_batch(downloads, uploads)
        loaded = self.resolve(
            city=payload.get("city"),
            isp=payload.get("isp"),
            config_hash=payload.get("config_hash"),
        )
        if payload.get("stream") and downloads.size == 1:
            try:
                tier, group = self.batcher_for(loaded).assign_one(
                    float(downloads[0]), float(uploads[0])
                )
            except BatcherClosedError:
                # A /reload hot-swap closed this model's batcher under
                # us.  Re-resolve (loading the fresh registration) and
                # retry once, so a swap never surfaces as a 5xx burst;
                # a second closure means real shutdown and propagates.
                loaded = self.resolve(
                    city=payload.get("city"),
                    isp=payload.get("isp"),
                    config_hash=payload.get("config_hash"),
                )
                tier, group = self.batcher_for(loaded).assign_one(
                    float(downloads[0]), float(uploads[0])
                )
            tiers = [tier]
            groups = [group]
            n_fallback = 0
        else:
            batch = loaded.assigner.assign(downloads, uploads)
            tiers = batch.tiers.tolist()
            groups = batch.group_indices.tolist()
            n_fallback = batch.n_fallback
        # Observe only after assignment succeeded: a batch the engine
        # rejects with 400 (NaN/inf, mismatched lengths) or that timed
        # out in the queue must not shift the drift monitor's observed
        # means and fire false model_drift alerts.
        self.monitor.observe_arrays(
            loaded.key.city, loaded.key.isp, downloads, uploads
        )
        return {
            "tiers": tiers,
            "group_indices": groups,
            "group_labels": loaded.assigner.group_labels(groups),
            "n_fallback": n_fallback,
            "model": {
                "city": loaded.key.city,
                "isp": loaded.key.isp,
                "config_hash": loaded.key.config_hash,
                "digest": loaded.record.digest,
            },
        }

    # -- drift -----------------------------------------------------------
    def drift_status(self) -> list[dict[str, Any]]:
        """Windowed drift verdicts, one row per (city, isp) with traffic.

        Called by ``/healthz`` and the background alert evaluator; under
        ``--refit`` the refit scheduler polls the same monitor.  See
        :meth:`repro.stream.monitor.StreamMonitor.verdicts`.
        """
        return self.monitor.verdicts()

    # -- health / lifecycle ----------------------------------------------
    def record_request(self) -> None:
        """Count a request (handler threads; ``+=`` alone is not atomic)."""
        with self._lock:
            self.n_requests += 1
        obs_metrics.counter("serve.requests").inc()
        self.metrics.counter("serve.requests").inc()

    def record_error(self) -> None:
        """Count a failed request (handler threads)."""
        with self._lock:
            self.n_errors += 1
        obs_metrics.counter("serve.errors").inc()
        self.metrics.counter("serve.errors").inc()

    def observe_http(
        self, endpoint: str, status: int, elapsed_s: float
    ) -> None:
        """Feed one finished request into the latency/status instruments.

        Writes to both the dedicated registry (always on, backs
        ``/metrics``) and the process-global one (a no-op unless the
        CLI installed a registry).
        """
        status_class = f"{status // 100}xx"
        for registry in (self.metrics, obs_metrics.get_registry()):
            registry.histogram("serve.request_latency_s").observe(
                elapsed_s
            )
            registry.histogram(f"serve.latency.{endpoint}").observe(
                elapsed_s
            )
            registry.counter(f"serve.status.{status_class}").inc()
            if status >= 500:
                registry.counter("serve.errors_5xx").inc()
            elif status >= 400:
                registry.counter("serve.errors_4xx").inc()

    def health(self) -> dict[str, Any]:
        with self._lock:
            n_loaded = len(self._loaded)
            n_requests = self.n_requests
            n_errors = self.n_errors
        return {
            "status": "ok",
            "uptime_s": round(time.monotonic() - self._started, 3),
            "models_registered": len(self.registry.records()),
            "models_loaded": n_loaded,
            "requests": n_requests,
            "errors": n_errors,
            "drift": self.drift_status(),
            # counts() first: its "active" tally is superseded by the
            # full list of active alerts.
            "alerts": {
                **self.alerts.counts(),
                "active": self.alerts.active(),
            },
        }

    def reload(self, slugs: list[str] | None = None) -> dict[str, Any]:
        """Hot-swap models: drop loaded state so the next request
        resolves the freshest registration.

        ``slugs`` limits the swap to those models; None reloads all.
        In-flight requests keep the complete model object they already
        resolved (old *or* new, never torn); the next resolve reloads
        from the registry, whose cache is evicted here.  The drift
        monitor rebaselines, so the next verdict compares the window
        against the newest registration's ``training_stats`` instead of
        a stale baseline.
        """
        self.registry.evict_cache()
        with self._lock:
            if slugs is None:
                victims = list(self._loaded)
            else:
                victims = [s for s in slugs if s in self._loaded]
            dropped = [self._loaded.pop(s) for s in victims]
            n_loaded = len(self._loaded)
        for model in dropped:
            with model.lock:
                if model.batcher is not None:
                    model.batcher.close()
                    model.batcher = None
        # Every group, not only the named slugs': like the registry
        # cache above, a baseline is cheap to re-read, and a group's
        # newest registration may carry another config hash.
        for city, isp in self.monitor.group_names():
            self.monitor.rebaseline(city, isp)
        for registry in (self.metrics, obs_metrics.get_registry()):
            registry.counter("serve.reloads").inc()
            registry.gauge("serve.models_loaded").set(n_loaded)
        log.info(
            "hot-swapped models",
            extra=kv(models=",".join(victims) if victims else "(none)"),
        )
        return {"reloaded": victims, "models_loaded": n_loaded}

    def models(self) -> list[dict[str, Any]]:
        # lint: allow[DET002] age_s compares against stored epoch stamps
        now = time.time()
        return [
            {**record.to_dict(), "age_s": round(record.age_s(now), 3)}
            for record in self.registry.records()
        ]

    def close(self) -> None:
        """Stop the alert loop, then drain every model's micro-batcher."""
        if self._evaluator is not None:
            self._evaluator.stop()
            self._evaluator = None
        with self._lock:
            loaded = list(self._loaded.values())
        for model in loaded:
            with model.lock:
                if model.batcher is not None:
                    model.batcher.close()
                    model.batcher = None


_ENDPOINT_SLUGS = {
    "/assign": "assign",
    "/healthz": "healthz",
    "/models": "models",
    "/metrics": "metrics",
    "/reload": "reload",
}

# A well-formed trace id (16 lowercase hex chars, see obs.trace).  The
# router forwards its per-request id in X-Trace-Id so worker spans and
# error bodies join up with the front request; anything malformed is
# ignored and a fresh id minted.
_TRACE_ID_RE = re.compile(r"^[0-9a-f]{16}$")


class _Handler(JsonHandler):
    """Request routing for :class:`ServeServer`."""

    server: "ServeServer"

    def _config(self) -> ServeConfig:
        return self.server.service.config

    def _count_error(self) -> None:
        self.server.service.record_error()

    def _observe(self, status: int, elapsed_s: float) -> None:
        self.server.service.observe_http(self._endpoint(), status, elapsed_s)

    def _endpoint(self) -> str:
        """Low-cardinality endpoint slug for per-endpoint instruments."""
        return _ENDPOINT_SLUGS.get(self.path.split("?", 1)[0], "other")

    # -- routes ----------------------------------------------------------
    def _handle(self, route) -> None:
        service = self.server.service
        service.record_request()
        incoming = self.headers.get("X-Trace-Id", "") if self.headers else ""
        self._trace_id = (
            incoming if _TRACE_ID_RE.match(incoming) else new_trace_id()
        )
        self._begin()
        try:
            with use_trace_id(self._trace_id):
                if should_sample(
                    self._trace_id, service.config.trace_sample_rate
                ):
                    obs_metrics.counter("serve.traces_sampled").inc()
                    service.metrics.counter("serve.traces_sampled").inc()
                    with span(
                        "serve.request",
                        method=self.command,
                        path=self.path.split("?", 1)[0],
                        trace_id=self._trace_id,
                    ) as sp:
                        route()
                        sp.set(status=self._status)
                else:
                    route()
        except BrokenPipeError:
            pass  # client went away; nothing to send
        except Exception as exc:  # defensive: never kill the thread
            log.error(
                "unhandled serving error",
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
        service = self.server.service
        if path == "/healthz":
            self._send_json(200, service.health())
        elif path == "/models":
            self._send_json(200, {"models": service.models()})
        elif path == "/metrics":
            text = render_prometheus(service.metrics)
            self._send_body(
                200,
                text.encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        else:
            self._error(404, f"unknown path {path!r}")

    def _route_post(self) -> None:
        path = self.path.split("?", 1)[0]
        service = self.server.service
        if path == "/reload":
            self._route_reload()
            return
        if path != "/assign":
            self._error(404, f"unknown path {path!r}")
            return
        request = self._read_json(required=True)
        if request is None:
            return
        try:
            response = service.assign_payload(request[1])
        except ValueError as exc:
            self._error(400, str(exc))
            return
        except KeyError as exc:
            self._error(404, str(exc).strip("'\""))
            return
        except (queue.Full, BatcherClosedError) as exc:
            # Backpressure (a saturated micro-batch queue) and shutdown
            # are retryable conditions, not internal errors: answer a
            # structured 503 with Retry-After instead of a generic 500.
            service.metrics.counter("serve.queue_rejections").inc()
            obs_metrics.counter("serve.queue_rejections").inc()
            reason = (
                "assignment queue is saturated"
                if isinstance(exc, queue.Full)
                else "assignment engine is shutting down"
            )
            self._error(
                503,
                f"{reason}; retry shortly",
                headers={"Retry-After": "1"},
            )
            return
        response["trace_id"] = self._trace_id
        self._send_json(200, response)

    def _route_reload(self) -> None:
        """``POST /reload``: hot-swap models (empty body reloads all)."""
        ok, slugs = self._reload_slugs()
        if not ok:
            return
        response = self.server.service.reload(slugs)
        response["trace_id"] = self._trace_id
        self._send_json(200, response)


class ServeServer(ThreadingHTTPServer):
    """Threading HTTP server bound to one :class:`AssignmentService`.

    ``daemon_threads`` stays False and ``block_on_close`` True so
    ``server_close`` joins in-flight handler threads -- shutdown drains
    accepted requests instead of abandoning them.
    """

    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], service: AssignmentService):
        self.service = service
        super().__init__(address, _Handler)

    def server_close(self) -> None:
        super().server_close()  # joins handler threads first
        self.service.close()


def build_server(
    registry: ModelRegistry, config: ServeConfig | None = None
) -> ServeServer:
    """A ready-to-run server (``port=0`` binds an ephemeral port)."""
    config = config or ServeConfig()
    service = AssignmentService(registry, config)
    service.start_alerting()
    return ServeServer((config.host, config.port), service)


def serve_until_shutdown(server: ServeServer) -> int:
    """Run the accept loop until SIGTERM/SIGINT; drain, close, return 0.

    Signal handlers hand ``shutdown()`` to a helper thread (calling it
    from the loop's own thread deadlocks), then ``server_close`` joins
    in-flight handlers and stops the micro-batchers.
    """
    host, port = server.server_address[:2]
    log.info("serving", extra=kv(host=host, port=port))

    def _stop(signum, frame) -> None:
        log.info("shutdown requested", extra=kv(signal=signum))
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        previous[sig] = signal.signal(sig, _stop)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        server.server_close()
    return 0
