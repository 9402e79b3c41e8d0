"""Regression tests for the serving-path correctness fixes.

Each test here failed against the pre-fix behaviour: a drift counter
inflated by /healthz polling, a MicroBatcher close race that lost
futures, drift statistics polluted by 400-rejected batches, and queue
backpressure surfacing as a generic 500.
"""

from __future__ import annotations

import json
import queue
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError

import numpy as np
import pytest

from repro.serve.engine import BatcherClosedError, MicroBatcher, TierAssigner
from repro.serve.registry import ModelRegistry
from repro.serve.server import AssignmentService, ServeConfig, build_server


@pytest.fixture
def service(tmp_path, fitted_a, ookla_a, catalog_a):
    """A fresh (non-HTTP) assignment service over a one-model registry."""
    registry = ModelRegistry(tmp_path / "registry")
    registry.register(
        registry.key_for("A", catalog_a),
        fitted_a,
        downloads=np.asarray(ookla_a["download_mbps"], dtype=float),
        uploads=np.asarray(ookla_a["upload_mbps"], dtype=float),
    )
    svc = AssignmentService(
        registry,
        ServeConfig(default_city="A", drift_min_samples=20),
    )
    yield svc
    svc.close()


# ---------------------------------------------------------------------------
# Fix 1: drift counter must count transitions, not polls
# ---------------------------------------------------------------------------
def test_drift_counter_is_poll_stable(service):
    # Push traffic far from the training mean until the model drifts.
    out = service.assign_payload(
        {"downloads": [100_000.0] * 30, "uploads": [90_000.0] * 30}
    )
    assert out["tiers"]
    first = service.drift_status()
    assert any(row["drifted"] for row in first)
    flagged = service.metrics.counter("stream.drift_flags").value
    assert flagged == 1
    # /healthz and the alert evaluator both poll drift_status; polling
    # while the model stays drifted must not move the counter.
    for _ in range(5):
        again = service.drift_status()
        assert any(row["drifted"] for row in again)
    assert service.metrics.counter("stream.drift_flags").value == flagged


# ---------------------------------------------------------------------------
# Fix 2: submit racing close never loses a future
# ---------------------------------------------------------------------------
def test_close_race_loses_no_futures(fitted_a):
    assigner = TierAssigner(fitted_a)
    futures: list[Future] = []
    rejected = 0
    lock = threading.Lock()
    stop = threading.Event()

    batcher = MicroBatcher(assigner, max_batch=16)

    def producer() -> None:
        nonlocal rejected
        while not stop.is_set():
            try:
                fut = batcher.submit(110.0, 5.5, timeout_s=1.0)
            except BatcherClosedError:
                with lock:
                    rejected += 1
                return
            with lock:
                futures.append(fut)

    threads = [threading.Thread(target=producer) for _ in range(8)]
    for thread in threads:
        thread.start()
    time.sleep(0.05)  # let producers overlap the close
    batcher.close()
    stop.set()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    # Every accepted submission resolved; none hangs past close().
    assert futures
    for fut in futures:
        tier, group = fut.result(timeout=5)
        assert isinstance(tier, int) and isinstance(group, int)
    # Post-close submissions fail fast and explicitly.
    with pytest.raises(BatcherClosedError):
        batcher.submit(110.0, 5.5)


def test_assign_one_timeout_is_a_single_budget(fitted_a):
    """Enqueue wait and result wait share one deadline, not two."""

    class _StuckBatcher(MicroBatcher):
        def submit(self, download, upload, timeout_s=None):
            time.sleep(0.3)  # slow enqueue eats into the budget
            return Future()  # never resolves

    batcher = _StuckBatcher(TierAssigner(fitted_a))
    try:
        start = time.monotonic()
        with pytest.raises(FutureTimeoutError):
            batcher.assign_one(110.0, 5.5, timeout_s=0.5)
        elapsed = time.monotonic() - start
        # Pre-fix this waited 0.3s + a full 0.5s result timeout.
        assert elapsed < 0.75
    finally:
        MicroBatcher.close(batcher)


# ---------------------------------------------------------------------------
# Fix 3: rejected batches must not pollute drift statistics
# ---------------------------------------------------------------------------
def test_rejected_batch_leaves_drift_stats_untouched(service):
    before = service.monitor.n_events
    with pytest.raises(ValueError):
        service.assign_payload(
            {
                "downloads": [float("nan")] * 500,
                "uploads": [5.5] * 500,
            }
        )
    with pytest.raises(ValueError):
        service.assign_payload(
            {"downloads": [110.0, 120.0], "uploads": [5.5]}
        )
    assert service.monitor.n_events == before
    # A valid batch still observes.
    service.assign_payload({"downloads": [110.0], "uploads": [5.5]})
    assert service.monitor.n_events == before + 1


# ---------------------------------------------------------------------------
# Fix 4: queue saturation answers a structured 503, not a 500
# ---------------------------------------------------------------------------
class _SaturatedBatcher:
    """Stands in for a micro-batcher whose queue never drains."""

    def assign_one(self, download, upload, timeout_s=30.0):
        raise queue.Full

    def close(self) -> None:
        pass


def test_saturated_queue_maps_to_503(tmp_path, fitted_a, ookla_a, catalog_a):
    registry = ModelRegistry(tmp_path / "registry")
    registry.register(registry.key_for("A", catalog_a), fitted_a)
    server = build_server(registry, ServeConfig(port=0, default_city="A"))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        loaded = server.service.resolve()
        with loaded.lock:
            loaded.batcher = _SaturatedBatcher()
        body = json.dumps(
            {"downloads": [110.0], "uploads": [5.5], "stream": True}
        ).encode()
        request = urllib.request.Request(
            f"http://{host}:{port}/assign",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        response = excinfo.value
        assert response.code == 503
        assert response.headers.get("Retry-After") == "1"
        payload = json.loads(response.read())
        assert "saturated" in payload["error"]["message"]
        assert payload["error"]["code"] == 503
        assert payload["error"]["trace_id"]
        assert (
            server.service.metrics.counter("serve.queue_rejections").value
            == 1
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
