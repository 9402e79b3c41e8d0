"""`repro serve --refit` wiring: one drift detector behind every reader.

:func:`repro.stream.attach.attach_refit` on a single-process server must
install its windowed monitor as the service's drift detector, so
``/healthz``, ``AssignmentService.drift_status()`` (the ``model_drift``
alert's source) and the refit scheduler all read the same verdicts.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.bst import BSTModel
from repro.serve.client import ServeClient
from repro.serve.registry import ModelRegistry
from repro.serve.server import ServeConfig, build_server
from repro.stream.attach import attach_refit
from repro.stream.clock import SimClock
from repro.stream.firehose import MeasurementStream
from repro.stream.run import warmup_and_register
from repro.stream.scheduler import RefitPolicy

#: Seconds between requests; 12 requests fill one 60 s monitor window.
STEP_S = 5.0
ROWS = 50


@pytest.fixture
def attached(tmp_path):
    """A live server over a one-model registry with refit attached."""
    registry = ModelRegistry(tmp_path / "registry")
    stream = MeasurementStream(
        "ookla", "A", seed=7, events_per_s=500.0, batch_size=128,
        pool_size=1024, diurnal=False,
    )
    record = warmup_and_register(stream, registry)
    server = build_server(
        registry,
        ServeConfig(port=0, default_city="A", alert_interval_s=0.0),
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    monitor, scheduler = attach_refit(
        server, policy=RefitPolicy(min_hold_s=1e9), ledger_path=None
    )
    scheduler.stop()
    clock = SimClock(1_000.0)
    monitor.clock = clock
    host, port = server.server_address[:2]
    try:
        yield {
            "server": server,
            "client": ServeClient(f"http://{host}:{port}"),
            "monitor": monitor,
            "scheduler": scheduler,
            "clock": clock,
            "record": record,
            "stream": stream,
        }
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def _send_windows(ctx, n_windows: int, download_scale: float) -> None:
    """``n_windows`` monitor windows of training-mean traffic, downloads
    scaled by ``download_scale``."""
    stats = ctx["record"].training_stats
    down = stats["download_mbps"]["mean"] * download_scale
    up = stats["upload_mbps"]["mean"]
    service = ctx["server"].service
    steps = int(round(n_windows * ctx["monitor"].window_s / STEP_S))
    for _ in range(steps):
        ctx["clock"].advance(STEP_S)
        service.assign_payload(
            {"downloads": [down] * ROWS, "uploads": [up] * ROWS}
        )


def _download_delta(rows: list[dict]) -> tuple[bool, float]:
    (row,) = rows
    return row["drifted"], row["directions"]["download_mbps"][
        "relative_delta"
    ]


def test_healthz_alerts_and_scheduler_share_one_windowed_verdict(attached):
    service = attached["server"].service
    monitor = attached["monitor"]
    _send_windows(attached, 5, 1.0)
    assert not any(row["drifted"] for row in service.drift_status())
    # One window of 2.5x downloads: the window now holds only shifted
    # traffic, while a since-load mean would still sit near 1.25x.
    _send_windows(attached, 1, 2.5)

    health = attached["client"].healthz()
    assert [row["drifted"] for row in health["drift"]] == [True]
    _, delta = _download_delta(health["drift"])
    assert delta == pytest.approx(1.5)
    assert _download_delta(service.drift_status()) == (True, delta)
    assert _download_delta(monitor.verdicts()) == (True, delta)
    assert service.monitor is monitor
    assert attached["scheduler"].monitor is monitor
    assert service.metrics.counter("stream.drift_flags").value == 1


def test_reload_rebaselines_the_service_monitor(attached):
    """After a refit registers under the same key, ``reload`` makes the
    verdict read the new training stats (the window keeps its data)."""
    service = attached["server"].service
    _send_windows(attached, 1, 2.5)
    assert _download_delta(service.drift_status())[0] is True

    record = attached["record"]
    pool = attached["stream"].pool
    downs = np.asarray(pool["downloads"], dtype=float) * 2.5
    ups = np.asarray(pool["uploads"], dtype=float)
    result = BSTModel(attached["stream"].catalog).fit(downs, ups)
    service.registry.register(record.key, result, downloads=downs, uploads=ups)
    # Until the reload the cached baseline still says drifted.
    assert _download_delta(service.drift_status())[0] is True
    service.reload([record.key.slug])
    drifted, delta = _download_delta(service.drift_status())
    assert not drifted
    assert delta == pytest.approx(0.0, abs=1e-9)
