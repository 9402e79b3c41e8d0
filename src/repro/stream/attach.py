"""Attach the online lifecycle to a live serving process.

``repro serve --refit`` calls :func:`attach_refit` after building the
server: it feeds successfully-assigned traffic into a ``window_s``
:class:`~repro.stream.monitor.StreamMonitor` (so the windowed stats see
exactly what the models see), wires the scheduler's hot-swap callback
to the server's ``/reload`` machinery, and starts the
:class:`~repro.stream.scheduler.RefitScheduler` daemon on the real
clock (the only place :func:`repro.stream.clock.system_clock` is
handed out).

Works against both server shapes:

- a single-process :class:`~repro.serve.server.ServeServer` -- the
  monitor *becomes* ``AssignmentService.monitor``, the service's one
  drift detector, and the swap calls ``AssignmentService.reload``;
- a :class:`~repro.serve.router.RouterServer` -- the tap feeds from the
  router's forward path and the swap fans ``POST /reload`` out to the
  owning worker shards.
"""

from __future__ import annotations

from typing import Any

from repro.core.bst import BSTConfig
from repro.obs.logging import get_logger, kv
from repro.stream.clock import system_clock
from repro.stream.monitor import StreamMonitor
from repro.stream.scheduler import RefitPolicy, RefitScheduler

__all__ = ["attach_refit"]

log = get_logger("repro.stream.attach")


def attach_refit(
    server: Any,
    policy: RefitPolicy | None = None,
    config: BSTConfig | None = None,
    interval_s: float = 5.0,
    window_s: float = 60.0,
    jobs: int = 1,
    ledger_path: str | None = "auto",
) -> tuple[StreamMonitor, RefitScheduler]:
    """Wire monitor + scheduler into a built server and start polling.

    Returns ``(monitor, scheduler)``; the caller owns stopping the
    scheduler (``scheduler.stop()``) when the server shuts down.
    """
    clock = system_clock()
    if hasattr(server, "service"):  # single-process ServeServer
        service = server.service
        registry = service.registry
        monitor = service.monitor = StreamMonitor(
            registry=registry,
            metrics=service.metrics,
            clock=clock,
            window_s=window_s,
            drift_rel_threshold=service.config.drift_rel_threshold,
            min_samples=service.config.drift_min_samples,
        )
        reload_cb = service.reload
        mode = "in-process"
    elif hasattr(server, "router"):  # sharded RouterServer
        router = server.router
        registry = router.registry
        monitor = StreamMonitor(
            registry=registry,
            metrics=router.metrics,
            clock=clock,
            window_s=window_s,
        )
        router.stream_tap = monitor.observe_arrays
        reload_cb = router.reload_models
        mode = "router fan-out"
    else:
        raise TypeError(
            f"cannot attach a refit scheduler to {type(server).__name__}; "
            "expected a ServeServer or RouterServer"
        )
    scheduler = RefitScheduler(
        registry=registry,
        monitor=monitor,
        policy=policy,
        clock=clock,
        config=config,
        reload_cb=reload_cb,
        jobs=jobs,
        ledger_path=ledger_path,
    )
    scheduler.start(interval_s=interval_s)
    log.info(
        "refit scheduler attached",
        extra=kv(mode=mode, interval_s=interval_s),
    )
    return monitor, scheduler
