"""Set-up shared by every workload: warm registry for cities A-D and a
live ``repro serve --workers 2`` on it."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import CITIES, KeepAlive, Server, import_time_s

POOL_SIZE = 1024  # Ookla tests per city behind the warm models


@dataclass
class System:
    registry_dir: Path
    registry: object  # repro.serve.registry.ModelRegistry
    server: Server
    pools: dict  # city -> {"downloads", "uploads", "tiers"}
    catalogs: dict  # city -> PlanCatalog
    setup_s: float
    parts: dict


def build(seed: int, workdir: Path) -> System:
    """Imports (fresh interpreter), warm registry, server spawn, warm-up."""
    from repro.serve.registry import ModelRegistry
    from repro.stream.firehose import MeasurementStream
    from repro.stream.run import warmup_and_register

    parts = {}
    t_all = time.perf_counter()
    parts["import_s"] = import_time_s()

    t0 = time.perf_counter()
    registry_dir = workdir / "models"
    registry = ModelRegistry(registry_dir)
    seeds = np.random.SeedSequence([seed, 2]).generate_state(len(CITIES))
    pools, catalogs = {}, {}
    for city, sub in zip(CITIES, seeds):
        stream = MeasurementStream(
            "ookla", city, seed=int(sub), pool_size=POOL_SIZE
        )
        warmup_and_register(stream, registry)
        pools[city] = stream.pool
        catalogs[city] = stream.catalog
    parts["registry_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    server = Server(registry_dir, workdir / "server")
    parts["spawn_s"] = time.perf_counter() - t0

    # Warm-up: one request per city loads each model in its worker.
    t0 = time.perf_counter()
    conn = KeepAlive(server.host, server.port)
    try:
        for city in CITIES:
            body = json.dumps({
                "city": city,
                "downloads": pools[city]["downloads"][:8].tolist(),
                "uploads": pools[city]["uploads"][:8].tolist(),
            }).encode()
            status, _ = conn.post("/assign", body)
            if status != 200:
                server.stop()
                raise RuntimeError(f"warm-up for city {city}: HTTP {status}")
    finally:
        conn.close()
    parts["warmup_s"] = time.perf_counter() - t0
    return System(
        registry_dir=registry_dir,
        registry=registry,
        server=server,
        pools=pools,
        catalogs=catalogs,
        setup_s=time.perf_counter() - t_all,
        parts=parts,
    )
