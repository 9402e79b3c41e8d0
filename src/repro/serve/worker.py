"""One sharded assignment worker process.

``python -m repro.serve.worker`` runs a single-process
:class:`~repro.serve.server.ServeServer` that owns one shard of the
``(city, isp)`` model space (``--shard I --shards N``; see
:func:`repro.serve.registry.shard_for`).  The router
(:mod:`repro.serve.router`) spawns N of these behind one front
endpoint and parses the ``serving on http://host:port`` line each
worker prints once its ephemeral port is bound.

Each worker loads the models of its shard from the registry's JSON
objects (:meth:`~repro.serve.registry.ModelRegistry.load`) and assigns
with the exact :class:`~repro.serve.engine.TierAssigner`, the same
path as the single-process server.

A worker is a complete server: it keeps its own micro-batchers, drift
monitor, and always-on metrics registry, and shuts down gracefully on
SIGTERM (the router stops workers exactly that way).
"""

from __future__ import annotations

import argparse

from repro.serve.registry import ModelRegistry
from repro.serve.server import ServeConfig, build_server, serve_until_shutdown

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve-worker",
        description="one sharded tier-assignment worker process",
    )
    parser.add_argument("--registry", required=True, help="model store root")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="0 binds an ephemeral port"
    )
    parser.add_argument(
        "--shard", type=int, default=0, help="this worker's shard index"
    )
    parser.add_argument(
        "--shards", type=int, default=1, help="total worker count"
    )
    parser.add_argument("--default-city", default="")
    parser.add_argument("--trace-sample", type=float, default=1.0)
    parser.add_argument(
        "--alert-interval",
        type=float,
        default=0.0,
        help="alert loop period in seconds; 0 disables (router default)",
    )
    parser.add_argument(
        "--alert-log", default=None, help="JSONL alert transition log"
    )
    args = parser.parse_args(argv)
    if not 0 <= args.shard < args.shards:
        parser.error(
            f"--shard {args.shard} outside 0..{args.shards - 1}"
        )
    config = ServeConfig(
        host=args.host,
        port=args.port,
        default_city=args.default_city,
        trace_sample_rate=args.trace_sample,
        alert_interval_s=args.alert_interval,
        alert_log=args.alert_log,
        shard=(args.shard, args.shards),
    )
    server = build_server(ModelRegistry(args.registry), config)
    host, port = server.server_address[:2]
    # The router's supervisor parses this exact line for the bound port.
    print(f"serving on http://{host}:{port}", flush=True)
    return serve_until_shutdown(server)


if __name__ == "__main__":
    raise SystemExit(main())
