"""The batch path: generate -> NDT join -> contextualize (fit + register)
-> CSV, plus the MBA Table 2 accuracy check.

Nothing here touches HTTP; the simulators and the BST fit do the work.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

import numpy as np

from common import CITIES, median, span_self_times, timed_call, wrap, Calls

MIN_UPLOAD_ACCURACY = 0.96  # the paper's lowest Table 2 figure


def one_pass(seed: int, workdir: Path, traced: bool, n_tests: int,
             n_mba: int) -> dict:
    """Run one full pass; returns timings, counts and check failures."""
    from repro.core.assignment import accuracy_report
    from repro.core.bst import BSTModel
    from repro.frame.io import write_csv
    from repro.market.isps import city_catalog, state_catalog
    from repro.obs import use_collector, use_registry
    from repro.pipeline.contextualize import contextualize
    from repro.pipeline.ndt_join import join_ndt_tests
    from repro.serve.registry import ModelRegistry
    from repro.vendors.mba import MBASimulator
    from repro.vendors.mlab import MLabSimulator
    from repro.vendors.ookla import OoklaSimulator

    seeds = np.random.SeedSequence([seed, 1]).generate_state(3 * len(CITIES))
    workdir.mkdir(parents=True, exist_ok=True)
    registries = {
        vendor: ModelRegistry(workdir / f"models-{vendor}")
        for vendor in ("ookla", "mlab")
    }
    register_calls = Calls()
    if traced:
        for registry in registries.values():
            wrap(registry, "register", register_calls)
    stage: dict[str, float] = {}
    counts = {"rows_generated": 0, "ndt_records": 0, "ndt_pairs": 0,
              "operations": 0}
    failures: list[str] = []
    csv_rows: dict[Path, int] = {}

    def run() -> None:
        for i, city in enumerate(CITIES):
            catalog = city_catalog(city)
            ookla = timed_call(
                stage, "vendors.ookla.generate_s",
                OoklaSimulator(city, seed=int(seeds[i])).generate, n_tests,
            )
            raw = timed_call(
                stage, "vendors.mlab.generate_s",
                MLabSimulator(city, seed=int(seeds[4 + i])).generate, n_tests,
            )
            joined = timed_call(
                stage, "pipeline.ndt_join_s", join_ndt_tests, raw
            )
            counts["rows_generated"] += len(ookla) + len(raw)
            counts["ndt_records"] += len(raw)
            counts["ndt_pairs"] += len(joined)
            counts["operations"] += 3
            for vendor, table in (("ookla", ookla), ("mlab", joined)):
                ctx = timed_call(
                    stage, "pipeline.contextualize_s", contextualize,
                    table, catalog, registry=registries[vendor], city=city,
                )
                path = workdir / f"{vendor}-{city}.csv"
                timed_call(stage, "frame.write_csv_s", write_csv,
                           ctx.table, path)
                csv_rows[path] = len(ctx)
                counts["operations"] += 2
                failures.extend(_check_context(ctx, table, catalog, vendor,
                                               city))
        for i, state in enumerate(CITIES):
            mba = timed_call(
                stage, "vendors.mba.generate_s",
                MBASimulator(state, seed=int(seeds[8 + i])).generate, n_mba,
            )
            counts["rows_generated"] += len(mba)
            result = timed_call(
                stage, "pipeline.mba_fit_s",
                BSTModel(state_catalog(state)).fit,
                mba["download_mbps"], mba["upload_mbps"],
            )
            report = timed_call(
                stage, "pipeline.accuracy_report_s",
                accuracy_report, result, mba["tier"],
            )
            counts["operations"] += 3
            if report.upload_group_accuracy < MIN_UPLOAD_ACCURACY:
                failures.append(
                    f"MBA state {state}: upload-group accuracy "
                    f"{report.upload_group_accuracy:.4f} < "
                    f"{MIN_UPLOAD_ACCURACY}"
                )

    t0 = time.perf_counter()
    if traced:
        with use_collector() as collector, use_registry() as metrics:
            run()
        wall = time.perf_counter() - t0
        spans = span_self_times(collector)
        unconverged = metrics.counter("em.unconverged").value
    else:
        run()
        wall = time.perf_counter() - t0
        spans, unconverged = {}, 0.0

    # Checks off the clock: models registered, CSVs complete.
    for vendor, registry in registries.items():
        cities = {record.key.city for record in registry.records()}
        if cities != set(CITIES):
            failures.append(f"{vendor} registry holds {sorted(cities)}")
    for path, n_rows in csv_rows.items():
        with open(path, "rb") as handle:
            n_lines = sum(1 for _ in handle)
        if n_lines != n_rows + 1:
            failures.append(f"{path.name}: {n_lines} lines for {n_rows} rows")
    shutil.rmtree(workdir, ignore_errors=True)
    return {
        "wall_s": wall,
        "stage": stage,
        "counts": counts,
        "failures": failures,
        "spans": spans,
        "register_s": register_calls.total_s,
        "unconverged": unconverged,
    }


def _check_context(ctx, table, catalog, vendor: str, city: str) -> list[str]:
    """Every finite input row is contextualized and mapped to a plan."""
    down = np.asarray(table["download_mbps"], dtype=float)
    up = np.asarray(table["upload_mbps"], dtype=float)
    n_finite = int((np.isfinite(down) & np.isfinite(up)).sum())
    out = []
    if len(ctx) != n_finite:
        out.append(f"{vendor}/{city}: {len(ctx)} rows for {n_finite} inputs")
    tiers = np.asarray(ctx.table["bst_tier"])
    if not np.isin(tiers, list(catalog.tiers)).all():
        out.append(f"{vendor}/{city}: tier outside the plan catalog")
    labels = set(ctx.group_labels)
    if not all(g in labels for g in ctx.table["bst_group"]):
        out.append(f"{vendor}/{city}: row with an unmapped upload group")
    for column in ("plan_download_mbps", "normalized_download",
                   "normalized_upload"):
        if not np.isfinite(np.asarray(ctx.table[column], float)).all():
            out.append(f"{vendor}/{city}: non-finite {column}")
    return out


class Phase:
    """An untimed warm-up pass, then one pass per step, every pass on
    the same inputs (a seed derived from the run's), so passes differ
    only by the host.

    The traced run follows each untraced pass with a traced one on the
    same inputs, so the tracing overhead is measured on the same work.
    """

    def __init__(self, wl, seed: int, workdir: Path, traced: bool):
        self.wl, self.workdir, self.traced = wl, workdir, traced
        self.seed = int(np.random.SeedSequence([seed, 100])
                        .generate_state(1)[0])
        self.warm = one_pass(seed, workdir / "warm", traced=False,
                             n_tests=150, n_mba=wl.n_mba)
        self.passes: list[dict] = []
        self.traced_passes: list[dict] = []

    def step(self, i: int) -> None:
        self.passes.append(one_pass(
            self.seed, self.workdir / f"pass{i}", traced=False,
            n_tests=self.wl.n_tests, n_mba=self.wl.n_mba))
        if self.traced:
            self.traced_passes.append(one_pass(
                self.seed, self.workdir / f"tpass{i}", traced=True,
                n_tests=self.wl.n_tests, n_mba=self.wl.n_mba))

    def finish(self) -> dict:
        return {"passes": self.passes, "traced": self.traced_passes,
                "warm": self.warm}


def summarize(phase: dict) -> tuple[dict, dict, dict]:
    """(end-to-end metrics, per-layer metrics, accounting)."""
    passes = phase["passes"]
    walls = [p["wall_s"] for p in passes]
    e2e = {"pipeline_s": median(walls)}
    ops = sum(p["counts"]["operations"] for p in passes)
    failures = [f for p in [phase["warm"]] + passes for f in p["failures"]]
    layer: dict[str, float] = {}
    traced = phase["traced"]
    if traced:
        def med(fn):
            return median([fn(p) for p in traced])

        for key in ("vendors.ookla.generate_s", "vendors.mlab.generate_s",
                    "vendors.mba.generate_s", "pipeline.ndt_join_s",
                    "pipeline.contextualize_s", "frame.write_csv_s",
                    "pipeline.mba_fit_s", "pipeline.accuracy_report_s"):
            layer[key] = med(lambda p, k=key: p["stage"].get(k, 0.0))
        layer["vendors.rows_per_s"] = med(
            lambda p: p["counts"]["rows_generated"] / sum(
                v for k, v in p["stage"].items() if k.startswith("vendors.")
            )
        )
        layer["pipeline.ndt_join.pair_yield"] = med(
            lambda p: p["counts"]["ndt_pairs"] / p["counts"]["ndt_records"]
        )
        # Self time of the spans the program already emits.
        layer["core.bst.fit_s"] = med(lambda p: sum(
            v for k, v in p["spans"].items() if k.startswith("bst.")))
        layer["stats.kde.grid_s"] = med(
            lambda p: p["spans"].get("kde.grid", 0.0))
        layer["stats.gmm.fit_s"] = med(
            lambda p: p["spans"].get("gmm.fit", 0.0))
        layer["stats.gmm.unconverged"] = med(lambda p: p["unconverged"])
        layer["serve.registry.register_s"] = med(lambda p: p["register_s"])
        layer["pipeline.unaccounted_s"] = med(
            lambda p: p["wall_s"] - sum(p["stage"].values()))
        traced_wall = median([p["wall_s"] for p in traced])
        layer["obs.trace_overhead_pct.pipeline"] = (
            100.0 * (traced_wall - e2e["pipeline_s"]) / e2e["pipeline_s"]
        )
        failures += [f for p in traced for f in p["failures"]]
        ops += sum(p["counts"]["operations"] for p in traced)
    accounting = {"attempted": ops + phase["warm"]["counts"]["operations"],
                  "failed": len(failures), "failures": failures,
                  "n_passes": len(passes),
                  "samples": [round(w, 3) for w in walls]}
    return e2e, layer, accounting
