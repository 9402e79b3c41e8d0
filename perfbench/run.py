#!/usr/bin/env python3
"""Repository benchmark: the batch pipeline, /assign serving and the
stream -> refit -> /reload lifecycle, with correctness checks.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {interactive,bulk} \
        --seed N --seconds S --trace {0,1}

Every run sets the system up several times (median reported as
``setup_s``), then runs rounds of the three phases -- a pipeline pass,
an /assign closed-loop repeat (and, traced, an open-loop one), a
lifecycle episode -- on the workload's inputs for ``--seconds``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones.  The last stdout line is one JSON object; the lines
before it are the human-readable report.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    import common

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(common.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if not spec_path.is_file():
        print(f"perfbench: no {spec_path}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    # A SIGTERM from the caller unwinds through the finally below, which stops
    # the server; the default action would leave it running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["REPRO_LEDGER"] = "0"

    import assign_phase
    import lifecycle_phase
    import pipeline_phase
    import system

    traced = bool(args.trace)
    workdir = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    wl = common.WORKLOADS[args.workload]
    live = None
    try:
        calib = common.calibration()
        setups = []
        for rep in range(SETUP_REPS):
            if live is not None:
                live.server.stop()
            live = system.build(args.seed, workdir / f"setup{rep}")
            setups.append(live)
        phases = {
            "pipeline": pipeline_phase.Phase(
                wl, args.seed, workdir / "pipeline", traced),
            "assign": assign_phase.Phase(wl, live, args.seed, traced),
            "lifecycle": lifecycle_phase.Phase(wl, live, args.seed, traced),
        }
        # Rounds of one step of each phase, so every metric's samples
        # spread over the whole run rather than one stretch of it: the
        # host's speed drifts over tens of seconds.  A round starts only
        # if one more, at the mean round time so far, fits.
        t_start = time.perf_counter()
        i = 0
        while i < 1 or (time.perf_counter() - t_start) * (i + 1) / i \
                <= args.seconds:
            for phase in phases.values():
                phase.step(i)
            i += 1
        results = {name: phase.finish() for name, phase in phases.items()}
    finally:
        if live is not None:
            live.server.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still owns a directory there

    e2e, layer, accounts = {}, {}, {}
    for name, module in (("pipeline", pipeline_phase),
                         ("assign", assign_phase),
                         ("lifecycle", lifecycle_phase)):
        phase_e2e, phase_layer, accounts[name] = module.summarize(
            results[name])
        e2e.update(phase_e2e)
        layer.update(phase_layer)
    e2e["setup_s"] = common.median([s.setup_s for s in setups])
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    e2e["peak_rss_mb"] = (usage_self + usage_kids) / 1024.0
    for part in setups[0].parts:
        layer[f"setup.{part}"] = common.median([s.parts[part] for s in setups])
    layer["calib.numpy_ms"] = calib["numpy"]
    layer["calib.python_ms"] = calib["python"]

    failures = [f"{name}: {f}" for name, a in accounts.items()
                for f in a["failures"]]
    attempted = sum(a["attempted"] for a in accounts.values())
    failed = sum(a["failed"] for a in accounts.values())
    bad = [k for k, v in e2e.items() if not (v == v and v > 0)]
    failures += [f"metric {k} has no positive value" for k in bad]

    # Names and units come from BENCHMARK.json; a metric it lists that
    # the run did not produce, or the reverse, fails the run.
    listed = spec["per_layer" if traced else "end_to_end"]
    values = layer if traced else e2e
    metrics = {m["name"]: {"value": values.get(m["name"]),
                           "unit": m["unit"]} for m in listed}
    if set(metrics) != set(values):
        failures.append("metrics differ from those BENCHMARK.json lists: "
                        f"{sorted(set(metrics) ^ set(values))}")
    report(args, spec, e2e, layer, accounts, calib, failures)
    print(json.dumps({
        "correct": not failures,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
    return 0


def report(args, spec, e2e, layer, accounts, calib, failures) -> None:
    assign = accounts["assign"]
    life = accounts["lifecycle"]
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"calibration numpy={calib['numpy']:.2f}ms "
          f"python={calib['python']:.2f}ms")
    notes = {
        "pipeline_s": f"median of {accounts['pipeline']['n_passes']} passes",
        "assign_p50_ms": f"closed loop, median of repeats, "
                         f"n={assign['n_capacity']}",
        "assign_tail_ms": f"closed loop, p{assign['tail_pct']:.1f} per "
                          f"repeat",
        "assign_max_rps": f"closed loop, repeats {assign['capacity']}",
        "lifecycle_s": f"median of {life['n_episodes']} episodes per "
                       "block of batches, summed",
    }
    for m in spec["end_to_end"]:
        name = m["name"]
        print(f"  {name:<26} {e2e.get(name, math.nan):>12.4f} "
              f"{m['unit']:<4} {notes.get(name, '')}")
    print(f"  pipeline passes {accounts['pipeline']['samples']} s; "
          f"lifecycle episodes {life['samples']} s")
    if assign["n_open"]:
        print(f"  assign open loop at {assign['rate']} req/s: p50 "
              f"{assign['open_p50_ms']:.1f}ms, n={assign['n_open']}")
    print(f"  lifecycle reads: p50 {life['read_p50_ms']:.1f}ms, "
          f"p{life['tail_pct']:.1f} {life['read_tail_ms']:.1f}ms, "
          f"n={life['n_reads']}")
    print(f"  per episode: refits {life['refits']}, incidents_missed "
          f"{life['incidents_missed']}, false_refits {life['false_refits']}")
    if args.trace:
        for name, value in sorted(layer.items()):
            print(f"  {name:<40} {value:>14.4f}")
    for failure in failures[:20]:
        print(f"  FAILED CHECK {failure}")


if __name__ == "__main__":
    sys.exit(main())
