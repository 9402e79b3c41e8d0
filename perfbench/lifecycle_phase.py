"""Writes beside reads: a four-city Ookla firehose on a SimClock with
scripted incidents, the refit scheduler hot-swapping models into the
live server through a timed ``/reload``, and a low-rate ``/assign`` read
load against the same server for the whole phase."""

from __future__ import annotations

import bisect
import copy
import json
import sys
import threading
import time

import numpy as np

from common import (CITIES, Calls, KeepAlive, block_median_sum, median,
                    run_open_loop, span_self_times, tail, wrap)

BATCH = 256
POOL = 1024
START_S = 6 * 3600.0  # stream clock origin
DURATION_S = 300.0  # stream seconds per episode
ONSET_S = (40.0, 70.0)  # incident onset window after the start
# A is congested for 60 s, clear for 60 s, congested for 60 s again:
# each change of regime is one refit and one swap.
CONGESTION_S = 60.0
WINDOW_S = 30.0
POLL_S = 1.0
POLICY = {"min_hold_s": 2.0, "cooldown_s": 30.0}
SAMPLE_CAP = 2048
BLOCK = 32  # stream batches per timed step of an episode
READ_RATE = 10.0  # /assign requests per second of wall time
# Scripted incidents; D is the diurnal-only negative control.
CONGESTION = 0.4  # A: download mean shift
TIER_SHIFT = 0.5  # B: mean-preserving tier-mix shift
SMALL_SHIFT = 0.75  # C: smaller download shift
INCIDENT_CITIES = ("A", "B", "C")
LAYERS = ("stream.firehose.next_batch_s", "stream.monitor.observe_s",
          "stream.monitor.verdicts_s", "obs.alerts.evaluate_s",
          "stream.scheduler.poll_s")


def _segments(city: str, onset: float, pool: dict):
    from repro.stream.firehose import DriftSegment

    if city == "A":
        return tuple(
            DriftSegment(start_s=start, duration_s=CONGESTION_S,
                         download_scale=CONGESTION)
            for start in (onset, onset + 2 * CONGESTION_S))
    if city == "C":
        return (DriftSegment(start_s=onset, download_scale=SMALL_SHIFT),)
    if city == "B":
        # Drop upper-half tiers and rescale both directions so the
        # expected means stay where they were: only the mix moves.
        upper = pool["tiers"] > np.median(pool["tiers"])
        weight = np.where(upper, 1.0 - TIER_SHIFT, 1.0)
        scales = {}
        for direction in ("downloads", "uploads"):
            values = pool[direction]
            shifted = (weight * values).sum() / weight.sum()
            scales[direction] = float(values.mean() / shifted)
        return (DriftSegment(start_s=onset,
                             download_scale=scales["downloads"],
                             upload_scale=scales["uploads"],
                             tier_share_shift=TIER_SHIFT),)
    return ()


def episode(system, templates, onsets: dict, traced: bool) -> dict:
    """Copies of the template streams -> warm models registered and
    ``/reload``ed, then the stream run with refits swapped into the live
    server."""
    from repro.obs import use_collector
    from repro.serve.client import ServeClient
    from repro.stream.clock import SimClock
    from repro.stream.firehose import StreamMux
    from repro.stream.monitor import StreamMonitor
    from repro.stream.run import StreamSession, warmup_and_register
    from repro.stream.scheduler import RefitPolicy, RefitScheduler

    registry = system.registry
    streams, digests = copy.deepcopy(templates), {}
    for city, stream in zip(CITIES, streams):
        digests[city] = [warmup_and_register(stream, registry).digest]
    client = ServeClient(system.server.url, retries=0)
    client.reload()
    t_begin = time.perf_counter()

    sim = SimClock(START_S)
    monitor = StreamMonitor(registry=registry, clock=sim, window_s=WINDOW_S,
                            sample_cap=SAMPLE_CAP)
    swaps: list[dict] = []
    poll_starts: list[float] = []
    reload_calls = Calls()
    probe = KeepAlive(system.server.host, system.server.port, reuse=False)
    probes: list[tuple[float, float]] = []  # swap probes, off the clock

    def reload_cb(slugs):
        # One call per poll that completed refits, in refit order.  A
        # reload that raises or that a worker did not answer with 200 is
        # a failed swap: it has no acknowledgement time.
        t0 = time.perf_counter()
        swap = {"slugs": list(slugs), "ok": False, "served": {}}
        swaps.append(swap)
        try:
            reply = client.reload(slugs)
            swap["ok"] = all(row.get("status") == 200 and "error" not in row
                             for row in reply.get("workers", ()))
            return reply
        finally:
            t_ack = time.perf_counter()
            reload_calls.add(t_ack - t0)
            swap.update(t_ack=t_ack, swap_s=t_ack - poll_starts[-1])
            if swap["ok"]:
                for slug in slugs:
                    swap["served"][slug] = _probe_swap(system, probe, slug)
            probes.append((t_ack, time.perf_counter()))

    scheduler = RefitScheduler(
        registry=registry, monitor=monitor, policy=RefitPolicy(**POLICY),
        clock=sim, reload_cb=reload_cb, ledger_path=None,
    )
    calls = {name: Calls() for name in LAYERS}
    wrap(scheduler, "poll", calls["stream.scheduler.poll_s"],
         on_start=poll_starts.append)
    mux = StreamMux(streams)
    batch_starts: list[float] = []
    wrap(mux, "next_batch", Calls(), on_start=batch_starts.append)
    if traced:
        wrap(mux, "next_batch", calls["stream.firehose.next_batch_s"])
        wrap(monitor, "observe", calls["stream.monitor.observe_s"])
        wrap(monitor, "verdicts", calls["stream.monitor.verdicts_s"])
    session = StreamSession(mux, monitor, sim, scheduler=scheduler,
                            poll_interval_s=POLL_S)
    if traced:
        wrap(session.alerts, "evaluate", calls["obs.alerts.evaluate_s"])
        with use_collector() as collector:
            t0 = time.perf_counter()
            summary = session.run(duration_s=DURATION_S)
            t1 = time.perf_counter()
        spans = span_self_times(collector)
    else:
        t0 = time.perf_counter()
        summary = session.run(duration_s=DURATION_S)
        t1 = time.perf_counter()
        spans = {}
    steps = _block_steps([t0] + batch_starts + [t1], probes)
    probe.close()

    refits = summary["refits"]
    # Reloads per slug, consumed in refit order: each refit takes the
    # reload that followed it.
    acks: dict[str, list[dict]] = {}
    for swap in swaps:
        for slug in swap["slugs"]:
            acks.setdefault(slug, []).append(swap)
    timeline = {city: [(t_begin, digests[city][0])] for city in CITIES}
    swapped, false_refits, drift_to_swap = set(), 0, []
    failures = [f"reload of {', '.join(s['slugs'])} failed"
                for s in swaps if not s["ok"]]
    for refit in refits:
        city = refit["city"]
        digests[city].append(refit["new_digest"])
        queue = acks.get(refit["model"], [])
        swap = queue.pop(0) if queue else None
        if swap is None:
            failures.append(f"{city}: refit with no reload")
        elif swap["ok"]:
            failures += _check_served(system.registry, refit,
                                      *swap["served"][refit["model"]])
        timeline[city].append((swap["t_ack"] if swap and swap["ok"]
                               else np.inf, refit["new_digest"]))
        if city in onsets and refit["refit_done"] >= onsets[city]:
            if city not in swapped:
                drift_to_swap.append(refit["refit_done"] - onsets[city])
            swapped.add(city)
        else:
            false_refits += 1
    return {
        "lifecycle_s": sum(steps),
        "steps": steps,
        "swap_ms": [1000.0 * s["swap_s"] for s in swaps if s["ok"]],
        "reload_ms": [1000.0 * d for d in reload_calls.durations],
        "drift_to_swap_s": max(drift_to_swap) if drift_to_swap else None,
        "incidents_missed": sum(c not in swapped for c in INCIDENT_CITIES),
        "false_refits": false_refits,
        "refits": len(refits),
        "events": summary["n_events"],
        "layer": {k: c.total_s for k, c in calls.items()},
        "spans": spans,
        "timeline": timeline,
        "t_end": time.perf_counter(),
        "attempted": (2 * len(refits) + scheduler.n_failures + len(swaps)
                      + sum(len(swap["served"]) for swap in swaps)),
        "failed": len(failures) + scheduler.n_failures,
        "failures": failures,
    }


def make_streams(wl, seed: int):
    """(streams with their base pools built and incidents scripted,
    incident onsets); an episode runs on deep copies of them."""
    from repro.stream.firehose import MeasurementStream

    rng = np.random.default_rng([seed, 5])
    seeds = np.random.SeedSequence([seed, 6]).generate_state(len(CITIES))
    onsets = {city: START_S + float(rng.uniform(*ONSET_S))
              for city in INCIDENT_CITIES}
    streams = []
    for city, sub in zip(CITIES, seeds):
        stream = MeasurementStream(
            "ookla", city, seed=int(sub), events_per_s=wl.events_per_s,
            batch_size=BATCH, pool_size=POOL, start_s=START_S,
        )
        if city in onsets:
            stream.segments = _segments(city, onsets[city], stream.pool)
        stream.pool  # build it now, off every episode's clock
        streams.append(stream)
    return streams, onsets


def _block_steps(marks: list[float], probes) -> list[float]:
    """Wall time of each BLOCK of stream batches, swap probes taken out.

    ``marks`` are the run's start, the start of every batch and the
    run's end; a probe runs inside one batch's poll.
    """
    spans = [b - a for a, b in zip(marks, marks[1:])]
    for start, end in probes:
        spans[bisect.bisect_right(marks, start) - 1] -= end - start
    return [sum(spans[i:i + BLOCK]) for i in range(0, len(spans), BLOCK)]


def _probe_swap(system, conn, slug: str):
    """Right after a swap is acknowledged: the registry's record for the
    slug, the rows sent and the server's answer for them."""
    from repro.serve.registry import ModelKey

    key = ModelKey.from_slug(slug)
    record = system.registry.lookup(key)
    pool = system.pools[key.city]
    down, up = pool["downloads"][:50], pool["uploads"][:50]
    status, data = conn.post("/assign", json.dumps({
        "city": key.city, "downloads": down.tolist(),
        "uploads": up.tolist()}).encode("utf-8"))
    return (record.digest if record else None, down, up, status, data)


def _check_served(registry, refit, record_digest, down, up, status,
                  data) -> list[str]:
    """The swap registered this refit, and the server then served it,
    with answers equal to an offline assigner on it."""
    city = refit["city"]
    if record_digest != refit["new_digest"]:
        return [f"{city}: registry does not hold the refit"]
    answer = json.loads(data) if status == 200 else {}
    expected = _assigner_for(registry, record_digest).assign(down, up)
    if (answer.get("model", {}).get("digest") != record_digest
            or answer.get("tiers") != expected.tiers.tolist()):
        return [f"{city}: served model after the swap is not the refit"]
    return []


def _assigner_for(registry, digest: str):
    from repro.core.serialize import bst_result_from_dict
    from repro.serve.engine import TierAssigner

    data = json.loads(registry.object_path(digest).read_text("utf-8"))
    return TierAssigner(bst_result_from_dict(data))


class Reader:
    """The read load: seeded Poisson arrivals of ``/assign`` requests of
    the workload's read size on their own thread (single tuples go
    through ``"stream": true``).

    Each request opens a fresh connection, so read latency shows the
    swaps rather than the keep-alive delayed-ACK stall, which the
    assign phase already measures.
    """

    def __init__(self, system, seed: int, n_rows: int):
        rng = np.random.default_rng([seed, 7])
        self.bodies, self.city = [], []
        for city in CITIES:
            pool = system.pools[city]
            for _ in range(4):
                rows = rng.integers(0, len(pool["downloads"]), size=n_rows)
                payload = {
                    "city": city,
                    "downloads": pool["downloads"][rows].tolist(),
                    "uploads": pool["uploads"][rows].tolist(),
                }
                if n_rows == 1:
                    payload["stream"] = True
                self.bodies.append(json.dumps(payload).encode("utf-8"))
                self.city.append(city)
        self.rng = rng
        self.conn = KeepAlive(system.server.host, system.server.port,
                              reuse=False)
        self.shots: list = []
        self._stop = threading.Event()
        self._result: list = []
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        n = int(READ_RATE * 120)  # more than one step can take
        offsets = np.cumsum(self.rng.exponential(1 / READ_RATE, n)).tolist()
        indices = self.rng.integers(0, len(self.bodies), size=n).tolist()
        self._stop.clear()
        self._result = []
        self._thread = threading.Thread(
            target=lambda: self._result.append(run_open_loop(
                [self.conn], self.bodies, offsets, indices,
                stop=self._stop)),
            daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=30)
        self.conn.close()
        if self._thread.is_alive() or not self._result:
            raise RuntimeError("read load did not stop")
        self.shots += self._result[0].shots

    def check(self, registry, episodes) -> list[str]:
        """Each read equals an offline assigner for the digest it names;
        a read sent after a swap was acknowledged names no older model."""
        assigners = {}
        failures = []
        for shot in self.shots:
            if shot.status != 200:
                failures.append(f"read: HTTP {shot.status}")
                continue
            answer = json.loads(shot.data)
            digest = answer.get("model", {}).get("digest")
            if digest not in assigners:
                try:
                    assigners[digest] = _assigner_for(registry, digest)
                except (OSError, ValueError, TypeError):
                    failures.append(f"read: unknown model {str(digest)[:16]}")
                    continue
            payload = json.loads(self.bodies[shot.body_index])
            batch = assigners[digest].assign(payload["downloads"],
                                             payload["uploads"])
            if (answer["tiers"] != batch.tiers.tolist()
                    or answer["group_indices"] != batch.group_indices.tolist()):
                failures.append("read: tiers differ from the offline assigner")
            city = self.city[shot.body_index]
            for ep in episodes:
                events = ep["timeline"][city]
                if not events[0][0] <= shot.sent <= ep["t_end"]:
                    continue
                stale = [d for t, d in events if t < shot.sent][:-1]
                if digest in stale:
                    failures.append(f"read: city {city} served a model "
                                    "older than the last acknowledged swap")
        return failures


class Phase:
    """One episode per step, with the read load running through it.
    Every episode runs on the same inputs (a seed derived from the
    run's), so each block of batches repeats."""

    def __init__(self, wl, system, seed: int, traced: bool):
        self.system, self.traced = system, traced
        self.templates, self.onsets = make_streams(wl, int(
            np.random.SeedSequence([seed, 200]).generate_state(1)[0]))
        self.reader = Reader(system, seed, wl.read_rows)
        self.episodes: list[dict] = []
        self.traced_episodes: list[dict] = []

    def step(self, i: int) -> None:
        # The reader shares the interpreter lock with the stream on the
        # main thread; a short switch interval keeps that wait out of
        # read latency.
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(0.0005)
        self.reader.start()
        try:
            self.episodes.append(
                episode(self.system, self.templates, self.onsets,
                        traced=False))
            if self.traced:
                self.traced_episodes.append(
                    episode(self.system, self.templates, self.onsets,
                            traced=True))
        finally:
            self.reader.stop()
            sys.setswitchinterval(switch_interval)

    def finish(self) -> dict:
        read_failures = self.reader.check(
            self.system.registry, self.episodes + self.traced_episodes)
        return {"episodes": self.episodes, "traced": self.traced_episodes,
                "reads": [1000.0 * s.latency_s for s in self.reader.shots],
                "read_failures": read_failures}


def summarize(phase: dict) -> tuple[dict, dict, dict]:
    episodes = phase["episodes"]
    reads = phase["reads"]
    d2s = [e["drift_to_swap_s"] for e in episodes
           if e["drift_to_swap_s"] is not None]
    e2e = {
        "lifecycle_s": block_median_sum([e["steps"] for e in episodes]),
        "drift_to_swap_s": median(d2s),
    }
    layer: dict[str, float] = {
        # Per-layer, not end-to-end: a run repeats one episode's four
        # refits, and their cost depends on the seed's data.
        "lifecycle.swap_ms": median(
            [x for e in episodes for x in e["swap_ms"]]),
        "stream.incidents_missed": median(
            [e["incidents_missed"] for e in episodes]),
        "stream.false_refits": median([e["false_refits"] for e in episodes]),
    }
    all_eps = episodes + phase["traced"]
    failures = [f for e in all_eps for f in e["failures"]]
    failures += phase["read_failures"]
    traced = phase["traced"]
    if traced:
        for key in LAYERS:
            layer[key] = median([e["layer"][key] for e in traced])
        layer["stream.refit_s"] = median(
            [sum(v for k, v in e["spans"].items() if k.startswith(
                ("stream.refit", "bst.", "kde.", "gmm.", "serve.registry.")))
             for e in traced])
        layer["serve.reload_ms"] = median(
            [x for e in traced for x in e["reload_ms"]])
        layer["stream.refits"] = median([e["refits"] for e in traced])
        layer["stream.events_per_s"] = median(
            [e["events"] / e["lifecycle_s"] for e in episodes])
        layer["lifecycle.assign_p50_ms"] = median(reads)
        layer["lifecycle.assign_tail_ms"] = tail(reads)[0]
        traced_s = block_median_sum([e["steps"] for e in traced])
        layer["obs.trace_overhead_pct.lifecycle"] = (
            100.0 * (traced_s - e2e["lifecycle_s"]) / e2e["lifecycle_s"])
    accounting = {
        "attempted": sum(e["attempted"] for e in all_eps) + len(reads),
        "failed": (sum(e["failed"] for e in all_eps)
                   + len(phase["read_failures"])),
        "failures": failures,
        "n_episodes": len(episodes),
        "n_reads": len(reads),
        "tail_pct": tail(reads)[1],
        "read_p50_ms": median(reads),
        "read_tail_ms": tail(reads)[0],
        "samples": [round(e["lifecycle_s"], 3) for e in episodes],
        "incidents_missed": [e["incidents_missed"] for e in episodes],
        "false_refits": [e["false_refits"] for e in episodes],
        "refits": [e["refits"] for e in episodes],
    }
    return e2e, layer, accounting
