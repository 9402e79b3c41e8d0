"""Shared helpers: statistics, call timers, span self-time, the server
subprocess, keep-alive HTTP, open- and closed-loop request generators and the
calibration loop."""

from __future__ import annotations

import http.client
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CITIES = ("A", "B", "C", "D")


@dataclass(frozen=True)
class Workload:
    """The inputs one workload feeds through every phase."""

    n_tests: int  # Ookla tests and M-Lab sessions per city and pass
    n_mba: int  # MBA tests per state and pass
    mix: dict  # /assign rows per request -> requests per block of 20
    events_per_s: float  # stream events per city, before diurnal swing
    read_rows: int  # rows per /assign read beside the stream


WORKLOADS = {
    # A client app: single tuples through the micro-batcher, small
    # per-city campaigns.
    "interactive": Workload(n_tests=400, n_mba=600, mix={1: 20},
                            events_per_s=800.0, read_rows=1),
    # Batch consumers: mostly 2000-row requests, larger campaigns and a
    # denser firehose.  One request size carries the mix, so the latency
    # median does not sit between two sizes.
    "bulk": Workload(n_tests=600, n_mba=1000, mix={200: 2, 2000: 18},
                     events_per_s=1000.0, read_rows=2000),
}


# -- statistics ------------------------------------------------------------
def median(values) -> float:
    values = sorted(values)
    if not values:
        return float("nan")
    mid = len(values) // 2
    if len(values) % 2:
        return float(values[mid])
    return 0.5 * (values[mid - 1] + values[mid])


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, n) of the highest percentile that still has
    ten samples beyond it: the 11th-largest sample.  Fewer than 11
    samples give the maximum, labelled as the 100th percentile."""
    values = sorted(values)
    n = len(values)
    if n == 0:
        return float("nan"), float("nan"), 0
    if n <= 10:
        return float(values[-1]), 100.0, n
    return float(values[n - 11]), 100.0 * (n - 10) / n, n


def block_median_sum(repeats: list[list[float]]) -> float:
    """Sum over block positions of the median repeat of each block.

    ``repeats`` holds one list of block times per repeat of the same
    work on the same inputs.  A burst of contention (a read, a reload on
    the other core) slows a few blocks of one repeat; the median of
    each block leaves it out, where a median of whole repeats would
    take it in.  NaN when the repeats did not run the same blocks.
    """
    if not repeats or len({len(r) for r in repeats}) != 1:
        return float("nan")
    return float(sum(median(block) for block in zip(*repeats)))


# -- call timing -----------------------------------------------------------
class Calls:
    """Busy time and per-call durations of one wrapped callable."""

    def __init__(self) -> None:
        self.total_s = 0.0
        self.durations: list[float] = []

    def add(self, dt: float) -> None:
        self.total_s += dt
        self.durations.append(dt)


def wrap(obj, name: str, calls: Calls, on_start=None) -> Calls:
    """Time every call of ``obj.name`` through an instance attribute.

    The class is untouched; only this instance's lookup is shadowed.
    ``on_start`` (optional) receives the call's start time.
    """
    original = getattr(obj, name)

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        if on_start is not None:
            on_start(t0)
        try:
            return original(*args, **kwargs)
        finally:
            calls.add(time.perf_counter() - t0)

    setattr(obj, name, timed)
    return calls


def timed_call(sink: dict, key: str, fn, *args, **kwargs):
    """Call ``fn`` and add its wall time to ``sink[key]``."""
    t0 = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        sink[key] = sink.get(key, 0.0) + time.perf_counter() - t0


def span_self_times(collector) -> dict[str, float]:
    """Total self time per span name: duration minus direct children."""
    spans = collector.spans()
    child_total: dict[int, float] = {}
    for sp in spans:
        if sp.parent_id is not None:
            child_total[sp.parent_id] = (
                child_total.get(sp.parent_id, 0.0) + sp.duration_s
            )
    out: dict[str, float] = {}
    for sp in spans:
        own = sp.duration_s - child_total.get(sp.span_id, 0.0)
        out[sp.name] = out.get(sp.name, 0.0) + max(own, 0.0)
    return out


# -- calibration -------------------------------------------------------------
def calibration() -> dict[str, float]:
    """A fixed numpy and pure-Python loop, median of three, in ms.

    Reported with every run so figures from different machines can be
    put side by side; never used as a gate.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    data = rng.random(200_000)
    mat = rng.random((160, 160))

    def numpy_loop() -> float:
        acc = 0.0
        for _ in range(5):
            acc += float(np.sort(data)[1000])
            acc += float((mat @ mat).trace())
        return acc

    def python_loop() -> int:
        acc = 0
        table: dict[int, int] = {}
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
            table[i & 1023] = acc
        return acc + len(table)

    out = {}
    for name, fn in (("numpy", numpy_loop), ("python", python_loop)):
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            fn()
            runs.append(time.perf_counter() - t0)
        out[name] = 1000.0 * median(runs)
    return out


def import_time_s() -> float:
    """Wall time of a fresh interpreter importing the program's modules."""
    code = (
        "import repro.cli, repro.pipeline.contextualize, "
        "repro.pipeline.ndt_join, repro.vendors.ookla, repro.vendors.mlab, "
        "repro.vendors.mba, repro.serve.router, repro.serve.server, "
        "repro.stream.run, repro.stream.scheduler"
    )
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code],
        env=program_env(),
        check=True,
        timeout=120,
    )
    return time.perf_counter() - t0


def program_env() -> dict[str, str]:
    """Environment for program subprocesses: source tree, no ledger."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}{existing}" if existing else str(SRC)
    env["REPRO_LEDGER"] = "0"
    return env


# -- the server under test -------------------------------------------------
class Server:
    """``repro serve --workers 2`` as a subprocess, reaped on stop."""

    def __init__(self, registry_dir: Path, workdir: Path) -> None:
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        log_path = self.workdir / "serve.out"
        self._log = open(log_path, "w")
        argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "--registry", str(registry_dir),
            "--host", "127.0.0.1", "--port", "0",
            "--workers", "2", "--city", "A",
            "--alert-log", "off", "--no-ledger",
        ]
        self.proc = subprocess.Popen(
            argv,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            env=program_env(),
            cwd=str(self.workdir),
            start_new_session=True,
        )
        deadline = time.monotonic() + 90.0
        while True:
            text = log_path.read_text()
            if "serving on http://" in text:
                url = text.split("serving on http://", 1)[1].split()[0]
                host, port = url.rsplit(":", 1)
                self.host, self.port = host, int(port)
                break
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"repro serve did not start:\n{text}")
            time.sleep(0.01)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def get_json(self, path: str) -> dict:
        with urllib.request.urlopen(f"{self.url}{path}", timeout=30) as response:
            return json.loads(response.read())

    def get_text(self, path: str) -> str:
        with urllib.request.urlopen(f"{self.url}{path}", timeout=30) as r:
            return r.read().decode("utf-8")

    def stop(self) -> None:
        """SIGTERM the router, which drains and stops its workers; then
        kill whatever is left of its process group and wait until the
        group is empty."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        self._log.close()


class KeepAlive:
    """One persistent HTTP/1.1 connection; reconnects after an error.

    ``reuse=False`` opens a fresh connection for every request.
    """

    def __init__(self, host: str, port: int, timeout_s: float = 10.0,
                 reuse: bool = True):
        self.host, self.port, self.timeout_s = host, port, timeout_s
        self.reuse = reuse
        self.conn: http.client.HTTPConnection | None = None

    def post(self, path: str, body: bytes) -> tuple[int, bytes | None]:
        """(status, body); status -1 on a transport error or timeout."""
        try:
            if self.conn is None:
                self.conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout_s
                )
            self.conn.request(
                "POST", path, body=body,
                headers={"Content-Type": "application/json"},
            )
            response = self.conn.getresponse()
            data = response.read()
            if (not self.reuse
                    or response.getheader("Connection", "").lower() == "close"):
                self.close()
            return response.status, data
        except (OSError, http.client.HTTPException):
            self.close()
            return -1, None

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


# -- open-loop load --------------------------------------------------------
@dataclass
class Shot:
    """One request of an open-loop schedule and what happened to it."""

    due: float
    body_index: int
    picked: float = math.nan
    sent: float = math.nan
    done: float = math.nan
    status: int = 0
    data: bytes | None = None

    @property
    def latency_s(self) -> float:
        return self.done - self.due


@dataclass
class LoadResult:
    shots: list[Shot]
    t0: float
    t_end: float = 0.0


def run_open_loop(
    conns: list[KeepAlive],
    bodies: list[bytes],
    offsets: list[float],
    body_indices: list[int],
    stop: threading.Event | None = None,
) -> LoadResult:
    """Send ``bodies[body_indices[i]]`` due at ``t0 + offsets[i]``.

    One thread per connection takes the next request in due order,
    waits for its due time and sends it; a request that finds every
    connection busy waits, and that wait counts in its latency (timed
    from the due time).  The calling thread drives ``conns[0]``.
    """
    t0 = time.perf_counter() + 0.02
    shots = [Shot(due=t0 + off, body_index=bi)
             for off, bi in zip(offsets, body_indices)]
    lock = threading.Lock()
    cursor = [0]

    def worker(conn: KeepAlive) -> None:
        while True:
            if stop is not None and stop.is_set():
                return
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(shots):
                return
            shot = shots[i]
            shot.picked = time.perf_counter()
            while True:
                wait = shot.due - time.perf_counter()
                if wait <= 0:
                    break
                if stop is not None:
                    if stop.wait(min(wait, 0.05)):
                        shot.status = -2  # never sent: load stopped
                        return
                else:
                    time.sleep(wait)
            shot.sent = time.perf_counter()
            shot.status, shot.data = conn.post(
                "/assign", bodies[shot.body_index]
            )
            shot.done = time.perf_counter()

    _drive(conns, worker)
    # With a stop event, requests never sent are not part of the load.
    return _result(shots, t0)


def run_closed_loop(
    conns: list[KeepAlive],
    bodies: list[bytes],
    body_indices: list[int],
    duration_s: float,
) -> LoadResult:
    """Send ``bodies[body_indices[i]]`` in order (cycling), each
    connection sending its next request as soon as its last one
    returned, until ``duration_s`` has passed.  The completed rate is the capacity the
    server gives these connections."""
    t0 = time.perf_counter()
    deadline = t0 + duration_s
    shots: list[Shot] = []
    lock = threading.Lock()

    def worker(conn: KeepAlive) -> None:
        while time.perf_counter() < deadline:
            with lock:
                shot = Shot(due=math.nan, body_index=body_indices[
                    len(shots) % len(body_indices)])
                shots.append(shot)
            shot.sent = shot.due = shot.picked = time.perf_counter()
            shot.status, shot.data = conn.post(
                "/assign", bodies[shot.body_index]
            )
            shot.done = time.perf_counter()

    _drive(conns, worker)
    return _result(shots, t0)


def _drive(conns: list[KeepAlive], worker) -> None:
    """Run ``worker`` once per connection, one thread each; the calling
    thread drives ``conns[0]``."""
    threads = [
        threading.Thread(target=worker, args=(conn,), daemon=True)
        for conn in conns[1:]
    ]
    for thread in threads:
        thread.start()
    worker(conns[0])
    for thread in threads:
        thread.join(timeout=60)
        if thread.is_alive():
            raise RuntimeError("load thread did not finish")


def _result(shots: list[Shot], t0: float) -> LoadResult:
    result = LoadResult(
        shots=[s for s in shots if not math.isnan(s.sent)], t0=t0
    )
    done = [s.done for s in result.shots if not math.isnan(s.done)]
    result.t_end = max(done) if done else t0
    return result
