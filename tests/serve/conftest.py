"""Shared fixtures for the serving subsystem tests."""

from __future__ import annotations

import contextlib
import http.client
import json
import threading
from urllib.parse import urlsplit

import numpy as np
import pytest

from repro.core.bst import BSTModel


@pytest.fixture(scope="package")
def fitted_a(ookla_a, catalog_a):
    """A City-A BST fit over the shared Ookla sample."""
    return BSTModel(catalog_a).fit(
        np.asarray(ookla_a["download_mbps"], dtype=float),
        np.asarray(ookla_a["upload_mbps"], dtype=float),
    )


@pytest.fixture
def fresh_sample(catalog_a):
    """2k plausible City-A tuples the model never saw."""
    rng = np.random.default_rng(77)
    plans = catalog_a.plans
    picks = rng.integers(0, len(plans), 2_000)
    downs = np.abs(
        np.asarray([plans[i].download_mbps for i in picks])
        * rng.normal(0.9, 0.08, picks.size)
    ) + 0.1
    ups = np.abs(
        np.asarray([plans[i].upload_mbps for i in picks])
        * rng.normal(0.95, 0.05, picks.size)
    ) + 0.1
    return downs, ups


class GatedAssigner:
    """A TierAssigner stand-in whose ``assign`` waits for a gate.

    A test holds the micro-batcher's flush worker inside one flush
    (``entered`` is set once it is there), queues more tuples behind
    it, then opens ``gate``.  ``batch_sizes`` records every flush.
    """

    def __init__(self, inner):
        self.inner = inner
        self.gate = threading.Event()
        self.entered = threading.Event()
        self.batch_sizes: list[int] = []

    def assign(self, downloads, uploads):
        self.batch_sizes.append(len(downloads))
        self.entered.set()
        if not self.gate.wait(timeout=60):
            raise TimeoutError("the test never opened the gate")
        return self.inner.assign(downloads, uploads)


@pytest.fixture
def gated_assigner():
    """Factory wrapping an assigner in a :class:`GatedAssigner`."""
    return GatedAssigner


class _CountingWriter:
    """Proxy for a handler's ``wfile`` that logs every ``write`` call."""

    def __init__(self, inner, writes: list[int]):
        self._inner = inner
        self._writes = writes

    def write(self, data):
        self._writes.append(len(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@contextlib.contextmanager
def _counting_writes(server):
    writes: list[int] = []
    base = server.RequestHandlerClass

    class Counting(base):
        def setup(self):
            super().setup()
            self.wfile = _CountingWriter(self.wfile, writes)

    server.RequestHandlerClass = Counting
    try:
        yield writes
    finally:
        server.RequestHandlerClass = base


@pytest.fixture
def response_writes():
    """``with response_writes(server) as writes:`` logs the size of every
    ``wfile.write`` the server's handlers make on new connections."""
    return _counting_writes


def _raw_post(base_url: str, path: str, content_length: str, body=b""):
    """POST with a verbatim Content-Length header: ``(status, json)``."""
    parts = urlsplit(base_url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=30)
    try:
        conn.putrequest("POST", path)
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", content_length)
        conn.endheaders(body or None)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


@pytest.fixture
def raw_post():
    """``raw_post(base_url, path, content_length, body=b"")``."""
    return _raw_post
