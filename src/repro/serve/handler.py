"""HTTP handler plumbing shared by the assignment server and the router.

:class:`JsonHandler` holds what both front ends do the same way:
per-connection socket timeouts, single-write responses, structured
JSON errors, reading a request body against ``max_body_bytes``, and
parsing the ``POST /reload`` body.  Subclasses supply the hooks:
``_config`` (an object with ``request_timeout_s`` and
``max_body_bytes``), ``_count_error`` (the service's error counter),
``_observe`` (the service's status and latency instruments),
``_handle`` (tracing and accounting around one route) and the
``_route_get`` / ``_route_post`` routes.

A request is observed just before its response leaves (see
:meth:`JsonHandler._account`): a client that has read its response and
then scrapes ``/metrics`` finds that request already counted.

One write per response: headers and body leave in a single
``wfile.write``.  Written separately on a keep-alive connection, the
small header segment goes out at once, Nagle's algorithm then holds
the body back until the client ACKs the headers, and the client delays
that ACK by up to ~40 ms.  Every keep-alive response would stall for
the client's delayed-ACK timer instead of returning at its service
time.
"""

from __future__ import annotations

import json
import re
import time
from http.server import BaseHTTPRequestHandler
from typing import Any

from repro.obs.logging import get_logger

log = get_logger("serve.http")

__all__ = ["JsonHandler"]

# Content-Length is 1*DIGIT (RFC 9110); int() alone would also accept
# signs, underscores and surrounding whitespace.
_CONTENT_LENGTH_RE = re.compile(r"[0-9]+")


class JsonHandler(BaseHTTPRequestHandler):
    """Base request handler: JSON responses, bodies, structured errors."""

    protocol_version = "HTTP/1.1"
    _trace_id = ""
    _status = 500
    _start = 0.0
    _accounted = True

    # -- hooks -----------------------------------------------------------
    def _config(self) -> Any:
        """Config carrying ``request_timeout_s`` and ``max_body_bytes``."""
        raise NotImplementedError

    def _count_error(self) -> None:
        """Count one error response in the service's instruments."""
        raise NotImplementedError

    def _observe(self, status: int, elapsed_s: float) -> None:
        """Feed one answered request into the service's instruments."""
        raise NotImplementedError

    def _begin(self) -> None:
        """Start the clock of one request; ``_handle`` calls it first."""
        self._status = 500  # routes overwrite on every sent response
        self._start = time.perf_counter()
        self._accounted = False

    def _account(self) -> None:
        """Observe this request once: before its response is written,
        or from ``_handle``'s ``finally`` when none was."""
        if not self._accounted:
            self._accounted = True
            self._observe(self._status, time.perf_counter() - self._start)

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self._handle(self._route_get)

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        self._handle(self._route_post)

    # -- plumbing --------------------------------------------------------
    def setup(self) -> None:
        super().setup()
        # Per-connection socket timeout: a stalled client cannot pin a
        # handler thread (and block graceful shutdown) forever.
        self.connection.settimeout(self._config().request_timeout_s)

    def log_message(self, format: str, *args: Any) -> None:
        log.debug("http " + format % args)

    def _send_body(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        """Send one response; headers and body go out in one write."""
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Trace-Id", self._trace_id)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        # end_headers() would flush the headers on their own; append
        # the terminator and the body to the buffer and flush once.
        self._headers_buffer.extend((b"\r\n", body))
        self._account()
        self.flush_headers()

    def _send_json(
        self,
        status: int,
        payload: dict | list,
        headers: dict[str, str] | None = None,
    ) -> None:
        self._send_body(
            status,
            json.dumps(payload).encode("utf-8"),
            "application/json",
            headers=headers,
        )

    def _error(
        self,
        status: int,
        message: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        self._count_error()
        self._send_json(
            status,
            {
                "error": {
                    "code": status,
                    "message": message,
                    "trace_id": self._trace_id,
                }
            },
            headers=headers,
        )

    # -- request bodies --------------------------------------------------
    def _read_body(self, required: bool) -> bytes | None:
        """The request body, or None after answering a 400/413.

        A Content-Length that is not a plain decimal count is a 400; a
        body above ``max_body_bytes`` is a 413.  Both close the
        connection: the unread body bytes would otherwise be parsed as
        the next request.  ``required`` makes an empty body a 400.
        """
        raw = (self.headers.get("Content-Length") or "0").strip()
        if not _CONTENT_LENGTH_RE.fullmatch(raw):
            self._error(
                400,
                f"invalid Content-Length header: {raw!r}",
                headers={"Connection": "close"},
            )
            return None
        length = int(raw)
        if length == 0 and required:
            self._error(400, "missing request body")
            return None
        limit = self._config().max_body_bytes
        if length > limit:
            self._error(
                413,
                f"request body of {length} bytes exceeds the "
                f"{limit}-byte limit",
                headers={"Connection": "close"},
            )
            return None
        return self.rfile.read(length) if length else b""

    def _read_json(self, required: bool) -> tuple[bytes, Any] | None:
        """``(body, payload)``, or None after answering a 400/413.

        An empty body (allowed when not ``required``) parses to None.
        """
        body = self._read_body(required)
        if not body:
            return None if body is None else (body, None)
        try:
            return body, json.loads(body)
        except ValueError as exc:  # JSONDecodeError or bad UTF-8
            self._error(400, f"invalid JSON body: {exc}")
            return None

    def _reload_slugs(self) -> tuple[bool, list[str] | None]:
        """Parse a ``POST /reload`` body: ``(ok, slugs)``.

        An empty body means every model (``slugs`` None); otherwise the
        body must be a JSON object whose optional ``slugs`` member is a
        list of strings.  ``ok`` is False after an error was answered.
        """
        request = self._read_json(required=False)
        if request is None:
            return False, None
        body, payload = request
        if not body:
            return True, None
        if not isinstance(payload, dict):
            self._error(400, "reload body must be a JSON object")
            return False, None
        slugs = payload.get("slugs")
        if slugs is not None and (
            not isinstance(slugs, list)
            or not all(isinstance(s, str) for s in slugs)
        ):
            self._error(400, "'slugs' must be a list of model slugs")
            return False, None
        return True, slugs
