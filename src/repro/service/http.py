"""Stdlib HTTP adapter for the mapping service.

A :class:`ThreadingHTTPServer` (one thread per connection) whose handler
parses the request line, query string and JSON body, then delegates to
the ``handle`` of a :class:`~repro.service.frontend.FrontEnd` (the
service or the cluster coordinator).  All policy — routing, status
codes, backpressure, deadlines — lives in the app; this module only
moves bytes.

:class:`MappingServer` wraps the server with a background-thread
lifecycle (``start`` / ``shutdown`` / context manager) so tests and the
load bench can bind port 0 and read the chosen port back, while the CLI
calls :meth:`MappingServer.serve_forever` to block.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qsl, urlsplit

from repro.obs import get_logger
from repro.service.frontend import FrontEnd

_log = get_logger(__name__)

#: Largest accepted request body; bigger payloads answer 413.
MAX_BODY_BYTES = 1 << 20


class _Handler(BaseHTTPRequestHandler):
    """Thin JSON-over-HTTP shim around ``app.handle``."""

    #: Set by :func:`make_server` on the generated subclass.
    app: FrontEnd

    server_version = "mweaver-service/1.0"
    protocol_version = "HTTP/1.1"  # keep-alive: every response is sized
    # Nagle + delayed ACK turns the two-write (headers, body) response
    # into a ~40 ms stall per request on loopback; flush immediately.
    disable_nagle_algorithm = True

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    def _dispatch(self, method: str) -> None:
        split = urlsplit(self.path)
        query = dict(parse_qsl(split.query))
        body, error = self._read_body()
        if error is not None:
            self._respond(*error)
            return
        status, payload, headers = self.app.handle(
            method, split.path, query, body
        )
        self._respond(status, payload, headers)

    def _read_body(
        self,
    ) -> tuple[dict[str, Any] | None,
               "tuple[int, dict[str, Any] | None, dict[str, str]] | None"]:
        """The JSON body, or a ready-to-send error response."""
        length = int(self.headers.get("Content-Length") or 0)
        if length == 0:
            return None, None
        if length > MAX_BODY_BYTES:
            return None, (413, {"error": "request body too large"}, {})
        raw = self.rfile.read(length)
        try:
            parsed = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return None, (400, {"error": f"invalid JSON body: {error}"}, {})
        if not isinstance(parsed, dict):
            return None, (400, {"error": "JSON body must be an object"}, {})
        return parsed, None

    def _respond(
        self,
        status: int,
        payload: "dict[str, Any] | str | None",
        headers: dict[str, str],
    ) -> None:
        # A str payload (Prometheus exposition, folded profiles) is
        # served verbatim as text/plain; dicts are JSON-encoded.  The
        # app may override Content-Type via its extra headers.
        if isinstance(payload, str):
            data = payload.encode("utf-8")
            content_type = "text/plain; charset=utf-8"
        elif payload is not None:
            data = (json.dumps(payload) + "\n").encode("utf-8")
            content_type = "application/json"
        else:
            data = b""
            content_type = "application/json"
        self.send_response(status)
        if "Content-Type" not in headers:
            self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        if data:
            self.wfile.write(data)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Route the default stderr access log through ``repro.*``."""
        _log.debug("%s %s", self.address_string(), format % args)


def make_server(
    app: FrontEnd, host: str, port: int
) -> ThreadingHTTPServer:
    """A bound (not yet serving) threading HTTP server for ``app``."""
    handler = type("MappingHandler", (_Handler,), {"app": app})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server


class MappingServer:
    """Lifecycle wrapper: background serving, clean shutdown.

    ``port=0`` binds an ephemeral port; read the real one back from
    :attr:`port`.  As a context manager the server starts on entry and
    shuts down (closing the app's worker pool) on exit.
    """

    def __init__(
        self,
        app: FrontEnd,
        *,
        host: str | None = None,
        port: int | None = None,
    ) -> None:
        self.app = app
        self.host = host if host is not None else app.config.host
        self._server = make_server(
            app, self.host, port if port is not None else app.config.port
        )
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        """The actually bound TCP port."""
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should target."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "MappingServer":
        """Serve on a daemon thread; returns self."""
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="mweaver-http",
            daemon=True,
        )
        self._thread.start()
        _log.info("mapping service listening on %s", self.url)
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI's blocking mode)."""
        _log.info("mapping service listening on %s", self.url)
        self._server.serve_forever()

    def drain(self, timeout_s: float | None = None) -> bool:
        """Graceful shutdown: drain the app first, then stop serving.

        Ordering matters: the app stops *admitting* (new work answers
        503 ``reason="drain"``) while the listener keeps accepting, so
        clients get clean refusals instead of connection resets; once
        in-flight requests finish (or ``timeout_s`` passes) the
        listener stops and ``serve_forever`` returns.  The app drain
        flushes and closes the session journal.  Returns ``True`` when
        every in-flight request finished in time.  Idempotent with a
        later :meth:`shutdown`.
        """
        clean = self.app.drain(timeout_s)
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        return clean

    def shutdown(self) -> None:
        """Stop serving, join the thread, close the app."""
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.app.close()

    def __enter__(self) -> "MappingServer":
        return self.start()

    def __exit__(self, *_exc: Any) -> None:
        self.shutdown()
