"""The HTTP layer: stdlib ``ThreadingHTTPServer`` over the session manager.

Zero heavy dependencies by design — ``http.server`` threads map one-to-one
onto the per-session readers-writer locks in
:mod:`repro.service.sessions`, and every request/response body is the
canonical JSON of :mod:`repro.service.wire`.  Routes:

====================================  =========================================
``GET  /healthz``                     liveness + session count
``POST /sessions``                    create a session from a config body
``GET  /sessions``                    list live session ids
``GET  /sessions/{id}``               session info (version, track, counters)
``GET  /sessions/{id}/plan``          the plan; ``?budget=`` for an anytime
                                      read-back, ``?objective=1`` to score it
``POST /sessions/{id}/events``        durable ingest (``X-Idempotency-Key``
                                      or ``"idempotency_key"`` in the body)
``GET  /sessions/{id}/objects``       object slice (``?start=&count=``)
``DELETE /sessions/{id}``             close the session, remove its store
====================================  =========================================

Fault site ``http`` injects a request failure at dispatch time — *before*
any durable write — surfaced as a 503 with ``"retryable": true``; clients
re-send with the same idempotency key and observe exactly-once ingest.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.resilience.faults import HttpRequestFault, maybe_inject
from repro.service.sessions import SessionManager
from repro.service.wire import MAX_BODY_BYTES, ServiceError, canonical_json, parse_json_body
from repro.store.sqlite_store import StoreCorruptionError

__all__ = ["CleaningService", "ServiceHandler"]


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes one request to the session manager and serializes the answer.

    Runs on a ``ThreadingHTTPServer`` thread per connection; all shared
    state lives behind the manager's and sessions' locks, so the handler
    itself is stateless.  Every handler path funnels through
    :meth:`_dispatch`, which is where the ``http`` fault site injects and
    where every error class maps to its status code.
    """

    protocol_version = "HTTP/1.1"
    server_version = "repro-service/1.0"

    # Quiet by default: per-request stderr lines would swamp the harness.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    @property
    def manager(self) -> SessionManager:
        """The owning server's session manager."""
        return self.server.manager  # type: ignore[attr-defined]

    # ------------------------------------------------------------------ #
    # HTTP verbs
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        """Serve one GET request through :meth:`_dispatch`."""
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        """Serve one POST request through :meth:`_dispatch`."""
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        """Serve one DELETE request through :meth:`_dispatch`."""
        self._dispatch("DELETE")

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def _dispatch(self, method: str) -> None:
        try:
            # Drain the request body up front: an error (or injected fault)
            # raised mid-route must not leave unread body bytes on the
            # keep-alive socket, where they would be parsed as the next
            # request line and corrupt the connection framing.
            self._raw_body = self._read_body()
            # The injected in-flight failure: strikes before any route
            # logic, so nothing durable can precede the 503.
            maybe_inject("http")
            status, body = self._route(method)
        except HttpRequestFault:
            status, body = 503, {
                "error": "injected in-flight request failure",
                "code": "http_fault",
                "retryable": True,
            }
        except ServiceError as error:
            status, body = error.status, error.body()
        except StoreCorruptionError as error:
            status, body = 500, {"error": str(error), "code": "store_corruption"}
        except Exception as error:  # pragma: no cover - last-resort mapping
            status, body = 500, {"error": f"{type(error).__name__}: {error}", "code": "internal"}
        self._reply(status, body)

    def _route(self, method: str) -> Tuple[int, Dict[str, object]]:
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        query = {k: v[-1] for k, v in parse_qs(parsed.query).items()}

        if method == "GET" and parts == ["healthz"]:
            return 200, {"status": "ok", "sessions": len(self.manager.session_ids())}
        if parts and parts[0] == "sessions":
            if len(parts) == 1:
                if method == "POST":
                    session = self.manager.create_session(self._body())
                    return 201, session.snapshot_plan() | {"track": session.planner.track}
                if method == "GET":
                    return 200, {"sessions": self.manager.session_ids()}
            elif len(parts) == 2:
                session = self.manager.get(parts[1])
                if method == "GET":
                    return 200, session.info()
                if method == "DELETE":
                    self.manager.delete_session(parts[1])
                    return 200, {"deleted": parts[1]}
            elif len(parts) == 3 and method == "GET" and parts[2] == "plan":
                session = self.manager.get(parts[1])
                return 200, session.snapshot_plan(
                    budget=self._number_query(query, "budget", float),
                    want_objective=query.get("objective") in ("1", "true"),
                )
            elif len(parts) == 3 and method == "POST" and parts[2] == "events":
                session = self.manager.get(parts[1])
                body = self._body()
                key = self.headers.get("X-Idempotency-Key") or body.pop(
                    "idempotency_key", None
                )
                return 200, session.ingest(body, idempotency_key=key)
            elif len(parts) == 3 and method == "GET" and parts[2] == "objects":
                session = self.manager.get(parts[1])
                return 200, session.objects(
                    start=self._number_query(query, "start", int, 0),
                    count=self._number_query(query, "count", int, 50),
                )
        raise ServiceError(404, f"no route {method} {parsed.path}", "not_found")

    # ------------------------------------------------------------------ #
    # Body / reply plumbing
    # ------------------------------------------------------------------ #
    def _read_body(self) -> bytes:
        """The request body; a 400/413 for a length it refuses to read.

        A malformed or over-limit ``Content-Length`` leaves the body unread
        on the socket, where it would be parsed as the next request, so
        those replies close the connection.
        """
        raw = (self.headers.get("Content-Length") or "0").strip()
        if not (raw.isascii() and raw.isdigit()):
            self.close_connection = True
            raise ServiceError(
                400, f"Content-Length must be a non-negative integer, got {raw!r}", "bad_length"
            )
        length = int(raw)
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise ServiceError(413, f"request body exceeds {MAX_BODY_BYTES} bytes", "too_large")
        return self.rfile.read(length) if length else b""

    def _body(self) -> Dict[str, object]:
        return parse_json_body(self._raw_body)

    @staticmethod
    def _number_query(query: Dict[str, str], field: str, parse, default=None):
        """Query parameter ``field`` parsed by ``parse`` (``int`` or ``float``), else a 400."""
        raw = query.get(field)
        if raw is None:
            return default
        try:
            return parse(raw)
        except ValueError:
            raise ServiceError(
                400,
                f"query parameter {field!r} must parse as {parse.__name__}, got {raw!r}",
                "bad_field",
            ) from None

    def _reply(self, status: int, body: Dict[str, object]) -> None:
        payload = canonical_json(body).encode("utf-8")
        self.send_response(int(status))
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)


class CleaningService:
    """The runnable server: a ``ThreadingHTTPServer`` bound to one manager.

    ``port=0`` asks the OS for a free port (the tests' default);
    :attr:`url` reports the bound address either way.  ``resume=True``
    re-opens every session found under ``root`` before serving — the
    crash-recovery path the SIGKILL harness exercises.  Use as a context
    manager or call :meth:`close`; :meth:`start_background` serves from a
    daemon thread for in-process tests, :meth:`serve_forever` blocks (the
    ``repro serve`` CLI).
    """

    def __init__(
        self,
        root: str,
        host: str = "127.0.0.1",
        port: int = 0,
        resume: bool = False,
    ):
        self.manager = SessionManager(root)
        if resume:
            self.resumed = self.manager.resume_all()
        else:
            self.resumed = []
        self._server = ThreadingHTTPServer((host, int(port)), ServiceHandler)
        self._server.daemon_threads = True
        self._server.manager = self.manager  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        """The service's base URL (scheme + bound host:port)."""
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`."""
        self._server.serve_forever()

    def start_background(self) -> "CleaningService":
        """Serve from a daemon thread; returns ``self`` for chaining."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_forever, name="repro-service", daemon=True
            )
            self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop the serve loop (safe to call from any thread)."""
        self._server.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    def close(self) -> None:
        """Shut down, close every session and release the socket."""
        self.shutdown()
        self.manager.close()
        self._server.server_close()

    def __enter__(self) -> "CleaningService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
