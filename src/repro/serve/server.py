"""Stdlib HTTP front-end for the admission service.

A :class:`AdmissionHTTPServer` wraps one :class:`repro.serve.AdmissionService`
behind a small JSON API on a ``ThreadingHTTPServer`` — one OS thread per
connection, which matches the service's lock discipline (writes mutate
the overlay under a lock; queries compute outside it against a
consistent snapshot view).

Endpoints
---------
``GET /healthz``
    Liveness probe; ``{"status": "ok"}``.
``GET /stats``
    The :class:`repro.serve.ServiceStats` fields as JSON.
``GET /rank?node=ID``
    SybilRank score/percentile for one node.
``GET /admission?node=ID&controller=ID``
    GateKeeper admission verdict (``controller`` defaults to 0).
``GET /escape?lengths=2,5,10``
    Escape-probability profile (``lengths`` defaults to the service
    config).
``POST /edges`` with ``{"u": .., "v": ..}``
    Edge arrival; responds ``{"changed": bool}``.
``POST /edges/remove`` with ``{"u": .., "v": ..}``
    Edge departure.
``POST /nodes`` with ``{"count": k}``
    Append nodes; responds ``{"first_id": .., "count": k}``.
``POST /compact``
    Force a compaction; responds with the fold stats (or
    ``{"compacted": false}`` when the overlay was clean).

Invalid requests (unknown node, malformed body, a ``count`` above the
compaction policy's ``max_new_nodes``) return HTTP 400 with
``{"error": message}``; unknown paths return 404.  All handler errors
derived from :class:`repro.errors.ReproError` map to 400 — anything
else is a real bug and surfaces as a 500 with ``{"error": ...}``, so a
client always gets an answer instead of a dropped connection.

A connection holds at most what the server bounds: a ``Content-Length``
that is negative or not an integer answers 400, one above
:data:`MAX_BODY_BYTES` answers 413, both before any body byte is read
and with the connection closed.  A body that stops arriving for
``_Handler.timeout`` seconds answers 408, and a connection silent that
long between requests is dropped.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.errors import ReproError, ServeError
from repro.serve.service import AdmissionService

__all__ = ["AdmissionHTTPServer", "create_server", "MAX_BODY_BYTES"]

#: Largest request body the server reads; a valid body is a few dozen
#: bytes (``{"u": .., "v": ..}`` or ``{"count": k}``).
MAX_BODY_BYTES = 4096


class AdmissionHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one admission service."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], service: AdmissionService) -> None:
        super().__init__(address, _Handler)
        self.service = service

    @property
    def url(self) -> str:
        """The base URL the server is listening on."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def serve_in_background(self) -> threading.Thread:
        """Start :meth:`serve_forever` on a daemon thread and return it."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread


def create_server(
    service: AdmissionService, host: str = "127.0.0.1", port: int = 0
) -> AdmissionHTTPServer:
    """Bind an :class:`AdmissionHTTPServer` (``port=0`` picks a free one)."""
    return AdmissionHTTPServer((host, port), service)


class _BodyRejected(ServeError):
    """A request body refused with its own status (400, 408 or 413)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # seconds a connection may stay silent before the handler gives up
    timeout = 10.0

    # quiet by default: per-request stderr lines would swamp the load
    # harness; telemetry counters carry the request accounting instead
    def log_message(self, format: str, *args: object) -> None:
        pass

    @property
    def service(self) -> AdmissionService:
        return self.server.service  # type: ignore[attr-defined]

    def do_GET(self) -> None:
        parsed = urlparse(self.path)
        query = parse_qs(parsed.query)
        try:
            if parsed.path == "/healthz":
                self._reply(200, {"status": "ok"})
            elif parsed.path == "/stats":
                stats = self.service.stats()
                self._reply(200, stats.__dict__.copy())
            elif parsed.path == "/rank":
                self._reply(200, self.service.rank(self._param(query, "node")))
            elif parsed.path == "/admission":
                self._reply(
                    200,
                    self.service.admission(
                        self._param(query, "node"),
                        controller=self._param(query, "controller", 0),
                    ),
                )
            elif parsed.path == "/escape":
                lengths = None
                if "lengths" in query:
                    lengths = tuple(
                        int(w) for w in query["lengths"][0].split(",") if w
                    )
                measurement = self.service.escape(walk_lengths=lengths)
                self._reply(
                    200,
                    {
                        "walk_lengths": [int(w) for w in measurement.walk_lengths],
                        "escape": [float(p) for p in measurement.escape],
                        "num_attack_edges": int(measurement.num_attack_edges),
                        "honest_edges": int(measurement.honest_edges),
                    },
                )
            else:
                self._reply(404, {"error": f"unknown path {parsed.path!r}"})
        except (ReproError, ValueError) as exc:
            self._reply(400, {"error": str(exc)})
        except Exception as exc:  # a bug: answer rather than drop the connection
            self._reply(500, {"error": f"internal error: {exc!r}"})

    def do_POST(self) -> None:
        parsed = urlparse(self.path)
        try:
            body = self._body()
            if parsed.path == "/edges":
                changed = self.service.add_edge(
                    self._field(body, "u"), self._field(body, "v")
                )
                self._reply(200, {"changed": changed})
            elif parsed.path == "/edges/remove":
                changed = self.service.remove_edge(
                    self._field(body, "u"), self._field(body, "v")
                )
                self._reply(200, {"changed": changed})
            elif parsed.path == "/nodes":
                count = self._field(body, "count", 1)
                first = self.service.add_nodes(count)
                self._reply(200, {"first_id": first, "count": count})
            elif parsed.path == "/compact":
                stats = self.service.compact()
                if stats is None:
                    self._reply(200, {"compacted": False})
                else:
                    doc = stats.__dict__.copy()
                    doc["compacted"] = True
                    self._reply(200, doc)
            else:
                self._reply(404, {"error": f"unknown path {parsed.path!r}"})
        except _BodyRejected as exc:
            self._reply(exc.status, {"error": str(exc)})
        except (ReproError, ValueError) as exc:
            self._reply(400, {"error": str(exc)})
        except Exception as exc:  # a bug: answer rather than drop the connection
            self._reply(500, {"error": f"internal error: {exc!r}"})

    # ------------------------------------------------------------------
    def _body(self) -> dict:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # the unread body would be parsed as the next request
            self.close_connection = True
            if length < 0:
                raise _BodyRejected(400, f"invalid Content-Length {header!r}")
            raise _BodyRejected(
                413, f"body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            )
        try:
            raw = self.rfile.read(length) if length else b"{}"
        except TimeoutError:
            self.close_connection = True
            raise _BodyRejected(408, "request body timed out") from None
        try:
            body = json.loads(raw or b"{}")
        except json.JSONDecodeError as exc:
            raise ServeError(f"malformed JSON body: {exc}") from exc
        if not isinstance(body, dict):
            raise ServeError("request body must be a JSON object")
        return body

    @staticmethod
    def _param(query: dict, name: str, default: int | None = None) -> int:
        values = query.get(name)
        if not values:
            if default is None:
                raise ServeError(f"missing required query parameter {name!r}")
            return default
        return int(values[0])

    @staticmethod
    def _field(body: dict, name: str, default: int | None = None) -> int:
        value = body.get(name, default)
        if value is None:
            raise ServeError(f"missing required field {name!r}")
        if isinstance(value, bool) or not isinstance(value, int):
            raise ServeError(f"field {name!r} must be an integer")
        return value

    def _reply(self, status: int, payload: dict) -> None:
        data = (json.dumps(payload) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)
