"""JSON-over-HTTP status endpoint for the run-service (stdlib only).

A deliberately small read-only API on top of :mod:`http.server` — the
service's *control* surface stays the CLI and the journal; HTTP exists so
dashboards and probes can watch a long-lived service without shelling
out:

* ``GET /healthz`` — liveness: ``{"ok": true}``.
* ``GET /status`` — the full :func:`repro.service.status.status_snapshot`.
* ``GET /status/<entry-id>`` — one entry's summary, 404 when unknown.
* ``GET /metrics`` — operational counters (queue states plus, when a
  ``metrics`` callable was supplied, distributed-executor gauges: points
  pending/leased/done, worker count, table-service requests and DP
  solves, shard bytes streamed).

Binds localhost only by default; requests are served on daemon threads
(:class:`~http.server.ThreadingHTTPServer`) so a slow reader never stalls
the service loop.  Port ``0`` picks an ephemeral port — read it back from
:attr:`StatusHTTPServer.port` (the tests do).

``journal=None`` runs the server journal-less (a standalone distributed
coordinator exposing only ``/healthz`` + ``/metrics``); the journal
endpoints then answer 404.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Iterable, Optional

from .journal import Journal, JournalError
from .status import entry_summary, status_snapshot

__all__ = ["StatusHTTPServer"]


class StatusHTTPServer:
    """Owns the HTTP server and its serving thread."""

    def __init__(self, journal: Optional[Journal], *, host: str = "127.0.0.1",
                 port: int = 0,
                 inflight: Optional[Callable[[], Iterable[str]]] = None,
                 metrics: Optional[Callable[[], Dict[str, Any]]] = None
                 ) -> None:
        self.journal = journal
        self._inflight = inflight or (lambda: ())
        self._metrics = metrics
        self._server = ThreadingHTTPServer((host, port),
                                           self._make_handler())
        self._server.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        return int(self._server.server_address[1])

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="repro-service-http",
                                        daemon=True)
        self._thread.start()

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def _metrics_payload(self) -> Dict[str, Any]:
        """Queue counters merged with the supplier's executor gauges."""
        payload: Dict[str, Any] = {}
        if self.journal is not None:
            snapshot = status_snapshot(self.journal,
                                       inflight=self._inflight())
            payload["queue"] = snapshot["queue"]
        if self._metrics is not None:
            payload.update(self._metrics())
        return payload

    def _make_handler(self):
        service_http = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, format, *args):  # noqa: A002 - stdlib name
                pass  # request logging would interleave with service output

            def do_GET(self) -> None:
                path = self.path.split("?", 1)[0].rstrip("/") or "/"
                if path == "/healthz":
                    self._reply(200, {"ok": True})
                elif path == "/metrics":
                    self._reply(200, service_http._metrics_payload())
                elif service_http.journal is None:
                    self._reply(404, {"error": f"unknown path {path!r}; "
                                      "this server has no journal — try "
                                      "/healthz or /metrics"})
                elif path == "/status":
                    self._reply(200, status_snapshot(
                        service_http.journal,
                        inflight=service_http._inflight()))
                elif path.startswith("/status/"):
                    entry_id = path[len("/status/"):]
                    try:
                        entry = service_http.journal.get(entry_id)
                    except JournalError as exc:
                        self._reply(404, {"error": str(exc)})
                        return
                    self._reply(200, entry_summary(entry))
                else:
                    self._reply(404, {"error": f"unknown path {path!r}; "
                                      "try /healthz, /status, "
                                      "/status/<entry-id> or /metrics"})

            def _reply(self, code: int, payload) -> None:
                body = json.dumps(payload, indent=2,
                                  sort_keys=True).encode("utf-8")
                self.send_response(code)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        return Handler
