"""The HTTP surface of the job service (stdlib ``http.server`` only).

A :class:`DoocJobServer` wraps one :class:`~repro.server.manager.JobManager`
in a ``ThreadingHTTPServer``; each request thread only ever touches the
manager's thread-safe surface.  The API is deliberately small and fully
structured — every response is JSON and every job a client submits is
guaranteed to converge on a terminal state it can read back:

======  ========================  ==============================================
method  path                      meaning
======  ========================  ==============================================
GET     /healthz                  liveness probe
GET     /stats                    queue depth, memory budget, metrics
POST    /jobs                     submit a JobSpec; 202 accepted / 429 rejected
GET     /jobs                     all job records (summary form)
GET     /jobs/<id>                one record; ``?wait=SECONDS`` blocks until
                                  the job is terminal (long-poll, no client
                                  sleep loops)
GET     /jobs/<id>/trace          the job's event log
POST    /jobs/<id>/cancel         cooperative cancel; 409 if already terminal
POST    /drain                    graceful drain (same path as SIGTERM)
======  ========================  ==============================================
"""

from __future__ import annotations

import json
import signal
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.server.jobs import JobSpec
from repro.server.manager import JobManager, ServerConfig

__all__ = ["DoocJobServer", "serve"]

#: cap on a single long-poll wait; clients re-issue to wait longer
MAX_WAIT_S = 30.0


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "dooc-jobs/1.0"

    # The ThreadingHTTPServer subclass sets .manager on itself.
    @property
    def manager(self) -> JobManager:
        return self.server.manager  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # quiet by default
        if getattr(self.server, "verbose", False):  # type: ignore[attr-defined]
            super().log_message(fmt, *args)

    # -- plumbing ----------------------------------------------------------------

    def _json(self, status: int, payload: dict | list) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            return {}
        raw = self.rfile.read(length)
        payload = json.loads(raw.decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    # -- routes ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        if parts == ["healthz"]:
            self._json(200, {"ok": True})
            return
        if parts == ["stats"]:
            self._json(200, self.manager.stats())
            return
        if parts == ["jobs"]:
            self._json(200, [r.to_json() for r in self.manager.list_jobs()])
            return
        if len(parts) >= 2 and parts[0] == "jobs":
            rec = self.manager.get(parts[1])
            if rec is None:
                self._json(404, {"error": f"no such job {parts[1]!r}"})
                return
            if len(parts) == 3 and parts[2] == "trace":
                self._json(200, {"id": rec.id, "events": list(rec.events)})
                return
            if len(parts) == 2:
                qs = parse_qs(url.query)
                if "wait" in qs:
                    wait_s = min(float(qs["wait"][0]), MAX_WAIT_S)
                    rec.done_event.wait(timeout=max(wait_s, 0.0))
                self._json(200, rec.to_json(verbose=True))
                return
        self._json(404, {"error": f"no route for GET {url.path}"})

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        if parts == ["jobs"]:
            try:
                spec = JobSpec.from_json(self._read_body())
            except (ValueError, TypeError, json.JSONDecodeError) as exc:
                self._json(400, {"error": str(exc)})
                return
            rec = self.manager.submit(spec)
            if rec.state == "rejected":
                self._json(429, rec.to_json())
            else:
                self._json(202, rec.to_json())
            return
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
            rec = self.manager.get(parts[1])
            if rec is None:
                self._json(404, {"error": f"no such job {parts[1]!r}"})
                return
            if not self.manager.cancel(parts[1]):
                self._json(409, {"error": "job already terminal",
                                 "state": rec.state})
                return
            self._json(200, rec.to_json())
            return
        if parts == ["drain"]:
            server: DoocJobServer = self.server  # type: ignore[assignment]
            # Respond first: drain stops the listener, and a client
            # waiting on this response must not see a reset socket.
            self._json(202, {"draining": True})
            threading.Thread(target=server.drain, daemon=True).start()
            return
        self._json(404, {"error": f"no route for POST {url.path}"})


class DoocJobServer(ThreadingHTTPServer):
    """ThreadingHTTPServer + JobManager + signal-driven graceful drain."""

    daemon_threads = True

    def __init__(self, addr: tuple[str, int],
                 config: ServerConfig | None = None, *,
                 verbose: bool = False):
        super().__init__(addr, _Handler)
        self.manager = JobManager(config)
        self.verbose = verbose
        self._drained = threading.Event()
        self.drain_manifest: dict | None = None

    @property
    def port(self) -> int:
        return self.server_address[1]

    def start(self) -> "DoocJobServer":
        self.manager.start()
        return self

    def serve_forever(self, poll_interval: float | None = None) -> None:
        """Accept connections until :meth:`shutdown`.  The wait has no
        timeout by default: ``shutdown`` wakes it."""
        super().serve_forever(poll_interval)

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` now, not at its next poll.

        Shutting the listening socket down wakes the loop's ``select``;
        the base class then sets its stop flag and waits for the loop to
        exit.  If the loop comes round before the flag is set, ``accept``
        on the shut socket fails and ``socketserver`` ignores it.
        """
        try:
            self.socket.shutdown(socket.SHUT_RDWR)
        except OSError:  # shut or closed already: no loop left to wake
            pass
        super().shutdown()

    def drain(self, timeout: float = 60.0) -> dict:
        """Drain the manager (checkpointing running jobs) exactly once,
        then stop accepting connections."""
        if self._drained.is_set():
            return self.drain_manifest or {}
        self._drained.set()
        self.drain_manifest = self.manager.drain(timeout=timeout)
        self.shutdown()
        return self.drain_manifest

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain (main thread only)."""

        def _on_signal(signum, frame):
            threading.Thread(target=self.drain, daemon=True,
                             name="dooc-drain").start()

        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)


def serve(host: str = "127.0.0.1", port: int = 8787,
          config: ServerConfig | None = None, *,
          verbose: bool = False) -> dict | None:
    """Run the job service until SIGTERM/SIGINT, then drain gracefully.

    Returns the drain manifest (also written to ``<work_dir>/drain.json``).
    """
    server = DoocJobServer((host, port), config, verbose=verbose).start()
    server.install_signal_handlers()
    print(f"dooc job server listening on http://{host}:{server.port} "
          f"(work dir {server.manager.work_dir})", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return server.drain_manifest
