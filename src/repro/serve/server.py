"""Stdlib HTTP JSON API over a :class:`repro.serve.service.ServeFrontend`.

Endpoints:

``POST /predict``
    Body: ``{"image": [...]}`` (784 floats or 28×28 nested) for one
    image, ``{"images": [[...], ...]}`` for many, or ``{"scene": {...}}``
    (:meth:`repro.data.scenes.Scene.to_payload` form, optional
    ``stride``) for a composite scene, answered with per-cell and
    per-window predictions.  Optional spec overrides ride alongside:
    ``model``, ``backend``, ``length``, ``kinds`` (``"APC,APC,APC"``),
    ``pooling`` (``"max"``/``"avg"``), ``weight_bits`` (int or
    per-layer list), ``seed``, plus ``timeout_ms`` — a deadline past
    which a still-queued request is shed and answered 504.  Pixels are
    bipolar floats in [-1, 1].  Response: ``{"prediction": k}`` or
    ``{"predictions": [...]}``, the resolved backend and the
    server-side latency.

``GET /healthz``
    ``{"status": "ok", "requests": N}`` — or 503 ``{"status":
    "draining"}`` once shutdown has begun, so a load balancer stops
    routing here while in-flight requests finish.

``GET /stats``
    Latency p50/p95, lifetime and rolling throughput, sheds and errors,
    plus the executor's view: batcher queue, batch sizes and pool hit
    rate in process; per-worker reports with ``--procs N``.

``GET /metrics``
    Prometheus text exposition of the :mod:`repro.obs` registry (merged
    across worker processes), gauges published at scrape time.

Each connection gets a thread, so concurrent clients genuinely enqueue
concurrently and the micro-batcher has traffic to coalesce.  Malformed
requests are 400, unknown paths 404; backpressure and drain are 503
with ``Retry-After``, deadline/timeout 504, internal bugs 500.  Only a
5xx or an unread request body closes a keep-alive connection.
:func:`run_server` installs a SIGTERM handler implementing graceful
drain: refuse new work, let every accepted request complete, then exit.
"""

from __future__ import annotations

import contextlib
import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from repro import obs
from repro.serve.batcher import DeadlineExceeded, QueueFull
from repro.serve.service import ServiceDraining

__all__ = ["ServeHandler", "ServeHTTPServer", "create_server",
           "run_server"]

RETRY_AFTER_S = 1
"""``Retry-After`` hint on 503 replies (backpressure clears in ~one
batching quantum; drain means "find another replica")."""

MAX_BODY_BYTES = 64 << 20
"""Reject request bodies beyond this (a 784-float image is ~10 KB)."""


class ServeHandler(BaseHTTPRequestHandler):
    """JSON request handler bound to the server's ``service``."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    def _reply(self, status: int, payload: dict,
               retry_after: float = None) -> None:
        body = json.dumps(payload).encode("utf8")
        # Close a keep-alive connection only when it is genuinely
        # unusable: after an internal error, or when the request body
        # was never read (leftover bytes would be parsed as the next
        # request).  Recoverable client errors (400/404/503/504) keep
        # the connection — a client told "retry later" should not also
        # pay a reconnect.
        close = status >= 500 or (self.command == "POST"
                                  and not getattr(self, "_body_read",
                                                  False))
        if close:
            self.close_connection = True
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", str(retry_after))
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _reply_text(self, status: int, body: str,
                    content_type: str = "text/plain; version=0.0.4") \
            -> None:
        data = body.encode("utf8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    # ------------------------------------------------------------------
    def do_GET(self):  # noqa: N802 - stdlib naming
        with self.server.track():
            service = self.server.service
            if self.path == "/healthz":
                if service.draining:
                    self._reply(503, {"status": "draining"},
                                retry_after=RETRY_AFTER_S)
                else:
                    self._reply(200, {
                        "status": "ok",
                        "requests":
                            service.tracker.summary()["requests"],
                    })
            elif self.path == "/stats":
                self._reply(200, service.stats())
            elif self.path == "/metrics":
                # Gauges describe *now*: metrics_text() publishes them
                # at scrape time, so the hot path never churns them.
                self._reply_text(200, service.metrics_text())
            else:
                self._reply(404, {
                    "error": f"unknown path {self.path!r}; "
                             "try /predict, /healthz, /stats, /metrics"})

    def do_POST(self):  # noqa: N802 - stdlib naming
        with self.server.track(), obs.span("serve.http", path=self.path):
            self._body_read = False
            if self.path != "/predict":
                self._reply(404, {"error": f"unknown path {self.path!r}; "
                                           "POST /predict"})
                return
            try:
                with obs.span("serve.parse"):
                    length = int(self.headers.get("Content-Length", 0))
                    if length <= 0 or length > MAX_BODY_BYTES:
                        raise ValueError("request body required (JSON)")
                    raw = self.rfile.read(length)
                    self._body_read = True
                    request = json.loads(raw)
                    if not isinstance(request, dict):
                        raise ValueError(
                            "request body must be a JSON object")
                reply = self._predict(request)
                with obs.span("serve.respond"):
                    self._reply(200, reply)
            except ServiceDraining as exc:
                self._reply(503, {"error": str(exc),
                                  "status": "draining"},
                            retry_after=RETRY_AFTER_S)
            except QueueFull as exc:
                self._reply(503, {"error": str(exc)},
                            retry_after=RETRY_AFTER_S)
            except (DeadlineExceeded, TimeoutError) as exc:
                self._reply(504, {"error": str(exc)})
            except ValueError as exc:
                # covers json.JSONDecodeError and every service-side
                # validation error; internal bugs (TypeError, KeyError,
                # ...) fall through to the 500 below instead of
                # masquerading as client errors
                self._reply(400, {"error": str(exc)})
            except Exception as exc:
                self._reply(500, {"error": f"internal error: {exc}"})

    def _predict(self, request: dict) -> dict:
        service = self.server.service
        modes = [k for k in ("image", "images", "scene") if k in request]
        if len(modes) != 1:
            raise ValueError(
                "provide exactly one of 'image' (single), 'images' "
                "(batch) or 'scene' (composite scene)")
        if modes == ["scene"]:
            return self._predict_scene(request)
        single = modes == ["image"]
        images = request.pop("image") if single else request.pop("images")
        if single:
            # Validate against the *target model's* geometry (the zoo
            # generalized it away from a hardcoded 28×28).
            channels, h, w = service.resolver.input_shape(
                request.get("model"))
            pixels = channels * h * w
            try:
                shape = np.asarray(images, dtype=np.float64).shape
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"malformed image payload: {exc}") from exc
            allowed = ((pixels,),) + (((h, w),) if channels == 1 else ())
            if shape not in allowed:
                raise ValueError(
                    f"'image' must be a single {h}×{w} image "
                    f"({pixels} pixels); use 'images' for batches")
        timeout, overrides = self._parse_spec(request)
        start = time.monotonic()
        preds = service.predict(images, timeout=timeout, **overrides)
        reply = {
            "backend": overrides.get("backend",
                                     service.defaults["backend"]),
            "latency_ms": round(1e3 * (time.monotonic() - start), 3),
        }
        if single:
            reply["prediction"] = int(preds[0])
        else:
            reply["predictions"] = [int(p) for p in preds]
        return reply

    def _predict_scene(self, request: dict) -> dict:
        """The ``scene`` request mode: one composite scene in, per-cell
        predictions out.  The scene fans out into a coalesced window
        batch service-side; with the exact backend each window's reply
        is bit-identical to a dedicated single-window run."""
        service = self.server.service
        scene = request.pop("scene")
        stride = request.pop("stride", None)
        timeout, overrides = self._parse_spec(request)
        start = time.monotonic()
        result = service.predict_scene(scene, stride=stride,
                                       timeout=timeout, **overrides)
        return {
            "backend": overrides.get("backend",
                                     service.defaults["backend"]),
            "latency_ms": round(1e3 * (time.monotonic() - start), 3),
            "kind": result.kind,
            "cell_predictions": [int(p) for p in result.cell_preds],
            "cell_windows": [int(i) for i in result.cell_windows],
            "window_boxes": [list(b) for b in result.boxes],
            "window_predictions": [int(p) for p in result.window_preds],
        }

    def _parse_spec(self, request: dict):
        """Shared tail of every predict mode: ``timeout_ms`` + spec
        overrides, with unknown fields rejected.  Returns
        ``(timeout_seconds, overrides)``."""
        timeout_ms = request.pop("timeout_ms", None)
        if timeout_ms is not None:
            try:
                timeout_ms = float(timeout_ms)
            except (TypeError, ValueError):
                raise ValueError(
                    f"timeout_ms must be a number, got {timeout_ms!r}"
                ) from None
            if timeout_ms <= 0:
                raise ValueError("timeout_ms must be > 0")
        overrides = {k: request[k] for k in
                     ("model", "backend", "length", "kinds", "pooling",
                      "weight_bits", "seed") if k in request}
        leftover = set(request) - set(overrides)
        if leftover:
            raise ValueError(
                f"unknown request fields: {sorted(leftover)}")
        return (None if timeout_ms is None else timeout_ms / 1e3,
                overrides)


class ServeHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server that counts in-flight requests.

    The drain path needs "every accepted request has been answered",
    which connection threads alone cannot tell (keep-alive threads
    outlive their last request).  Handlers wrap each request in
    :meth:`track`; :meth:`await_idle` blocks until the count hits zero.
    """

    daemon_threads = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._inflight = 0
        self._idle = threading.Condition()

    @contextlib.contextmanager
    def track(self):
        with self._idle:
            self._inflight += 1
        try:
            yield
        finally:
            with self._idle:
                self._inflight -= 1
                self._idle.notify_all()

    def await_idle(self, timeout: float = None) -> bool:
        """Block until no request is being handled; False on timeout."""
        with self._idle:
            return self._idle.wait_for(lambda: self._inflight == 0,
                                       timeout)


def create_server(service, host: str = "127.0.0.1", port: int = 8100,
                  verbose: bool = False) -> ServeHTTPServer:
    """A ready-to-run threading HTTP server bound to ``service``.

    ``port=0`` binds an ephemeral port (tests); the bound address is
    ``server.server_address``.  Callers own the lifecycle: run
    ``serve_forever()`` (blocking or in a thread), then ``shutdown()``
    and ``server_close()``, and close the service.
    """
    server = ServeHTTPServer((host, port), ServeHandler)
    server.service = service
    server.verbose = verbose
    return server


def run_server(service, host: str = "127.0.0.1", port: int = 8100,
               verbose: bool = False,
               drain_grace: float = 10.0) -> None:
    """Serve until interrupted; closes the service on the way out.

    SIGTERM triggers a graceful drain: the service refuses new work
    (503 + ``Retry-After``, ``/healthz`` flips to ``draining``),
    requests already accepted run to completion (bounded by
    ``drain_grace`` seconds), then the server exits — no in-flight
    reply is ever dropped.  SIGINT/KeyboardInterrupt keeps its
    immediate-exit behaviour for interactive use.
    """
    server = create_server(service, host, port, verbose=verbose)
    bound_host, bound_port = server.server_address[:2]

    def _drain():
        service.drain()
        server.await_idle(drain_grace)
        server.shutdown()

    def _on_sigterm(signum, frame):
        # shutdown() must not run on the serve_forever thread (it would
        # deadlock waiting for the loop the handler interrupted), so
        # the drain runs on its own thread.
        threading.Thread(target=_drain, name="serve-drain",
                         daemon=True).start()

    try:
        previous = signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:  # not the main thread: no handler to install
        previous = None
    print(f"repro-serve listening on http://{bound_host}:{bound_port}")
    print(f"  POST http://{bound_host}:{bound_port}/predict  "
          "{'image': [...784 bipolar floats...]}")
    print(f"  GET  http://{bound_host}:{bound_port}/stats")
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
        server.shutdown()
        server.server_close()
        service.close()
