"""The serving frontend and its in-process executor.

:class:`ServeFrontend` is the request lifecycle both serving modes
share: validation (:class:`RequestResolver`), admission, the root
``serve.predict``/``serve.scene`` span, latency accounting, drain and
the API the HTTP layer drives.  It hands every admitted request to an
*executor*: :class:`LocalExecutor` runs it in this process,
:class:`repro.serve.procpool.ProcExecutor` relays it to worker
processes.  :class:`InferenceService` is the frontend bound to a
:class:`LocalExecutor` — the embeddable in-process service.

In process, a request's spec (model, backend, stream length, FEB
kinds, pooling, weight bits, seed) resolves to a hashable *group key*;
each image is a ticket on the :class:`repro.serve.batcher.MicroBatcher`,
which coalesces concurrent same-key tickets into one engine call from
the :class:`repro.serve.pool.EnginePool`.  Exact-backend batches run
through ``forward_independent``, so every reply is bit-identical to a
dedicated single-request ``Engine.predict`` with the same seed whatever
it was coalesced with; stateful float-domain backends (``surrogate``/
``noise``) are serialized per engine and only statistically
batch-invariant.

A request ``timeout`` becomes a queue deadline: a request still queued
past it is shed before compute (:class:`~repro.serve.batcher.
DeadlineExceeded`, HTTP 504).  :meth:`ServeFrontend.drain` refuses new
requests (:class:`ServiceDraining`, HTTP 503) while accepted ones run to
completion (:meth:`ServeFrontend.await_idle`) — the SIGTERM path of
:func:`repro.serve.server.run_server`.
"""

from __future__ import annotations

import hashlib
import threading
import time

import numpy as np

from repro import faults, obs
from repro.core.config import (
    NetworkConfig,
    resolve_kinds,
    resolve_pooling,
)
from repro.data.images import to_bipolar
from repro.data.scenes import Scene
from repro.engine import get_backend
from repro.engine.engine import as_image_batch
from repro.engine.plan import normalize_weight_bits
from repro.engine.tiled import SceneResult, extract_windows, reduce_scene
from repro.nn.zoo import hidden_layer_count, input_geometry
from repro.serve.batcher import DeadlineExceeded, MicroBatcher
from repro.serve.pool import EnginePool
from repro.serve.stats import LatencyTracker

# re-exported for serving callers; the parsers live with the config
# domain in repro.core.config
__all__ = ["InferenceService", "LocalExecutor", "RequestResolver",
           "ServeFrontend", "ServiceDraining", "payload_fingerprint",
           "resolve_pooling", "resolve_kinds"]


class ServiceDraining(RuntimeError):
    """The service is draining (shutdown in progress): new requests are
    refused; the HTTP layer maps this to 503 with a ``Retry-After``."""


def payload_fingerprint(image) -> str:
    """Stable 12-hex digest of one request payload.

    Fault-injection specs target a *specific* request with
    ``site="serve.request", match=payload_fingerprint(img)`` — stable
    under re-batching and bisection, unlike occurrence counting.
    """
    arr = np.ascontiguousarray(np.asarray(image, dtype=np.float64))
    return hashlib.sha1(arr.tobytes()).hexdigest()[:12]


class RequestResolver:
    """Request-spec resolution over a model set, engine-free.

    Everything decided about a request *before* touching an engine:
    validating overrides against the hosted models, resolving them into
    a canonical :class:`~repro.core.config.NetworkConfig`, and deriving
    the hashable *group key* — the fields two requests must agree on to
    share one batched engine call.  Every failure raises ``ValueError``
    (HTTP 400), so the multi-process tier rejects a malformed request
    without crossing a process boundary.
    """

    def __init__(self, models: dict, *, default_model: str,
                 backend: str = "exact", length: int = 64, kinds=None,
                 pooling="max", weight_bits=None, seed: int = 0):
        #: per-model (hidden layer count, input shape) — the request
        #: facts validated before any engine work
        self._models_meta = {
            name: (hidden_layer_count(m), input_geometry(m))
            for name, m in models.items()}
        if default_model not in self._models_meta:
            raise ValueError(f"default model {default_model!r} is not "
                             "among the hosted models")
        self.defaults = {
            "model": default_model,
            "backend": backend,
            "length": int(length),
            "kinds": None if kinds is None else resolve_kinds(kinds),
            "pooling": resolve_pooling(pooling),
            "weight_bits": weight_bits,
            "seed": int(seed),
        }
        get_backend(backend)  # fail fast on an unknown default

    def resolve(self, overrides: dict):
        """Resolve per-request overrides into ``(group_key, config, spec)``.

        Raises ``ValueError`` on any malformed field — the HTTP layer
        maps that to a 400.
        """
        unknown = set(overrides) - set(self.defaults)
        if unknown:
            raise ValueError(
                f"unknown request fields: {sorted(unknown)}; "
                f"allowed: {sorted(self.defaults)}")
        spec = dict(self.defaults)
        spec.update(overrides)
        backend = str(spec["backend"])
        get_backend(backend)
        model = str(spec["model"])
        hidden, _ = self.model_meta(model)
        try:
            kinds = (("APC",) * hidden if spec["kinds"] is None
                     else resolve_kinds(spec["kinds"], n_layers=hidden))
            config = NetworkConfig.from_kinds(
                resolve_pooling(spec["pooling"]), int(spec["length"]),
                kinds)
            bits = normalize_weight_bits(spec["weight_bits"],
                                         n_layers=hidden + 1)
            seed = int(spec["seed"])
        except TypeError as exc:
            # e.g. length=None or weight_bits=1.5 — a caller error, not
            # an internal one; keep the ValueError contract of resolve
            raise ValueError(f"malformed request field: {exc}") from exc
        key = (model, backend, config, bits, seed)
        return key, config, spec

    def model_meta(self, model: str) -> tuple:
        """(hidden layer count, input shape) of a hosted model; the one
        unknown-model check, a ``ValueError`` listing what is hosted."""
        try:
            return self._models_meta[model]
        except KeyError:
            raise ValueError(
                f"unknown model {model!r}; this service hosts: "
                f"{', '.join(sorted(self._models_meta))}") from None

    def input_shape(self, model=None) -> tuple:
        """A hosted model's ``(channels, height, width)`` input geometry."""
        model = self.defaults["model"] if model is None else str(model)
        return self.model_meta(model)[1]

    def as_images(self, images, model: str) -> np.ndarray:
        """Normalize a request payload to the model's pixel batch; any
        malformed payload (geometry, range, non-numeric) is a
        ``ValueError``."""
        try:
            return as_image_batch(images, bipolar=True,
                                  shape=self.model_meta(model)[1])
        except TypeError as exc:
            raise ValueError(
                f"malformed image payload: {exc}") from exc

    def resolve_scene(self, scene, model: str, stride=None):
        """Validate a scene request against a hosted model's geometry.

        Returns ``(scene, stride, boxes, flat_windows)``, the windows a
        bipolar ``(N, pixels)`` batch.  A bad payload, multi-channel
        model, canvas smaller than the tile or bad stride raises
        ``ValueError`` before any engine work.
        """
        channels, h, w = self.model_meta(model)[1]
        if channels != 1:
            raise ValueError(
                f"scene requests need a single-channel model; "
                f"{model!r} consumes {channels}-channel input")
        if not isinstance(scene, Scene):
            scene = Scene.from_payload(scene)
        if stride is None:
            stride = h
        try:
            stride = int(stride)
        except (TypeError, ValueError):
            raise ValueError(
                f"stride must be an integer, got {stride!r}") from None
        windows, boxes = extract_windows(scene.canvas, (h, w), stride)
        flat = to_bipolar(windows.reshape(len(boxes), -1))
        return scene, stride, boxes, flat

    def describe(self) -> dict:
        """JSON-ready rendering of the defaults (the ``/stats`` block)."""
        kinds = self.defaults["kinds"]
        return {**self.defaults,
                "kinds": None if kinds is None else ",".join(kinds),
                "pooling": self.defaults["pooling"].value.lower()}


class ServeFrontend:
    """The request lifecycle both serving modes share.

    An executor provides ``run(kind, key, payload, deadline)``,
    ``stats()``, ``export_gauges()``, ``metric_snapshots()`` (registry
    snapshots of any other processes, for the merged ``/metrics`` page)
    and ``close()``.  ``run`` gets a ``"predict"`` or ``"scene"``
    request's group key, its validated payload (a bipolar image batch,
    or :meth:`RequestResolver.resolve_scene`'s tuple) and its absolute
    monotonic deadline, and returns the class indices or the
    :class:`~repro.engine.tiled.SceneResult`.

    Admission is one atomic step under ``_idle``: the closed and
    draining checks and the in-flight bump.  A request is therefore
    either refused or visible to :meth:`await_idle` from the instant it
    is accepted — the guarantee SIGTERM drain rests on.
    """

    def __init__(self, resolver: RequestResolver, executor):
        self.resolver = resolver
        self.defaults = resolver.defaults
        self.executor = executor
        self.tracker = LatencyTracker()
        self._closed = False
        self._draining = False
        self._inflight = 0
        self._idle = threading.Condition()

    def _serve(self, kind: str, timeout, overrides: dict, prepare):
        """Admit, resolve, execute and account one request.

        ``prepare(model)`` validates the payload against the resolved
        model, inside the root span so its cost is attributed there.
        """
        with self._idle:
            if self._closed:
                raise RuntimeError("service is closed")
            if self._draining:
                raise ServiceDraining(
                    "service is draining; not accepting new requests")
            self._inflight += 1
        start = time.monotonic()
        deadline = None if timeout is None else start + timeout
        try:
            # Root span of the request lifecycle: batcher tickets
            # capture it at submit time, so the queue/coalesce/compute
            # spans recorded on worker threads all parent back here.
            with obs.span(f"serve.{kind}", **{
                    tag: str(overrides.get(tag, self.defaults[tag]))
                    for tag in ("model", "backend")}):
                key = self.resolver.resolve(overrides)[0]
                result = self.executor.run(kind, key, prepare(key[0]),
                                           deadline)
        except (DeadlineExceeded, TimeoutError):
            self.tracker.record_shed()
            raise
        except Exception:
            self.tracker.record_error()
            raise
        finally:
            with self._idle:
                self._inflight -= 1
                if self._inflight == 0:
                    self._idle.notify_all()
        self.tracker.record(time.monotonic() - start)
        return result

    def predict(self, images, timeout: float = None, **overrides
                ) -> np.ndarray:
        """Class predictions for one image or a batch (blocking).

        Returns an ``(N,)`` int array.  Keyword overrides (``model``,
        ``backend``, ``length``, ``kinds``, ``pooling``, ``weight_bits``,
        ``seed``) replace the defaults for this request only.
        ``timeout`` bounds the whole request and is also its queue
        deadline, so a request that cannot be served in time is shed
        before compute instead of evaluated for nobody.
        """
        preds = self._serve(
            "predict", timeout, overrides,
            lambda model: self.resolver.as_images(images, model))
        return np.asarray(preds, dtype=np.int64)

    def predict_one(self, image, timeout: float = None, **overrides) -> int:
        """Single-image convenience wrapper around :meth:`predict`."""
        return int(self.predict(image, timeout=timeout, **overrides)[0])

    def predict_scene(self, scene, stride: int = None,
                      timeout: float = None, **overrides) -> SceneResult:
        """Tiled inference over a composite scene (blocking).

        ``scene`` is a :class:`repro.data.scenes.Scene` or its JSON
        payload form; ``stride`` defaults to the model tile height.
        All windows of a scene share one group key (the spec plus a
        ``"logits"`` marker) and coalesce into engine calls together.
        With the exact backend every window's logits are bit-identical
        to a dedicated single-window run, so the reply depends on
        neither batching nor worker count.
        """
        return self._serve(
            "scene", timeout, overrides,
            lambda model: self.resolver.resolve_scene(
                scene, model=model, stride=stride))

    @property
    def draining(self) -> bool:
        return self._draining

    def drain(self) -> None:
        """Refuse new requests; accepted ones still run to completion.

        Idempotent; under ``_idle``, so every request admitted before
        is counted by :meth:`await_idle`.  Executors are not told: they
        only ever see admitted requests, all of which must be served.
        """
        with self._idle:
            self._draining = True

    def await_idle(self, timeout: float = None) -> bool:
        """Block until no request is in flight; False on timeout."""
        with self._idle:
            return self._idle.wait_for(lambda: self._inflight == 0,
                                       timeout)

    def stats(self) -> dict:
        """Frontend telemetry plus the executor's, for ``/stats``."""
        return {
            "draining": self._draining,
            "service": self.tracker.summary(),
            **self.executor.stats(),
            "defaults": self.resolver.describe(),
        }

    def export_gauges(self) -> None:
        """Publish point-in-time gauges into the current registry; called
        at scrape time so the hot path never churns them."""
        obs.gauge("repro_serve_draining",
                  "1 while the service refuses new requests.").set(
                      1 if self._draining else 0)
        self.executor.export_gauges()

    def metrics_text(self) -> str:
        """The ``/metrics`` page: this process's registry snapshot,
        merged with every worker process's (counters and histograms sum;
        summed gauges read as totals across processes), rendered once."""
        self.export_gauges()
        return obs.render(obs.merge([obs.get_registry().snapshot(),
                                     *self.executor.metric_snapshots()]))

    def close(self) -> None:
        """Refuse further requests, shut the executor down (idempotent)."""
        with self._idle:
            if self._closed:
                return
            self._closed = True
        self.executor.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class LocalExecutor:
    """In-process executor: an :class:`EnginePool` behind a
    :class:`MicroBatcher`, one ticket per image or scene window."""

    def __init__(self, pool: EnginePool, *, max_batch: int,
                 max_wait_ms: float, workers: int, max_queue: int):
        self.pool = pool
        self.batcher = MicroBatcher(self._run_batch, max_batch=max_batch,
                                    max_wait_ms=max_wait_ms,
                                    workers=workers, max_queue=max_queue)

    def engine(self, key):
        """The pooled engine a group key runs on (built on a miss)."""
        model, backend, config, bits, seed = key[:5]
        return self.pool.get(config, backend=backend, weight_bits=bits,
                             seed=seed, model=model)

    def _run_batch(self, key, payloads):
        # A 6-tuple key (spec + "logits", appended by run()) is a group
        # of scene windows: they get raw logits back, since the scene
        # reduction needs margins, while predict keys get argmaxes.
        if faults.active() is not None:
            # Per-payload site first: a spec matching one request's
            # fingerprint fails every batch containing it, so bisection
            # isolates exactly that request.  Then the whole-batch site.
            for payload in payloads:
                faults.fire("serve.request",
                            label=payload_fingerprint(payload))
            faults.fire("serve.compute",
                        label=f"{key[0]}:{key[1]}:{len(payloads)}")
        engine = self.engine(key)
        batch = np.stack(payloads)
        backend = engine.backend
        if hasattr(backend, "forward_independent"):
            # Draws nothing per request: thread-safe on a shared
            # engine and bit-identical to single-request calls.
            logits = backend.forward_independent(batch)
        else:
            # Stateful float-domain backends mutate their noise RNG per
            # call: serialize per engine so workers never race it.
            with engine.serial_lock:
                logits = backend.forward(batch)
        if len(key) == 6:
            return list(logits)
        return list(np.argmax(logits, axis=1))

    def _gather(self, key, items, deadline) -> list:
        """Submit one ticket per item and collect them in order."""
        tickets = []
        try:
            for item in items:
                tickets.append(self.batcher.submit(key, item,
                                                   deadline=deadline))
            return [t.result(None if deadline is None
                             else max(deadline - time.monotonic(), 0.0))
                    for t in tickets]
        except Exception:
            # Abandon the whole request: sibling tickets still queued
            # would otherwise be computed for nobody.
            for ticket in tickets:
                ticket.cancel()
            raise

    def run(self, kind, key, payload, deadline):
        if kind == "predict":
            return self._gather(key, payload, deadline)
        scene, _, boxes, windows = payload
        logits = np.stack([
            np.asarray(row, dtype=np.float64) for row in
            self._gather(key + ("logits",), windows, deadline)])
        cell_preds, cell_windows = reduce_scene(
            scene.kind, [c.box for c in scene.cells], boxes, logits)
        return SceneResult(kind=scene.kind, boxes=boxes,
                           window_logits=logits, cell_preds=cell_preds,
                           cell_windows=cell_windows)

    def stats(self) -> dict:
        return {"batcher": self.batcher.stats(), "pool": self.pool.stats()}

    def export_gauges(self) -> None:
        batcher = self.batcher.stats()
        obs.gauge("repro_serve_queue_depth",
                  "Requests waiting in the batcher queue.").set(
                      batcher["queued"])
        obs.gauge("repro_serve_inflight_batches",
                  "Batches currently being computed.").set(
                      batcher["inflight_batches"])
        pool = self.pool.stats()
        obs.gauge("repro_pool_engines",
                  "Engines resident in the pool.").set(pool["engines"])
        obs.gauge("repro_pool_plans",
                  "Compiled plans resident in the pool.").set(
                      pool["plans"])

    def metric_snapshots(self) -> list:
        return []  # this process's registry is the whole story

    def close(self) -> None:
        """Drain the queue and stop the batcher workers."""
        self.batcher.close()


class InferenceService(ServeFrontend):
    """The frontend bound to a :class:`LocalExecutor`.

    ``model`` is a trained :class:`repro.nn.module.Sequential` (named
    ``"default"``) or a ``{name: model}`` mapping; per-request
    ``model=<name>`` overrides pick among the entries.  ``backend``,
    ``length``, ``kinds``, ``pooling``, ``weight_bits`` and ``seed`` are
    the default request spec (``kinds=None`` means all-APC at the
    target model's depth).  ``max_batch``, ``max_wait_ms``, ``workers``
    and ``max_queue`` set the :class:`MicroBatcher` policy (a full queue
    raises :class:`~repro.serve.batcher.QueueFull`, HTTP 503);
    ``max_engines`` bounds the :class:`EnginePool`.  ``warm`` preloads
    the default spec's engine so the first request does not pay
    compilation and weight-stream drawing.
    """

    def __init__(self, model, *, backend: str = "exact", length: int = 64,
                 kinds=None, pooling="max",
                 weight_bits=None, seed: int = 0, max_batch: int = 16,
                 max_wait_ms: float = 2.0, workers: int = 1,
                 max_queue: int = 1024, max_engines: int = 8,
                 warm: bool = True):
        self.pool = EnginePool(model, max_engines=max_engines)
        super().__init__(
            RequestResolver(
                self.pool.models, default_model=self.pool.default_model,
                backend=backend, length=length, kinds=kinds,
                pooling=pooling, weight_bits=weight_bits, seed=seed),
            LocalExecutor(self.pool, max_batch=max_batch,
                          max_wait_ms=max_wait_ms, workers=workers,
                          max_queue=max_queue))
        self.batcher = self.executor.batcher
        if warm:
            self.executor.engine(self.resolver.resolve({})[0])
