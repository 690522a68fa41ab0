"""The unified inference engine: one dispatch point, pluggable backends.

``Engine`` ties the subsystem together: it lowers a trained model and a
:class:`repro.core.config.NetworkConfig` into the layer-graph IR,
compiles (or reuses) an immutable per-layer plan, instantiates the
requested backend, and exposes batched ``forward`` / ``predict`` /
``error_rate``.  Every evaluator in the repository — the exact bit-level
simulator, the calibrated surrogate, the paper-noise methodology and the
float baseline — is an ``Engine`` with a different ``backend`` string::

    engine = Engine(trained.model, config, backend="exact", seed=0)
    preds = engine.predict(images)          # batched bit-level inference

Passing a pre-compiled ``plan`` skips compilation entirely; the
Section 6.3 optimizer uses this with
:meth:`repro.engine.plan.CompiledPlan.with_length` to walk the
stream-length halving loop without re-quantizing weights or re-deriving
state numbers at every point.
"""

from __future__ import annotations

import threading

import numpy as np

from repro import obs
from repro.core.config import NetworkConfig
from repro.engine.backends import get_backend
from repro.engine.graph import build_graph
from repro.engine.plan import CompiledPlan, compile_plan

__all__ = ["Engine", "as_image_batch"]


def as_image_batch(images: np.ndarray, bipolar: bool = False,
                   shape: tuple = (1, 28, 28)) -> np.ndarray:
    """Normalize input to a float64 ``(B, pixels)`` batch.

    Accepts a flat pixel vector, a single 2-D image matching the
    ``shape`` geometry, or a batch of either.  With ``bipolar=True``
    values are additionally required to lie in the bipolar range [-1, 1]
    (the bit-level backends and the serving layer enforce this; the
    float-domain executors tolerate out-of-range pre-activations).  The
    single normalization point for the engine front-end, the exact
    backend and ``repro.serve``; ``shape`` is the target model's
    ``(channels, height, width)`` input geometry, defaulting to the
    1×28×28 synthetic-MNIST images every zoo model consumes.  A 2-D or
    3-D input is treated as a single image only when its shape *is* the
    plan's geometry — ``(h, w)`` for single-channel plans, or the full
    ``(channels, h, w)`` — any other shape is validated as a batch, so
    a wrongly-sized batch fails instead of being silently reinterpreted.
    An empty batch normalizes to ``(0, pixels)`` (zero predictions),
    not a reshape error.
    """
    channels, h, w = (int(s) for s in shape)
    pixels = channels * h * w
    images = np.asarray(images, dtype=np.float64)
    if (images.ndim <= 1
            or (channels == 1 and images.shape == (h, w))
            or images.shape == (channels, h, w)):
        flat = images.reshape(1, -1)
    else:
        # np.prod instead of -1: reshape(0, -1) cannot infer the column
        # count of an empty batch.
        flat = images.reshape(
            images.shape[0], int(np.prod(images.shape[1:], dtype=np.int64)))
    if flat.shape[-1] != pixels:
        raise ValueError(
            f"expected {pixels}-pixel images, got input of shape "
            f"{images.shape}")
    if bipolar and flat.size and np.max(np.abs(flat)) > 1.0:
        raise ValueError("image values must lie in [-1, 1] "
                         "(bipolar encoding; use repro.data.to_bipolar)")
    return flat


class Engine:
    """Backend-agnostic batched inference over a compiled layer plan.

    Parameters
    ----------
    model:
        The trained :class:`repro.nn.module.Sequential` — any
        conv/pool/dense stack the graph builder can lower (see
        :mod:`repro.nn.zoo`); ignored when ``plan`` is given.
    config:
        The SC design point (ignored when ``plan`` is given).
    backend:
        Registered backend name: ``"exact"``, ``"surrogate"``,
        ``"float"`` or ``"noise"`` (extensible via
        :func:`repro.engine.backends.register_backend`).
    seed:
        Backend seed (stream generation / sampled noise).
    weight_bits:
        Optional weight storage precision (int or 3-/4-tuple, Section 5).
    plan:
        A pre-compiled :class:`repro.engine.plan.CompiledPlan` to execute
        directly (skips graph building and compilation; ``model`` and
        ``config`` are ignored, and passing ``weight_bits`` alongside a
        plan is rejected — the plan already fixes the storage precision).
    **backend_opts:
        Extra keyword arguments forwarded to the backend constructor
        (e.g. ``segment``/``sng`` for ``exact``,
        ``samples``/``noisy`` for ``surrogate``).
    """

    def __init__(self, model=None, config: NetworkConfig | None = None,
                 backend: str = "exact", seed: int = 0, weight_bits=None,
                 plan: CompiledPlan | None = None, **backend_opts):
        if plan is None:
            if model is None or config is None:
                raise ValueError(
                    "Engine needs either (model, config) or a compiled plan"
                )
            plan = compile_plan(build_graph(model, config),
                                weight_bits=weight_bits)
        elif weight_bits is not None:
            raise ValueError(
                "weight_bits cannot be combined with a pre-compiled plan "
                "(the plan already fixes the storage precision; pass "
                "weight_bits to compile_plan instead)"
            )
        self.plan = plan
        self.config = plan.config
        self.backend_name = backend
        self.backend = get_backend(backend)(plan, seed=seed, **backend_opts)
        #: serializes callers that share this engine when the backend is
        #: stateful (its RNG advances per call); the serving layer locks
        #: this for backends without ``forward_independent``.
        self.serial_lock = threading.Lock()

    # ------------------------------------------------------------------
    def _as_batch(self, images: np.ndarray) -> np.ndarray:
        """Normalize input to a float64 ``(B, pixels)`` batch."""
        return as_image_batch(images, shape=self.plan.input_shape)

    def forward(self, images: np.ndarray) -> np.ndarray:
        """Per-image logits ``(B, 10)`` (argmax-compatible across backends)."""
        return self.backend.forward(self._as_batch(images))

    def predict(self, images: np.ndarray, batch_size: int | None = None
                ) -> np.ndarray:
        """Argmax class predictions for a batch of images.

        ``batch_size`` caps how many images each backend call receives
        (``None`` hands the whole batch over — the exact backend applies
        its own memory-bounded splitting internally).
        """
        flat = self._as_batch(images)
        step = len(flat) if batch_size is None else int(batch_size)
        preds = []
        with obs.span("engine.predict", backend=self.backend_name,
                      images=len(flat)):
            for start in range(0, len(flat), max(step, 1)):
                logits = self.backend.forward(
                    flat[start:start + max(step, 1)])
                preds.append(np.argmax(logits, axis=1))
        return (np.concatenate(preds) if preds
                else np.empty(0, dtype=np.int64))

    def error_rate(self, images: np.ndarray, labels: np.ndarray,
                   max_images: int | None = None,
                   batch_size: int | None = None) -> float:
        """Error rate in percent (Table 6's metric)."""
        if max_images is not None:
            images = images[:max_images]
            labels = labels[:max_images]
        preds = self.predict(images, batch_size=batch_size)
        return 100.0 * float((preds != np.asarray(labels)).mean())
