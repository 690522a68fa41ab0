"""Compiled per-layer plans: everything derivable before the first image.

``compile_plan`` turns a :class:`repro.engine.graph.LayerGraph` into an
immutable :class:`CompiledPlan` holding, per layer, every quantity that
does not depend on the input image:

* the gain-compensation cascade (the paper's ref (45) pre-scaling) and
  its per-layer deficit / applied factor;
* the activation state number ``K`` from the paper's equations;
* three stored-weight variants, one per backend family:
  ``weights`` (bias folded in, then quantized — what the exact bit-level
  backend streams), ``dense_weights``/``dense_bias`` (scaled then
  quantized separately — what the calibrated surrogate multiplies), and
  ``raw_weights``/``raw_bias`` (unscaled, quantized — what the float
  reference and the paper-noise evaluator use);
* conv-layer gather indices (im2col patch index across channels) and 2×2
  pool-window indices, shared by every image of every batch.

``CompiledPlan.with_length`` re-derives *only* the length-dependent
pieces when the stream length changes (the Section 6.3 halving loop):
state numbers are recomputed, and if none changed — always true for
all-APC configurations, whose equations never involve ``L`` — the layer
plans are reused as-is.  Raw-weight quantization is cached across
re-compiles in all cases, since the raw variant never depends on ``L``.
"""

from __future__ import annotations

import dataclasses
import functools
import threading

import numpy as np

from repro import obs
from repro.core.config import FEBKind, NetworkConfig
from repro.core.state_numbers import select_states
from repro.engine.graph import LayerGraph, build_graph
from repro.nn.conv import im2col_indices
from repro.storage.quantization import dequantize_codes, quantize_weights
from repro.utils.validation import check_positive_int

__all__ = [
    "layer_gain_compensation",
    "pool_window_indices",
    "conv_patch_index",
    "normalize_weight_bits",
    "LayerPlan",
    "CompiledPlan",
    "compile_plan",
]

OUTPUT_STATES = 2
"""Degenerate state number recorded for the (activation-free) logit layer."""


def layer_gain_compensation(weights: np.ndarray, bias: np.ndarray,
                            kind: FEBKind, n: int, n_states: int,
                            incoming_deficit: float = 1.0,
                            headroom: float = 0.97):
    """Cascade weight pre-scaling for SC layers (the paper's ref (45)).

    A MUX inner product scales its output by ``1/n`` and the following
    Stanh's small-signal slope is ``K/2``, so the layer's end-to-end gain
    on its pooled pre-activation is ``K/(2n)`` — far below the unit gain
    the float network was trained with.  The compensation scales the
    *stored* weights up toward the local target ``t = 2n/K`` (MUX; ``1``
    for unit-gain APC layers).  On top of that, any gain deficit left by
    *earlier* layers (whose activations arrive compressed by
    ``1/incoming_deficit``) is absorbed by the weight part only — biases
    are not multiplied by the compressed activations, so they scale by
    the local target alone.

    All scaled values must stay inside the [-1, 1] SRAM range; the
    common back-off factor ``alpha ≤ 1`` that enforces this becomes the
    layer's own residual compression.  In the tanh-linear regime the
    layer then computes ``tanh(alpha · P)`` for true pre-activation
    ``P``, so the returned outgoing deficit is ``1/alpha`` (exact up to
    tanh saturation, where compression is milder anyway).

    Returns ``(scaled_weights, scaled_bias, outgoing_deficit,
    applied_weight_factor)``.
    """
    local_target = (2.0 * n / float(n_states) if kind is FEBKind.MUX
                    else 1.0)
    desired_w = incoming_deficit * local_target
    desired_b = local_target
    peak = max(
        float(np.max(np.abs(weights)) if weights.size else 0.0) * desired_w,
        float(np.max(np.abs(bias)) if bias.size else 0.0) * desired_b,
        1e-12,
    )
    alpha = min(1.0, headroom / peak)
    return (weights * (alpha * desired_w), bias * (alpha * desired_b),
            1.0 / alpha, alpha * desired_w)


@functools.lru_cache(maxsize=32)
def pool_window_indices(out_h: int, out_w: int) -> np.ndarray:
    """Indices of each 2×2 pooling window into the flattened conv grid.

    For a conv output grid of shape ``(2·out_h, 2·out_w)`` (row-major
    flattening), returns an ``(out_h·out_w, 4)`` index array gathering
    the four member positions of every pooling window.  Cached (and
    marked read-only) — every plan for a given geometry shares one array.
    """
    check_positive_int(out_h, "out_h")
    check_positive_int(out_w, "out_w")
    in_w = 2 * out_w
    windows = np.empty((out_h * out_w, 4), dtype=np.int64)
    k = 0
    for i in range(out_h):
        for j in range(out_w):
            base = (2 * i) * in_w + 2 * j
            windows[k] = (base, base + 1, base + in_w, base + in_w + 1)
            k += 1
    windows.setflags(write=False)
    return windows


@functools.lru_cache(maxsize=32)
def conv_patch_index(channels_in: int, in_h: int, in_w: int,
                     kernel: int) -> np.ndarray:
    """Flat gather index turning a stream bank into conv patches.

    For packed layer input of shape ``(channels_in · in_h · in_w, nbytes)``
    in channel-major row-major order, ``streams[index]`` yields the
    ``(P, channels_in · kernel²)`` patch bank (P output positions),
    channel-major along the input axis — the exact layout the weight
    matrix of :class:`repro.nn.conv.Conv2D` expects.  Cached per geometry.
    """
    rows, cols = im2col_indices(in_h, in_w, kernel)
    flat = rows * in_w + cols                                # (P, k·k)
    index = np.concatenate(
        [c * in_h * in_w + flat for c in range(channels_in)], axis=1
    )
    index.setflags(write=False)
    return index


def normalize_weight_bits(weight_bits, n_layers: int = 4):
    """Normalize the weight-storage precision spec to an ``n_layers``-tuple.

    ``None`` keeps float weights everywhere; an int applies to all
    layers; an ``(n_layers - 1)``-tuple (the paper's per-layer w1-w3 for
    LeNet-5) reuses the last entry for the output layer.  ``n_layers``
    is the model's total weight-layer count including the output layer
    (4 for the paper's LeNet-5).
    """
    if weight_bits is None:
        return (None,) * n_layers
    if isinstance(weight_bits, int):
        return (weight_bits,) * n_layers
    # idempotent: normalized tuples (possibly holding None) pass through
    bits = tuple(None if b is None else int(b) for b in weight_bits)
    if len(bits) == n_layers - 1:
        return bits + (bits[-1],)
    if len(bits) != n_layers:
        raise ValueError(
            f"weight_bits must be an int, {n_layers - 1}- or "
            f"{n_layers}-tuple for this {n_layers}-layer model")
    return bits


def _quantize(values: np.ndarray, bits) -> np.ndarray:
    if bits is None:
        return values
    return dequantize_codes(quantize_weights(values, bits), bits)


class LayerPlan:
    """Resolved per-layer execution parameters (immutable once built)."""

    def __init__(self, node, n_states: int, bits, scaled_w, scaled_b,
                 deficit: float, applied_factor: float, raw_cache: dict):
        self.name = node.name
        self.op = node.op
        self.kind = node.kind
        self.n_inputs = node.n_inputs
        self.units = node.units
        self.pooled = node.pooled
        self.final = node.final
        self.geometry = node.geometry
        self.n_states = n_states
        self.bits = bits
        self.deficit = deficit
        self.applied_factor = applied_factor
        self.kernel = node.kernel
        if node.op == "conv":
            channels_out, (in_h, in_w), (conv_h, conv_w) = node.geometry
            kernel = node.kernel
            channels_in = (node.n_inputs - 1) // (kernel * kernel)
            self.patch_index = conv_patch_index(channels_in, in_h, in_w,
                                                kernel)
            self.pool_windows = (
                pool_window_indices(conv_h // 2, conv_w // 2)
                if node.pooled else None)
        else:
            self.patch_index = None
            self.pool_windows = None
        #: exact-backend storage: bias folded as one extra column, then
        #: quantized.
        self.weights = _quantize(
            np.concatenate([scaled_w, scaled_b[:, None]], axis=1), bits
        )
        #: surrogate storage: scaled weight/bias quantized separately.
        self.dense_weights = _quantize(scaled_w, bits)
        self.dense_bias = _quantize(scaled_b, bits)
        #: float/noise storage: unscaled parameters, quantized; cached
        #: across recompiles (never length-dependent).
        key = (node.name, bits)
        if key not in raw_cache:
            raw_cache[key] = (_quantize(node.weight, bits),
                              _quantize(node.bias, bits))
        self.raw_weights, self.raw_bias = raw_cache[key]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"LayerPlan({self.name}, {self.kind.value}, "
                f"n={self.n_inputs}, K={self.n_states})")


class CompiledPlan:
    """An immutable compiled network plan: config + per-layer plans.

    Backends may stash derived artifacts (calibration curves, measured
    sigmas) in the plan's keyed cache via :meth:`cached` so repeated
    engine constructions over one plan do not recompute them.
    """

    def __init__(self, graph: LayerGraph, layers, weight_bits,
                 raw_cache: dict):
        self.graph = graph
        self.config = graph.config
        self.layers = tuple(layers)
        self.weight_bits = weight_bits
        self._raw_cache = raw_cache
        self._derived = {}
        # Serving workers share one plan across threads; the lock makes
        # `cached` a safe memoization point (an RLock so a factory may
        # itself consult the cache without deadlocking).
        self._derived_lock = threading.RLock()

    @property
    def length(self) -> int:
        return self.config.length

    @property
    def input_shape(self) -> tuple:
        """Input geometry ``(channels, height, width)`` the plan consumes."""
        return self.graph.input_shape

    @property
    def input_pixels(self) -> int:
        """Flat input size (channels × height × width)."""
        return self.graph.input_pixels

    @property
    def gain_deficits(self):
        """Per-layer outgoing gain deficits, in layer order."""
        return [layer.deficit for layer in self.layers]

    def cached(self, key, factory):
        """Memoize a backend-derived artifact on the plan (thread-safe).

        Concurrent callers racing on one key see exactly one ``factory``
        invocation; the loser blocks until the artifact exists.  Holding
        the lock across the factory call is deliberate — the guarded
        artifacts (calibration curves, measured sigmas) are expensive,
        and racing duplicates would waste far more than the serialization
        costs.
        """
        with self._derived_lock:
            if key not in self._derived:
                self._derived[key] = factory()
            return self._derived[key]

    def with_length(self, length: int, name: str | None = None
                    ) -> "CompiledPlan":
        """Re-target the plan at a new stream length.

        Only length-dependent pieces are re-derived: state numbers are
        recomputed, and when every layer's state number is unchanged
        (all-APC configurations) the existing layer plans are reused
        outright.  Raw-weight quantization is shared through the plan's
        cache either way.
        """
        if length == self.config.length and name in (None, self.config.name):
            return self
        config = dataclasses.replace(
            self.config, length=length,
            name=self.config.name if name is None else name,
        )
        graph = dataclasses.replace(self.graph, config=config)
        with obs.span("engine.with_length", length=length):
            states = _state_numbers(graph)
            if states == tuple(l.n_states for l in self.layers):
                # Layer plans are reusable, but backend-derived artifacts
                # (calibration curves, noise sigmas) are measured at this
                # plan's stream length — the re-targeted plan must start
                # a fresh derived store so no length-specific artifact
                # leaks.
                return CompiledPlan(graph, self.layers, self.weight_bits,
                                    self._raw_cache)
            return _compile(graph, self.weight_bits, self._raw_cache)


def _state_numbers(graph: LayerGraph):
    """Per-layer activation state numbers for a graph's design point."""
    config = graph.config
    states = []
    for node in graph.nodes:
        if node.final:
            states.append(OUTPUT_STATES)
        else:
            states.append(select_states(node.kind, node.n_inputs,
                                        config.length, config.pooling,
                                        pooled=node.pooled))
    return tuple(states)


def _compile(graph: LayerGraph, weight_bits, raw_cache: dict
             ) -> CompiledPlan:
    bits = normalize_weight_bits(weight_bits, n_layers=len(graph.nodes))
    states = _state_numbers(graph)
    layers = []
    deficit = 1.0
    for node, n_states, b in zip(graph.nodes, states, bits):
        w, bias, deficit, factor = layer_gain_compensation(
            node.weight, node.bias, node.kind, node.n_inputs, n_states,
            incoming_deficit=deficit,
        )
        layers.append(LayerPlan(node, n_states, b, w, bias,
                                deficit, factor, raw_cache))
    return CompiledPlan(graph, layers, bits, raw_cache)


def compile_plan(graph_or_model, config: NetworkConfig | None = None,
                 weight_bits=None) -> CompiledPlan:
    """Compile a layer graph (or model + config) into an executable plan.

    Accepts either a pre-built :class:`LayerGraph` or a trained model
    plus a :class:`NetworkConfig`.  The compilation is deterministic:
    it uses no randomness, so two compilations of the same inputs produce
    identical plans (asserted by ``tests/test_engine/test_plan.py``).
    """
    if isinstance(graph_or_model, LayerGraph):
        graph = graph_or_model
    else:
        if config is None:
            raise ValueError("compile_plan(model, ...) needs a NetworkConfig")
        graph = build_graph(graph_or_model, config)
    with obs.span("engine.compile", length=graph.config.length):
        return _compile(graph, weight_bits, raw_cache={})

