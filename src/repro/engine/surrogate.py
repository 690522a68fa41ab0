"""Float-domain backends: calibrated surrogate, paper-noise, reference.

Three backends execute the compiled plan without bit-level simulation:

``surrogate``
    The calibrated transfer-curve evaluator: each feature extraction
    stage's ``tanh(pool(·))`` is replaced by the transfer curve measured
    from the genuine bit-level blocks, plus (optionally) the measured
    stochastic noise.  Carries both the systematic and random components
    of SC inaccuracy.

``noise``
    The paper's own network-evaluation methodology: every stage outputs its
    ideal ``tanh(pool(·))`` plus zero-mean Gaussian noise whose magnitude
    is the block's measured bit-level absolute inaccuracy.  Together with
    ``surrogate`` it brackets the design space.

``float``
    The software baseline: the plain float forward pass of the trained
    network (optionally with quantized weight storage) — the reference
    Table 6's degradation threshold is measured against.

All three share the plan's per-layer weights and the conv geometry; the
expensive measured artifacts (calibration curves, sigmas) are memoized on
the plan via :meth:`repro.engine.plan.CompiledPlan.cached`, so re-using
one plan across engines — as the Section 6.3 optimizer does along its
halving loop — never re-measures or re-quantizes anything.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import FEBKind, PoolKind
from repro.engine.backends import register_backend
from repro.engine.calibration import (
    TARGET_RANGE,
    calibrate_feb,
    measured_stage_sigma,
)
from repro.nn.conv import im2col
from repro.utils.seeding import spawn_rng

__all__ = ["SurrogateBackend", "NoiseBackend", "FloatBackend"]


def _feb_key(kind: FEBKind, pooled: bool, pooling: PoolKind) -> str:
    """Calibration key for a layer: conv stages by (kind, pool), FC flat."""
    ip = "mux" if kind is FEBKind.MUX else "apc"
    if not pooled:
        return f"fc-{ip}"
    pool = "avg" if pooling is PoolKind.AVG else "max"
    return f"{ip}-{pool}"


class _FloatGraphExecutor:
    """Shared conv/pool plumbing for the float-domain backends.

    The executor is topology-driven: each backend's ``forward`` walks
    ``plan.layers`` in order, so any graph the IR can describe (arbitrary
    conv stacks, pooled or not, any dense depth) executes without
    LeNet-specific wiring.
    """

    def __init__(self, plan):
        self.plan = plan

    def _stage_weights(self, lp):  # pragma: no cover - interface
        raise NotImplementedError

    def _as_nchw(self, images: np.ndarray) -> np.ndarray:
        """Reshape a request batch to the plan's NCHW input geometry."""
        c, h, w = self.plan.input_shape
        return np.asarray(images, dtype=np.float64).reshape(-1, c, h, w)

    @staticmethod
    def _as_flat(x: np.ndarray) -> np.ndarray:
        """Flatten spatial activations once the dense stages begin."""
        return x.reshape(x.shape[0], -1) if x.ndim > 2 else x

    def _conv_pre(self, x: np.ndarray, lp) -> np.ndarray:
        """conv (→ pool) on NCHW float input; returns pre-activations."""
        w, b = self._stage_weights(lp)
        n_img = x.shape[0]
        cols = im2col(x, lp.kernel)               # (N, P, fan_in)
        pre = cols @ w.T + b                      # (N, P, C)
        channels, _, (conv_h, conv_w) = lp.geometry
        pre = pre.transpose(0, 2, 1).reshape(n_img, channels, conv_h, conv_w)
        if not lp.pooled:
            return pre
        view = pre.reshape(n_img, channels, conv_h // 2, 2, conv_w // 2, 2)
        if self.plan.config.pooling is PoolKind.AVG:
            return view.mean(axis=(3, 5))
        return view.max(axis=(3, 5))


@register_backend
class SurrogateBackend(_FloatGraphExecutor):
    """Calibrated transfer-curve evaluator of a compiled plan.

    Parameters
    ----------
    plan:
        The compiled plan (uses the separately-quantized scaled weights).
    seed:
        Noise/calibration seed.
    samples:
        Bit-level samples per calibration curve.
    noisy:
        Sample the measured noise (True) or use the deterministic
        transfer curve only (False).
    """

    name = "surrogate"

    def __init__(self, plan, seed: int = 0, samples: int = 240,
                 noisy: bool = True):
        super().__init__(plan)
        self.noisy = noisy
        self._rng = spawn_rng(seed, "fast-model")
        self.calibrations = plan.cached(
            ("surrogate-cal", plan.length, samples, seed),
            lambda: self._measure_curves(samples, seed),
        )
        # Output stage noise: the decoded APC inner product over n inputs
        # has standard deviation sqrt(n/L) in sum units; the logits are
        # reported scaled by 1/(n+1), so scale the noise the same way.
        n_out = plan.layers[-1].n_inputs
        self.output_sigma = np.sqrt(n_out / plan.length) / n_out

    def _measure_curves(self, samples: int, seed: int):
        # The calibration curve is measured on the raw block; a stage
        # whose weights were scaled up sees pooled values magnified by
        # the applied factor, so widen its swept range accordingly.
        return [
            calibrate_feb(
                _feb_key(lp.kind, lp.pooled, self.plan.config.pooling),
                lp.n_inputs, self.plan.length, samples, seed,
                target_range=TARGET_RANGE * max(lp.applied_factor, 1.0))
            for lp in self.plan.layers[:-1]
        ]

    def _stage_weights(self, lp):
        return lp.dense_weights, lp.dense_bias

    def forward(self, images: np.ndarray) -> np.ndarray:
        """Surrogate logits for a batch of images."""
        x = self._as_nchw(images)
        rng = self._rng if self.noisy else None
        for i, lp in enumerate(self.plan.layers):
            if lp.op == "conv":
                x = self.calibrations[i].apply(self._conv_pre(x, lp), rng)
                continue
            x = self._as_flat(x)
            w, b = self._stage_weights(lp)
            pre = x @ w.T + b
            if lp.final:
                logits = pre / lp.n_inputs
                if self.noisy:
                    logits = logits + self._rng.normal(
                        0.0, self.output_sigma, logits.shape
                    )
                return logits
            x = self.calibrations[i].apply(pre, rng)


@register_backend
class NoiseBackend(_FloatGraphExecutor):
    """The paper's methodology: measured block inaccuracy as noise.

    Section 6's layer-wise analysis (Figure 16) treats each layer's
    hardware inaccuracy as a perturbation of the layer's *correct*
    output; this backend evaluates the float network with zero-mean
    Gaussian noise of the measured magnitude injected after every
    feature extraction stage.  Uses the *unscaled* (raw, optionally
    quantized) weights — the noise curve is measured relative to the
    ideal block, not the gain-compensated mapping.
    """

    name = "noise"

    def __init__(self, plan, seed: int = 0, samples: int = 96):
        super().__init__(plan)
        self._rng = spawn_rng(seed, "paper-noise-model")
        self.stage_sigmas = plan.cached(
            ("noise-sigmas", plan.length, samples, seed),
            lambda: [
                measured_stage_sigma(
                    _feb_key(lp.kind, lp.pooled, self.plan.config.pooling),
                    lp.n_inputs, self.plan.length, samples, seed)
                for lp in plan.layers[:-1]
            ],
        )
        n_out = plan.layers[-1].n_inputs
        self.output_sigma = np.sqrt(n_out / plan.length) / n_out

    def _stage_weights(self, lp):
        return lp.raw_weights, lp.raw_bias

    def forward(self, images: np.ndarray) -> np.ndarray:
        """Noise-injected logits for a batch of images."""
        x = self._as_nchw(images)
        for i, lp in enumerate(self.plan.layers):
            if lp.op == "conv":
                pre = self._conv_pre(x, lp)
            else:
                x = self._as_flat(x)
                w, b = self._stage_weights(lp)
                pre = x @ w.T + b
                if lp.final:
                    logits = pre / lp.n_inputs
                    return logits + self._rng.normal(0.0, self.output_sigma,
                                                     logits.shape)
            out = np.tanh(pre)
            noise = self._rng.normal(0.0, self.stage_sigmas[i], out.shape)
            x = np.clip(out + noise, -1.0, 1.0)


@register_backend
class FloatBackend(_FloatGraphExecutor):
    """The float software baseline, executed over the same layer graph.

    Deterministic; matches :meth:`repro.nn.module.Sequential.predict` of
    the trained model (exactly in argmax, to float tolerance in logits)
    when ``weight_bits`` is ``None``.  Logits are returned unscaled.
    """

    name = "float"

    def __init__(self, plan, seed: int = 0):
        super().__init__(plan)

    def _stage_weights(self, lp):
        return lp.raw_weights, lp.raw_bias

    def forward(self, images: np.ndarray) -> np.ndarray:
        x = self._as_nchw(images)
        for lp in self.plan.layers:
            if lp.op == "conv":
                x = np.tanh(self._conv_pre(x, lp))
                continue
            x = self._as_flat(x)
            w, b = self._stage_weights(lp)
            if lp.final:
                return x @ w.T + b
            x = np.tanh(x @ w.T + b)

    #: stateless and deterministic, so batching can never perturb a
    #: response — the serving layer may run it lock-free and coalesced
    #: exactly like the exact backend's per-request-forked path.
    forward_independent = forward
