"""Surrogate pre-screening: skip full evaluations a cheap pass rules out.

The halving search spends most of its budget evaluating points that fail
the accuracy budget by a mile (a MUX inner product over hundreds of
inputs at a short stream length is hopeless, and the search still pays a
full-fidelity evaluation to learn it).  Screening runs every candidate
through a *cheap, deterministic* pass first — by default the calibrated
transfer-curve surrogate with noise sampling off, fewer calibration
samples and a quarter of the evaluation images — and only *promotes*
candidates whose screened degradation lands within ``margin_pct`` of the
accuracy threshold to the full evaluation.  Screened-out candidates
count as failures for the halving loop (their combo is pruned), exactly
as a failed full evaluation would.

Margin semantics: a candidate is promoted when

    ``screen_degradation <= threshold_pct + margin_pct``

so the margin is the error-percentage slack absorbing the screen's
model mismatch.  Screening is an *approximation* — a margin of 0 trusts
the surrogate completely; the default is deliberately conservative
(calibrated so that on the LeNet-5 space even a briefly-trained model's
surrogate-vs-noise deviations never screen out a point the full
evaluation would have passed; the conformance suite asserts exactly
that).  The runner reports screened-out counts honestly — a screened
search that saved nothing says so.
"""

from __future__ import annotations

import dataclasses

__all__ = ["ScreenPolicy"]

#: Screen backends must be deterministic given a seed; these opts pin
#: the cheap configurations (the surrogate's noise sampling off).
_SCREEN_OPTS = {
    "surrogate": {"noisy": False},
    "float": {},
    "noise": {},
}


@dataclasses.dataclass(frozen=True)
class ScreenPolicy:
    """Configuration of the pre-screening pass.

    Attributes
    ----------
    margin_pct:
        Promotion slack over the accuracy threshold (see module doc).
    images:
        Evaluation images for the screen (``None`` → a quarter of the
        full evaluation's, floored at 32).
    samples:
        Calibration samples per surrogate transfer curve (the full
        surrogate evaluator uses 240).
    backend:
        Screening backend: ``"surrogate"`` (default, deterministic
        transfer curves), ``"float"`` or ``"noise"``.
    """

    margin_pct: float = 20.0
    images: int | None = None
    samples: int = 60
    backend: str = "surrogate"

    def __post_init__(self):
        if self.backend not in _SCREEN_OPTS:
            raise ValueError(
                f"screen backend must be one of "
                f"{sorted(_SCREEN_OPTS)}, got {self.backend!r}")
        if self.margin_pct < 0:
            raise ValueError(
                f"margin_pct must be >= 0, got {self.margin_pct}")
        if self.images is not None and self.images < 1:
            raise ValueError(f"images must be >= 1, got {self.images}")

    def resolve_images(self, eval_images: int) -> int:
        """Images per screen evaluation (never more than the full pass)."""
        if self.images is not None:
            return min(int(self.images), int(eval_images))
        return min(max(int(eval_images) // 4, 32), int(eval_images))

    def backend_opts(self) -> dict:
        """Engine options of the screening backend."""
        opts = dict(_SCREEN_OPTS[self.backend])
        if self.backend in ("surrogate", "noise"):
            opts["samples"] = int(self.samples)
        return opts

    def promotes(self, screen_degradation_pct: float,
                 threshold_pct: float) -> bool:
        """Whether a screened candidate proceeds to full evaluation."""
        return screen_degradation_pct <= threshold_pct + self.margin_pct
