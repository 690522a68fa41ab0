"""Composite-scene generation over the synthetic digit sampler.

A *scene* is a single-channel canvas larger than the 28×28 tile the zoo
models consume, holding one or more digits whose positions and labels
are known.  Scenes are the workload for the tiled-inference layer
(:mod:`repro.engine.tiled`) and the ``scene`` serving mode: a classifier
trained on single digits is slid across the canvas and its per-window
logits are reduced back to per-cell predictions.

Three scene kinds, in increasing difficulty:

``grid``
    An R×C lattice of digits, one per 28×28 cell.  Every cell is
    labelled; tiled inference with ``stride=28`` sees exactly one
    window per cell.
``translated``
    One digit at a uniform-random offset on a larger canvas.  Exercises
    window alignment: only windows near the true box see a centred
    digit.
``cluttered``
    ``translated`` plus distractor stroke fragments (crops of other
    digits) pasted outside the labelled box.  Exercises rejection of
    partial evidence.

Determinism: every scene is a pure function of ``(seed, kind, index)``
— generation order, interleaving and process boundaries cannot change a
scene (the per-scene stream comes from :func:`repro.utils.seeding.
spawn_rng` and is threaded explicitly through
:meth:`repro.data.synthetic_mnist.SyntheticMNIST.sample`).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.data.images import IMAGE_SIZE, NUM_CLASSES
from repro.utils.seeding import spawn_rng
from repro.utils.validation import check_positive_int

__all__ = ["SceneCell", "Scene", "SceneGenerator", "SCENE_KINDS"]

SCENE_KINDS = ("grid", "translated", "cluttered")

TILE = IMAGE_SIZE
"""Digit tile side length — the geometry every scene cell is drawn at."""

_MAX_PLACEMENT_TRIES = 32


@dataclasses.dataclass(frozen=True)
class SceneCell:
    """One labelled digit in a scene.

    ``box`` is ``(top, left, height, width)`` in canvas pixels — the
    exact window a dedicated single-digit classifier should be shown.
    """

    label: int
    box: tuple

    def to_payload(self) -> dict:
        return {"label": int(self.label), "box": [int(v) for v in self.box]}


@dataclasses.dataclass(frozen=True, eq=False)
class Scene:
    """A generated composite scene.

    Attributes
    ----------
    kind:
        One of :data:`SCENE_KINDS`.
    canvas:
        Float64 ``(H, W)`` image in ``[0, 1]`` (same range as the
        single-digit dataset; bipolar conversion happens at inference).
    cells:
        Tuple of :class:`SceneCell`, row-major for ``grid`` scenes,
        a single cell for ``translated``/``cluttered``.
    """

    kind: str
    canvas: np.ndarray
    cells: tuple

    @property
    def shape(self) -> tuple:
        return self.canvas.shape

    @property
    def labels(self) -> np.ndarray:
        return np.array([c.label for c in self.cells], dtype=np.int64)

    def to_payload(self) -> dict:
        """JSON-serializable form (the ``scene`` HTTP request body)."""
        return {
            "kind": self.kind,
            "canvas": self.canvas.tolist(),
            "cells": [c.to_payload() for c in self.cells],
        }

    @classmethod
    def from_payload(cls, payload) -> "Scene":
        """Parse and validate a payload; raises ``ValueError`` on any
        malformed field (the serving layer's 400 class)."""
        if not isinstance(payload, dict):
            raise ValueError(
                f"scene payload must be an object, got {type(payload).__name__}")
        missing = {"kind", "canvas", "cells"} - set(payload)
        if missing:
            raise ValueError(f"scene payload missing {sorted(missing)}")
        kind = payload["kind"]
        if kind not in SCENE_KINDS:
            raise ValueError(
                f"unknown scene kind {kind!r}; expected one of {SCENE_KINDS}")
        try:
            canvas = np.asarray(payload["canvas"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed scene canvas: {exc}") from exc
        if canvas.ndim != 2 or canvas.size == 0:
            raise ValueError(
                f"scene canvas must be a non-empty 2-D grid, got shape "
                f"{canvas.shape}")
        if canvas.min() < 0.0 or canvas.max() > 1.0:
            raise ValueError("scene canvas values must lie in [0, 1]")
        cells = []
        for i, cell in enumerate(payload["cells"]):
            if not isinstance(cell, dict) or {"label", "box"} - set(cell):
                raise ValueError(
                    f"scene cell {i} must be an object with 'label' and "
                    f"'box'")
            try:
                label = int(cell["label"])
                top, left, bh, bw = (int(v) for v in cell["box"])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"malformed scene cell {i}: {exc}") from exc
            if not 0 <= label < NUM_CLASSES:
                raise ValueError(
                    f"scene cell {i} label must be 0-{NUM_CLASSES - 1}, "
                    f"got {label}")
            if (bh < 1 or bw < 1 or top < 0 or left < 0
                    or top + bh > canvas.shape[0]
                    or left + bw > canvas.shape[1]):
                raise ValueError(
                    f"scene cell {i} box {(top, left, bh, bw)} falls "
                    f"outside the {canvas.shape} canvas")
            cells.append(SceneCell(label, (top, left, bh, bw)))
        if not cells:
            raise ValueError("scene payload must hold at least one cell")
        return cls(kind=kind, canvas=canvas, cells=tuple(cells))


def _boxes_overlap(a: tuple, b: tuple) -> bool:
    at, al, ah, aw = a
    bt, bl, bh, bw = b
    return not (at + ah <= bt or bt + bh <= at
                or al + aw <= bl or bl + bw <= al)


class SceneGenerator:
    """Deterministic scene factory over :class:`SyntheticMNIST`.

    Every scene is reproducible from ``(seed, kind, index)`` alone::

        gen = SceneGenerator(seed=0)
        a = gen.generate("grid", index=3, rows=2, cols=3)
        b = SceneGenerator(seed=0).generate("grid", index=3, rows=2, cols=3)
        # a and b are bit-identical, regardless of any other calls
    """

    def __init__(self, seed: int = 0):
        # Imported here: the engine and the serving stack read
        # :class:`Scene` and never generate one.
        from repro.data.synthetic_mnist import SyntheticMNIST

        self.seed = int(seed)
        # The sampler's own stream is never consumed — every sample()
        # call below threads the per-scene rng explicitly.
        self._sampler = SyntheticMNIST(seed=self.seed)

    # ------------------------------------------------------------------
    def _rng(self, kind: str, index: int) -> np.random.Generator:
        return spawn_rng(self.seed, "scene", kind, int(index))

    def _digit(self, rng: np.random.Generator):
        label = int(rng.integers(0, NUM_CLASSES))
        return label, self._sampler.sample(label, rng=rng)

    # ------------------------------------------------------------------
    def grid(self, index: int = 0, rows: int = 2, cols: int = 2) -> Scene:
        """An ``rows×cols`` lattice of digits, one per 28×28 cell."""
        rows = check_positive_int(rows, "rows")
        cols = check_positive_int(cols, "cols")
        rng = self._rng("grid", index)
        canvas = np.zeros((rows * TILE, cols * TILE), dtype=np.float64)
        cells = []
        for r in range(rows):
            for c in range(cols):
                label, img = self._digit(rng)
                top, left = r * TILE, c * TILE
                canvas[top:top + TILE, left:left + TILE] = img
                cells.append(SceneCell(label, (top, left, TILE, TILE)))
        return Scene("grid", canvas, tuple(cells))

    def translated(self, index: int = 0,
                   canvas_hw: tuple = (56, 56)) -> Scene:
        """One digit at a uniform-random offset on a larger canvas."""
        rng = self._rng("translated", index)
        canvas, cell = self._place_digit(rng, canvas_hw)
        return Scene("translated", canvas, (cell,))

    def cluttered(self, index: int = 0, canvas_hw: tuple = (56, 56),
                  n_distractors: int = 4) -> Scene:
        """``translated`` plus stroke fragments outside the labelled box."""
        rng = self._rng("cluttered", index)
        canvas, cell = self._place_digit(rng, canvas_hw)
        H, W = canvas.shape
        for _ in range(int(n_distractors)):
            _, src = self._digit(rng)
            ph = int(rng.integers(8, 15))
            pw = int(rng.integers(8, 15))
            sr = int(rng.integers(0, TILE - ph + 1))
            sc = int(rng.integers(0, TILE - pw + 1))
            patch = src[sr:sr + ph, sc:sc + pw]
            for _try in range(_MAX_PLACEMENT_TRIES):
                dt = int(rng.integers(0, H - ph + 1))
                dl = int(rng.integers(0, W - pw + 1))
                if not _boxes_overlap((dt, dl, ph, pw), cell.box):
                    region = canvas[dt:dt + ph, dl:dl + pw]
                    np.maximum(region, patch, out=region)
                    break
        return Scene("cluttered", canvas, (cell,))

    def _canvas_hw(self, canvas_hw: tuple) -> tuple:
        try:
            H, W = (int(v) for v in canvas_hw)
        except (TypeError, ValueError):
            raise ValueError(
                f"canvas_hw must be a (height, width) pair, got "
                f"{canvas_hw!r}") from None
        if H < TILE or W < TILE:
            raise ValueError(
                f"canvas_hw must be at least {TILE}×{TILE}, got "
                f"{canvas_hw!r}")
        return H, W

    def _place_digit(self, rng: np.random.Generator, canvas_hw: tuple):
        H, W = self._canvas_hw(canvas_hw)
        label, img = self._digit(rng)
        top = int(rng.integers(0, H - TILE + 1))
        left = int(rng.integers(0, W - TILE + 1))
        canvas = np.zeros((H, W), dtype=np.float64)
        canvas[top:top + TILE, left:left + TILE] = img
        return canvas, SceneCell(label, (top, left, TILE, TILE))

    # ------------------------------------------------------------------
    def generate(self, kind: str, index: int = 0, **kwargs) -> Scene:
        """Dispatch to the named scene kind."""
        if kind not in SCENE_KINDS:
            raise ValueError(
                f"unknown scene kind {kind!r}; expected one of "
                f"{SCENE_KINDS}")
        return getattr(self, kind)(index=index, **kwargs)

    def scenes(self, kind: str, n: int, start: int = 0, **kwargs) -> list:
        """Generate ``n`` scenes ``start .. start+n-1`` of one kind."""
        n = check_positive_int(n, "n")
        return [self.generate(kind, index=start + i, **kwargs)
                for i in range(n)]
