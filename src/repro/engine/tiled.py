"""Tiled inference: slide a model-sized window over a composite scene.

A zoo classifier consumes one 28×28 tile; a composite scene
(:mod:`repro.data.scenes`) is larger.  :class:`TiledInference` bridges
the two: it extracts every stride-aligned window from the scene canvas,
pushes *all* windows through one engine call, and reduces the per-window
logits back to per-cell predictions.

Two invariants the serving layer builds on:

* **One plan, one engine.**  A scene run compiles nothing — the engine
  (typically pool-sourced, see :mod:`repro.serve.pool`) is handed in and
  reused for every window; ``plan.with_length`` re-targeting happens
  upstream.
* **Bit-identity per window.**  With a backend that exposes
  ``forward_independent`` (the exact backend), row *i* of the window
  logits is bit-identical to a dedicated single-window run through a
  freshly constructed same-seed engine — batching windows is purely a
  throughput optimization, never a numerics change.

Reduction is kind-aware: ``grid`` scenes map each labelled cell to its
maximum-overlap window (exactly the cell's own window when the stride
divides the tile size); single-digit scenes (``translated`` /
``cluttered``) pick the window with the largest top-1 margin
(``top1 − top2`` logit gap) — the window that saw the digit most
centred — with ties broken toward the first window in scan order.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.data.images import to_bipolar
from repro.data.scenes import Scene

__all__ = [
    "window_origins",
    "window_boxes",
    "extract_windows",
    "reduce_scene",
    "SceneResult",
    "TiledInference",
]


def window_origins(span: int, window: int, stride: int) -> tuple:
    """Stride-spaced window offsets covering ``[0, span)``, edge-aligned.

    The last origin is clamped to ``span - window`` so the far edge is
    always covered even when the stride does not divide evenly.
    """
    span, window, stride = int(span), int(window), int(stride)
    if window < 1 or stride < 1:
        raise ValueError(
            f"window and stride must be >= 1, got {window}, {stride}")
    if window > span:
        raise ValueError(
            f"window of {window} exceeds the {span}-pixel span")
    origins = list(range(0, span - window + 1, stride))
    if origins[-1] != span - window:
        origins.append(span - window)
    return tuple(origins)


def window_boxes(canvas_hw: tuple, window_hw: tuple, stride: int) -> tuple:
    """All ``(top, left, h, w)`` boxes of the sliding window, row-major."""
    H, W = (int(v) for v in canvas_hw)
    h, w = (int(v) for v in window_hw)
    return tuple((top, left, h, w)
                 for top in window_origins(H, h, stride)
                 for left in window_origins(W, w, stride))


def extract_windows(canvas: np.ndarray, window_hw: tuple, stride: int):
    """Return ``(windows (N, h, w), boxes)`` for a 2-D canvas."""
    canvas = np.asarray(canvas, dtype=np.float64)
    if canvas.ndim != 2:
        raise ValueError(
            f"canvas must be 2-D, got shape {canvas.shape}")
    boxes = window_boxes(canvas.shape, window_hw, stride)
    windows = np.stack([canvas[t:t + h, l:l + w] for t, l, h, w in boxes])
    return windows, boxes


def _overlap_area(a: tuple, b: tuple) -> int:
    at, al, ah, aw = a
    bt, bl, bh, bw = b
    dh = min(at + ah, bt + bh) - max(at, bt)
    dw = min(al + aw, bl + bw) - max(al, bl)
    return max(dh, 0) * max(dw, 0)


def reduce_scene(kind: str, cell_boxes, boxes, logits):
    """Reduce per-window logits to per-cell predictions.

    Returns ``(cell_preds (C,) int64, cell_windows (C,) tuple)`` where
    ``cell_windows[i]`` is the index of the window whose logits decided
    cell ``i``.  Pure function of its arguments — the serving layer runs
    it on logits gathered through the micro-batcher, the local tiler on
    logits from one engine call, and both must agree.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or logits.shape[0] != len(boxes):
        raise ValueError(
            f"expected ({len(boxes)}, classes) logits, got shape "
            f"{logits.shape}")
    if kind == "grid":
        # each cell takes the window covering it best (scan-order tie-break)
        idx = [int(np.argmax([_overlap_area(cb, wb) for wb in boxes]))
               for cb in cell_boxes]
    else:
        # single digit somewhere on the canvas: trust the most confident
        # window — the largest top1−top2 logit gap
        part = np.partition(logits, logits.shape[1] - 2, axis=1)
        margins = part[:, -1] - part[:, -2]
        idx = [int(np.argmax(margins))] * len(cell_boxes)
    preds = np.argmax(logits[idx], axis=1).astype(np.int64)
    return preds, tuple(idx)


@dataclasses.dataclass(frozen=True, eq=False)
class SceneResult:
    """One tiled-inference pass over a scene.

    ``window_logits[i]`` are the raw logits of ``boxes[i]``;
    ``cell_preds[j]`` is the predicted label of ``scene.cells[j]``,
    decided by window ``cell_windows[j]``.
    """

    kind: str
    boxes: tuple
    window_logits: np.ndarray
    cell_preds: np.ndarray
    cell_windows: tuple

    @property
    def window_preds(self) -> np.ndarray:
        return np.argmax(self.window_logits, axis=1).astype(np.int64)

    def accuracy(self, scene: Scene) -> float:
        """Fraction of scene cells predicted correctly."""
        return float((self.cell_preds == scene.labels).mean())


class TiledInference:
    """Slide one engine across scenes, batching all windows per scene.

    Parameters
    ----------
    engine:
        A ready :class:`repro.engine.engine.Engine` whose plan consumes
        single-channel tiles (scene canvases are single-channel).  The
        engine is reused across every window and every scene — compile
        cost is paid once, upstream.
    stride:
        Window step in pixels.  Defaults to the window height —
        non-overlapping tiling, which sees each ``grid`` cell exactly
        once.  Single-digit scenes benefit from a denser stride
        (e.g. ``7``) so some window lands close to the true box.
    """

    def __init__(self, engine, stride: int | None = None):
        channels, h, w = engine.plan.input_shape
        if channels != 1:
            raise ValueError(
                f"tiled inference needs a single-channel model, got "
                f"{channels}-channel input geometry")
        self.engine = engine
        self.window_hw = (h, w)
        self.stride = h if stride is None else int(stride)
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")

    # ------------------------------------------------------------------
    def window_logits(self, canvas: np.ndarray):
        """``(boxes, logits)`` for every window of a ``[0, 1]`` canvas.

        One backend call for the whole window batch.  Uses
        ``forward_independent`` when the backend offers it, so each
        row is bit-identical to a dedicated single-window run; stateful
        backends without it are serialized under the engine lock.
        """
        windows, boxes = extract_windows(canvas, self.window_hw,
                                         self.stride)
        flat = to_bipolar(windows.reshape(len(boxes), -1))
        independent = getattr(self.engine.backend, "forward_independent",
                              None)
        if independent is not None:
            logits = independent(flat)
        else:
            with self.engine.serial_lock:
                logits = self.engine.backend.forward(flat)
        return boxes, logits

    def infer(self, scene: Scene) -> SceneResult:
        """Classify every labelled cell of a scene."""
        boxes, logits = self.window_logits(scene.canvas)
        cell_preds, cell_windows = reduce_scene(
            scene.kind, [c.box for c in scene.cells], boxes, logits)
        return SceneResult(kind=scene.kind, boxes=boxes,
                           window_logits=logits, cell_preds=cell_preds,
                           cell_windows=cell_windows)
