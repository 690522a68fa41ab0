"""Procedural handwritten-digit generation.

Each sample starts from a base glyph (:mod:`repro.data.glyphs`) and is
perturbed with:

* a random affine warp — rotation, anisotropic scale, shear, translation;
* elastic distortion (Simard et al.) — a Gaussian-smoothed random
  displacement field;
* stroke-width variation — grey-level dilation or erosion;
* Gaussian blur and additive sensor noise.

The perturbation magnitudes are chosen so a LeNet-5 reaches a few-percent
error rate, leaving headroom to observe SC-induced degradation — matching
the role MNIST plays in the paper.

The transform helpers import :mod:`scipy.ndimage` when they first run,
so only a process that generates digits loads scipy.
"""

from __future__ import annotations

import numpy as np

from repro.data.glyphs import DIGIT_GLYPHS, render_glyph
from repro.data.images import IMAGE_SIZE, NUM_CLASSES, to_bipolar
from repro.utils.seeding import spawn_rng
from repro.utils.validation import check_positive_int

__all__ = ["SyntheticMNIST", "generate_dataset", "to_bipolar"]


def _random_affine(img: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Apply a random rotation/scale/shear/translation (inverse mapping)."""
    from scipy import ndimage

    size = img.shape[0]
    angle = rng.uniform(-0.26, 0.26)  # ±15 degrees
    scale_r = rng.uniform(0.85, 1.15)
    scale_c = rng.uniform(0.85, 1.15)
    shear = rng.uniform(-0.15, 0.15)
    t_r = rng.uniform(-2.5, 2.5)
    t_c = rng.uniform(-2.5, 2.5)

    cos, sin = np.cos(angle), np.sin(angle)
    # forward = T(center) @ R @ Shear @ S @ T(-center) + t
    rot = np.array([[cos, -sin], [sin, cos]])
    shr = np.array([[1.0, shear], [0.0, 1.0]])
    scl = np.diag([scale_r, scale_c])
    fwd = rot @ shr @ scl
    inv = np.linalg.inv(fwd)
    center = (size - 1) / 2.0
    offset = np.array([center - t_r, center - t_c]) - inv @ np.array(
        [center, center]
    )
    return ndimage.affine_transform(img, inv, offset=offset, order=1,
                                    mode="constant", cval=0.0)


def _elastic(img: np.ndarray, rng: np.random.Generator,
             alpha: float = 4.0, sigma: float = 4.0) -> np.ndarray:
    """Elastic distortion with a smoothed random displacement field."""
    from scipy import ndimage

    size = img.shape[0]
    dr = ndimage.gaussian_filter(rng.uniform(-1, 1, (size, size)), sigma) * alpha
    dc = ndimage.gaussian_filter(rng.uniform(-1, 1, (size, size)), sigma) * alpha
    rr, cc = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    coords = np.stack([rr + dr, cc + dc])
    return ndimage.map_coordinates(img, coords, order=1, mode="constant",
                                   cval=0.0)


def _stroke_width(img: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Randomly thicken or thin strokes with grey-level morphology."""
    from scipy import ndimage

    roll = rng.random()
    if roll < 0.3:
        return ndimage.grey_dilation(img, size=(2, 2))
    if roll < 0.5:
        return ndimage.grey_erosion(img, size=(2, 2))
    return img


def _finish(img: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Blur + noise + clip to [0, 1]."""
    from scipy import ndimage

    img = ndimage.gaussian_filter(img, rng.uniform(0.4, 0.9))
    img = img + rng.normal(0.0, 0.04, img.shape)
    return np.clip(img, 0.0, 1.0)


class SyntheticMNIST:
    """A deterministic synthetic digit generator.

    >>> gen = SyntheticMNIST(seed=0)
    >>> img = gen.sample(digit=3)
    >>> img.shape, float(img.min()) >= 0.0, float(img.max()) <= 1.0
    ((28, 28), True, True)
    """

    def __init__(self, seed: int = 0):
        self._rng = spawn_rng(seed, "synthetic-mnist")

    def sample(self, digit: int,
               rng: np.random.Generator = None) -> np.ndarray:
        """Generate one perturbed 28×28 image of ``digit``.

        ``rng`` makes the draw a pure function of that generator (the
        sampler's own stream is untouched); ``None`` keeps the shared
        per-instance stream.
        """
        rng = self._rng if rng is None else rng
        variant = int(rng.integers(len(DIGIT_GLYPHS[digit])))
        img = render_glyph(digit, variant, IMAGE_SIZE)
        img = _stroke_width(img, rng)
        img = _random_affine(img, rng)
        img = _elastic(img, rng)
        return _finish(img, rng)

    def batch(self, n: int, rng: np.random.Generator = None):
        """Generate ``n`` images with uniformly random labels.

        Returns ``(images (n, 1, 28, 28), labels (n,))``.  With an
        explicit ``rng``, labels *and* image perturbations all come from
        it, so the batch reproduces bit-for-bit no matter what other
        callers drew from this sampler in between (the scene generator
        relies on this; pre-fix, only the labels were threaded and the
        images still consumed shared state).
        """
        n = check_positive_int(n, "n")
        draw = self._rng if rng is None else rng
        labels = draw.integers(0, NUM_CLASSES, size=n)
        images = np.empty((n, 1, IMAGE_SIZE, IMAGE_SIZE), dtype=np.float64)
        for i, digit in enumerate(labels):
            images[i, 0] = self.sample(int(digit), rng=draw)
        return images, labels.astype(np.int64)


def generate_dataset(n_train: int, n_test: int, seed: int = 0):
    """Generate a train/test split.

    Returns ``(x_train, y_train, x_test, y_test)`` with images in [0, 1],
    NCHW layout.  Train and test use independent generator streams so the
    split is honest.
    """
    train_gen = SyntheticMNIST(seed=seed)
    test_gen = SyntheticMNIST(seed=seed + 104729)  # disjoint stream
    x_train, y_train = train_gen.batch(n_train)
    x_test, y_test = test_gen.batch(n_test)
    return x_train, y_train, x_test, y_test
