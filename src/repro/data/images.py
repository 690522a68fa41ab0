"""The MNIST image format every consumer of the dataset shares.

Image geometry, class count and the mapping onto the SC input range.
The engine and the serving stack need these and nothing of the digit
generator, so they live apart from it (and from its scipy dependency).
"""

from __future__ import annotations

import numpy as np

__all__ = ["IMAGE_SIZE", "NUM_CLASSES", "to_bipolar"]

IMAGE_SIZE = 28
NUM_CLASSES = 10


def to_bipolar(images: np.ndarray) -> np.ndarray:
    """Map [0, 1] images to the bipolar SC input range [-1, 1]."""
    return images * 2.0 - 1.0
