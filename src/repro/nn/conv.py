"""2-D convolution via im2col.

Tensors are NCHW.  ``im2col``/``col2im`` are exposed because the
inference engine (:mod:`repro.engine.plan`, :mod:`repro.engine.surrogate`)
reuses them to enumerate receptive fields when wiring inner-product
blocks.
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import glorot_uniform, zeros
from repro.nn.module import Layer, Parameter
from repro.utils.seeding import spawn_rng

__all__ = ["Conv2D", "im2col_indices", "im2col", "col2im"]


def im2col_indices(height: int, width: int, kernel: int, stride: int = 1):
    """Row/col gather indices for im2col.

    Returns ``(rows, cols)`` arrays of shape
    ``(out_h * out_w, kernel * kernel)`` so that a channel ``img[c]``
    yields patches via ``img[c][rows, cols]``.
    """
    out_h = (height - kernel) // stride + 1
    out_w = (width - kernel) // stride + 1
    r0 = np.repeat(np.arange(kernel), kernel)
    c0 = np.tile(np.arange(kernel), kernel)
    base_r = stride * np.repeat(np.arange(out_h), out_w)
    base_c = stride * np.tile(np.arange(out_w), out_h)
    rows = base_r[:, None] + r0[None, :]
    cols = base_c[:, None] + c0[None, :]
    return rows, cols


def im2col(x: np.ndarray, kernel: int, stride: int = 1) -> np.ndarray:
    """Extract patches: (N, C, H, W) → (N, out_h*out_w, C*kernel*kernel)."""
    n, c, h, w = x.shape
    rows, cols = im2col_indices(h, w, kernel, stride)
    patches = x[:, :, rows, cols]           # (N, C, P, K*K)
    return patches.transpose(0, 2, 1, 3).reshape(n, rows.shape[0], -1)


def col2im(cols: np.ndarray, x_shape, kernel: int, stride: int = 1
           ) -> np.ndarray:
    """Scatter-add patches back: inverse of :func:`im2col` for gradients."""
    n, c, h, w = x_shape
    rows, cols_idx = im2col_indices(h, w, kernel, stride)
    p = rows.shape[0]
    cols = cols.reshape(n, p, c, kernel * kernel).transpose(0, 2, 1, 3)
    out = np.zeros(x_shape, dtype=cols.dtype)
    np.add.at(out, (slice(None), slice(None), rows, cols_idx), cols)
    return out


class Conv2D(Layer):
    """Valid (unpadded) 2-D convolution, the LeNet-5 flavour.

    Parameters
    ----------
    in_channels, out_channels, kernel:
        Filter geometry; stride is fixed at 1 (LeNet-5).
    seed:
        Initialization seed.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 seed: int = 0):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        fan_in = in_channels * kernel * kernel
        fan_out = out_channels * kernel * kernel
        rng = spawn_rng(seed, "conv2d", in_channels, out_channels, kernel)
        self.weight = Parameter(
            glorot_uniform((out_channels, fan_in), fan_in, fan_out, rng),
            name="conv_w",
        )
        self.bias = Parameter(zeros(out_channels), name="conv_b")
        self.params = [self.weight, self.bias]
        self._cache = None

    @property
    def fan_in(self) -> int:
        """Receptive-field size: the SC inner-product input size ``n``."""
        return self.in_channels * self.kernel * self.kernel

    def output_hw(self, h: int, w: int):
        return h - self.kernel + 1, w - self.kernel + 1

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(
                f"expected {self.in_channels} input channels, got {c}"
            )
        cols = im2col(x, self.kernel)               # (N, P, fan_in)
        out = cols @ self.weight.value.T + self.bias.value  # (N, P, OC)
        oh, ow = self.output_hw(h, w)
        if training:
            self._cache = (x.shape, cols)
        return out.transpose(0, 2, 1).reshape(n, self.out_channels, oh, ow)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x_shape, cols = self._cache
        n, oc, oh, ow = grad.shape
        g = grad.reshape(n, oc, oh * ow).transpose(0, 2, 1)  # (N, P, OC)
        self.weight.grad += np.einsum("npo,npk->ok", g, cols)
        self.bias.grad += g.sum(axis=(0, 1))
        dcols = g @ self.weight.value                        # (N, P, fan_in)
        return col2im(dcols, x_shape, self.kernel)
