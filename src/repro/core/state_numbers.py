"""State-number selection equations for Stanh and Btanh (Section 4.4).

The paper derives three empirical equations for the "approximately optimal"
FSM/counter state number ``K`` of each feature extraction block, always
rounded to the nearest even number:

Equation (1), MUX-Avg-Stanh::

    K = 2·log2(N) + (log2(L)·N) / (α·log2(N)),   α = 33.27

Equation (2), MUX-Max-Stanh::

    K = 2·(log2(N) + log2(L)) - α/log2(N) - β/log5(L),  α = 37, β = 16.5

Equation (3), APC-Avg-Btanh::

    K = N / 2

APC-Max-Btanh reuses the *original* Btanh sizing of ref (21) unchanged;
by the diffusion argument in DESIGN.md the directly-connected counter
needs ``K = 2N`` states (the average pooling divider shrinks the count
variance 4×, which is exactly how equation (3) arrives at ``N/2``).

``N`` is the inner-product input size, ``L`` the bit-stream length.
"""

from __future__ import annotations

import math

from repro.utils.validation import check_positive_int

__all__ = [
    "nearest_even",
    "stanh_states_mux_avg",
    "stanh_states_mux_max",
    "btanh_states_apc_avg",
    "btanh_states_apc_max",
    "select_states",
    "MUX_AVG_ALPHA",
    "MUX_MAX_ALPHA",
    "MUX_MAX_BETA",
]

MUX_AVG_ALPHA = 33.27
MUX_MAX_ALPHA = 37.0
MUX_MAX_BETA = 16.5

_MIN_STATES = 2


def nearest_even(value: float) -> int:
    """Round to the nearest even integer (ties away from zero), min 2.

    The paper assigns "the nearest even number to the result calculated by
    the equation" — FSM state counts must be even so the diagram splits
    into equal halves.
    """
    half = value / 2.0
    even = int(math.floor(half + 0.5)) * 2
    return max(even, _MIN_STATES)


def stanh_states_mux_avg(length: int, n: int) -> int:
    """Equation (1): Stanh state count for MUX-Avg-Stanh blocks."""
    length = check_positive_int(length, "length")
    n = check_positive_int(n, "n")
    if n < 2:
        raise ValueError("equation (1) requires an input size of at least 2")
    log2n = math.log2(n)
    k = 2.0 * log2n + (math.log2(length) * n) / (MUX_AVG_ALPHA * log2n)
    return nearest_even(k)


def stanh_states_mux_max(length: int, n: int) -> int:
    """Equation (2): Stanh state count for MUX-Max-Stanh blocks."""
    length = check_positive_int(length, "length")
    n = check_positive_int(n, "n")
    if n < 2 or length < 2:
        raise ValueError("equation (2) requires n >= 2 and length >= 2")
    log5l = math.log(length) / math.log(5.0)
    k = (2.0 * (math.log2(n) + math.log2(length))
         - MUX_MAX_ALPHA / math.log2(n)
         - MUX_MAX_BETA / log5l)
    return nearest_even(k)


def btanh_states_apc_avg(n: int) -> int:
    """Equation (3): Btanh state count behind APC + average pooling."""
    n = check_positive_int(n, "n")
    return nearest_even(n / 2.0)


def btanh_states_apc_max(n: int) -> int:
    """Original Btanh sizing of ref (21) for a directly-connected APC.

    The counter consumes un-averaged counts whose increment variance is
    ~4× that of the averaged stream, so it needs ``K = 2N`` states (see
    module docstring and DESIGN.md).
    """
    n = check_positive_int(n, "n")
    return nearest_even(2.0 * n)


def select_states(kind, n: int, length: int, pooling, pooled: bool = True
                  ) -> int:
    """Dispatch to the right state-number equation for a layer.

    The single selection rule shared by the feature extraction blocks and
    the engine's plan compiler: a MUX layer behind max pooling uses
    equation (2), any other MUX layer equation (1); an APC layer behind
    average pooling uses equation (3), any other APC layer the original
    ``2N`` Btanh sizing (which also covers the pooling-free
    fully-connected stages).

    ``kind`` is a :class:`repro.core.config.FEBKind` and ``pooling`` a
    :class:`repro.core.config.PoolKind`; ``pooled`` says whether the layer
    actually feeds a pooling block (False for fully-connected stages).
    """
    from repro.core.config import FEBKind, PoolKind
    avg = pooling is PoolKind.AVG
    if kind is FEBKind.MUX:
        if pooled and not avg:
            return stanh_states_mux_max(length, n)
        return stanh_states_mux_avg(length, n)
    if pooled and avg:
        return btanh_states_apc_avg(n)
    return btanh_states_apc_max(n)
