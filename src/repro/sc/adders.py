"""The four stochastic addition designs of Figure 5.

All functions take a packed batch of input streams with the *summand* axis
second-to-last: shape ``(..., n, nbytes)`` for ``n`` inputs, and reduce it.

1. :func:`or_add` — OR gate (Figure 5a).  Cheapest, badly lossy unless the
   inputs are pre-scaled to contain very few ones.
2. :func:`mux_add` — n-to-1 multiplexer (Figure 5b).  Outputs the sum
   scaled by ``1/n`` — one input bit survives per cycle.
3. :func:`parallel_counter` / :func:`apc_count` — parallel counters
   (Figure 5c).  Output a *binary* count per cycle.  The exact
   accumulative parallel counter (Parhami & Yeh, ref (33)) is the
   baseline; the approximate parallel counter (Kim et al., ref (20))
   drops the least-significant-bit adder chain, which we model
   structurally (see Notes).
4. Two-line representation (Figure 5d) lives in :mod:`repro.sc.twoline`.

Per-cycle counts are computed by moving the summand axis to the front
(so the reduction vectorizes over long contiguous cycle runs), unpacking
in stream-axis chunks bounded by :data:`CHUNK_BUDGET` bytes, and reducing
in uint8 — the full ``(..., n, L)`` bit tensor is never materialized when
it is larger than the budget (see DESIGN.md, "word-level engine").

Notes
-----
The APC of ref (20) replaces part of the LSB full-adder chain with
pass-through logic (the bottom input pair of Figure 7 skips the adder
tree), so the 16-input counter emits 4 output bits whose least significant
weight is 2¹ instead of 2⁰ (Section 4.1 of the paper).  We reproduce the
*behaviour*: the last input's contribution is dropped from the count's
LSB parity.  The resulting per-column error is ±1 with zero mean on
random SC streams, and its magnitude matches Table 3 (<1% relative error,
shrinking with input size and stream length) — which is the only
characterization the paper gives.
"""

from __future__ import annotations

import numpy as np

from repro.sc import ops
from repro.utils.validation import check_stream_length

__all__ = [
    "or_add",
    "mux_add",
    "parallel_counter",
    "apc_count",
    "apc_gate_equivalents",
]

#: Bound (bytes) on the unpacked bit tensor materialized at once while
#: counting columns on the NumPy tier; 64 MiB keeps the working set
#: cache-friendly without chunking the common microbench/layer shapes.
CHUNK_BUDGET = 1 << 26


def or_add(streams: np.ndarray) -> np.ndarray:
    """OR-gate addition: reduce the summand axis with bitwise OR.

    The result's ones-probability is ``P(any input is 1)``, which
    approximates the sum only when ones are sparse — hence the pre-scaling
    discussion around Table 1.
    """
    streams = np.asarray(streams, dtype=np.uint8)
    if streams.ndim < 2:
        raise ValueError("expected shape (..., n, nbytes)")
    return np.bitwise_or.reduce(streams, axis=-2)


def mux_add(streams: np.ndarray, select: np.ndarray,
            length: int) -> np.ndarray:
    """MUX addition: pick one input bit per cycle (scaled adder).

    The output stream's value is ``(1/n) Σ inputs``; the scaling factor is
    ``1/n`` in both unipolar and bipolar formats (Section 3.2).

    Parameters
    ----------
    streams:
        Packed array ``(..., n, nbytes)``.
    select:
        Select signal of shape ``(..., length)`` with values in ``[0, n)``
        (use :meth:`repro.sc.rng.StreamFactory.select_signal`).
    length:
        Stream length in bits.
    """
    return ops.mux_select(streams, select, length)


def _column_counts(streams: np.ndarray, length: int,
                   approximate: bool) -> np.ndarray:
    """Per-cycle ones counts ``(..., length)``, optionally APC-approximate.

    The summand axis is moved to the front so ``np.add.reduce`` runs over
    axis 0 with contiguous cycle runs, and the stream axis is unpacked in
    byte-aligned chunks whose unpacked size stays within
    :data:`CHUNK_BUDGET` bytes.  Counts accumulate in uint8 whenever
    ``n`` permits.
    """
    length = check_stream_length(length)
    streams = np.asarray(streams, dtype=np.uint8)
    if streams.ndim < 2:
        raise ValueError("expected shape (..., n, nbytes)")
    n = streams.shape[-2]
    nbytes = ops.packed_nbytes(length)
    if streams.shape[-1] < nbytes:
        raise ValueError(
            f"packed data last axis is {streams.shape[-1]} bytes but "
            f"length {length} requires {nbytes}"
        )
    front = np.ascontiguousarray(np.moveaxis(streams[..., :nbytes], -2, 0))
    batch = front.shape[1:-1]
    # The APC approximation can emit n + 1, so uint8 is safe up to n = 254.
    acc_dtype = np.uint8 if n <= 254 else np.int16
    rows = int(np.prod(batch, dtype=np.int64)) if batch else 1
    chunk_bytes = max(CHUNK_BUDGET // max(n * rows * 8, 1), 1)
    out = np.empty(batch + (length,), dtype=np.int16)
    for start in range(0, nbytes, chunk_bytes):
        stop = min(start + chunk_bytes, nbytes)
        block = front[..., start:stop]
        if not block.flags.c_contiguous:
            block = np.ascontiguousarray(block)
        bits = np.unpackbits(block, axis=-1)          # (n, ..., 8*(stop-start))
        counts = np.add.reduce(bits, axis=0, dtype=acc_dtype)
        if approximate:
            one = acc_dtype(1)
            counts = (counts & ~one) | ((counts ^ bits[-1]) & one)
        hi = min(8 * stop, length)
        out[..., 8 * start:hi] = counts[..., :hi - 8 * start]
    return out


def parallel_counter(streams: np.ndarray, length: int) -> np.ndarray:
    """Exact accumulative parallel counter: per-cycle ones counts.

    Returns an int16 array ``(..., length)`` where entry ``t`` is the
    number of input streams whose bit ``t`` is one.  This is the
    conventional (non-approximate) counter used as Table 3's baseline.
    """
    return _column_counts(streams, length, approximate=False)


def apc_count(streams: np.ndarray, length: int) -> np.ndarray:
    """Approximate parallel counter: per-cycle counts with LSB approximation.

    Behavioural model of the APC of ref (20) (see module Notes): the
    count's least-significant bit is computed without the last input's
    contribution (that pair bypasses the dropped adder chain), so each
    column deviates by ±1 from the exact count with zero mean on random
    streams.  Note the output range is consequently ``[0, n+1]``: an
    even exact count with a set approximate LSB overshoots by one, which
    the APC's binary output width accommodates.

    Returns an int16 array ``(..., length)``.
    """
    return _column_counts(streams, length, approximate=True)


def apc_gate_equivalents(n_inputs: int) -> dict:
    """Gate inventories of the approximate vs conventional parallel counter.

    Ref (20) reports the APC saves about 40% of the gates of an exact
    accumulative parallel counter; the cost model
    (:mod:`repro.hw.components`) consumes these counts.
    """
    if n_inputs < 2:
        raise ValueError("a parallel counter needs at least 2 inputs")
    # An exact n-input counter is a tree of full adders: n - ceil(log2 n) - 1
    # FAs plus the output register; we charge n FAs as the conventional
    # inventory (upper bound used consistently on both sides).
    exact_fa = max(n_inputs - 1, 1)
    approx_fa = max(int(round(exact_fa * 0.6)), 1)  # ~40% reduction
    return {"exact_full_adders": exact_fa, "approx_full_adders": approx_fa}
