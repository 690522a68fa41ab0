"""SC activation functions: Stanh and Btanh (Sections 3.2, 4.3).

**Stanh** — the K-state FSM of Brown & Card implementing
``Stanh(K, x) ≈ tanh(K/2 · x)`` on a bipolar input stream.  The FSM steps
+1 on an input 1, -1 on an input 0, saturates at the ends, and outputs 1
in the right half of the state diagram.

**Shifted Stanh** (Figure 11) — the re-design for MUX-Max feature
extraction blocks: the output threshold sits at ``K/5`` instead of ``K/2``
to compensate the systematic under-counting of the hardware-oriented max
pooling block and the down-scaled inner products.

**Btanh** — for APC-based blocks, a saturated up/down counter consumes
the APC's *binary* column counts directly: at each cycle the counter adds
``2·count - n`` (the signed sum of the n product bits).  The state number
is chosen by equations (3) / the original design of ref (21), implemented
in :mod:`repro.core.state_numbers`.

Engines: :func:`stanh_packed` steps the FSM a *byte at a time* directly on
packed streams — a cached ``(state, byte) → (state', output byte)``
transition table collapses 8 FSM cycles into one gather, with no
unpack/pack round-trip (see DESIGN.md, "word-level engine").  The
bit-level paths (:func:`stanh_bits`, :func:`btanh_counts`) run the blocked
clamp-composition scan of :mod:`repro.sc.fsm`.  All three are bit-exact
equivalents of the per-cycle FSM.
"""

from __future__ import annotations

import functools

import numpy as np

import repro.native as native
from repro.sc import ops
from repro.sc.bitstream import Bitstream
from repro.sc.encoding import Encoding
from repro.sc.fsm import saturating_counter
from repro.utils.validation import check_positive_int, check_stream_length

__all__ = [
    "stanh_bits",
    "stanh",
    "stanh_packed",
    "btanh_counts",
    "btanh_stream",
    "stanh_expected",
]

#: Widest FSM the uint8 byte-transition tables can hold.
_MAX_LUT_STATES = 256


@functools.lru_cache(maxsize=128)
def _stanh_tables(n_states: int, threshold: int):
    """Byte-granular Stanh transition tables.

    Returns ``(next_state, out_byte)``, each ``(n_states, 256)`` uint8:
    running the ±1 saturating FSM through one input byte (big-endian bit
    order, threshold compared on each *updated* state — exactly
    :func:`repro.sc.fsm.saturating_counter` semantics).
    """
    states = np.arange(n_states, dtype=np.int16)[:, None]
    bytes_ = np.arange(256, dtype=np.uint16)[None, :]
    s = np.broadcast_to(states, (n_states, 256)).astype(np.int16).copy()
    out = np.zeros((n_states, 256), dtype=np.uint8)
    for bitpos in range(8):
        bit = ((bytes_ >> (7 - bitpos)) & 1).astype(np.int16)
        s += bit * 2 - 1
        np.clip(s, 0, n_states - 1, out=s)
        out |= ((s >= threshold).astype(np.uint8) << (7 - bitpos))
    return s.astype(np.uint8), out


def stanh_bits(bits: np.ndarray, n_states: int,
               threshold: int = None) -> np.ndarray:
    """Run Stanh over an unpacked bit array ``(..., T)``; returns bits."""
    inc = np.asarray(bits).astype(np.int8) * np.int8(2) - np.int8(1)
    return saturating_counter(inc, n_states, threshold=threshold)


def stanh_packed(data: np.ndarray, length: int, n_states: int,
                 threshold: int = None) -> np.ndarray:
    """Run Stanh over packed streams; returns packed streams.

    Steps the FSM one packed byte per gather through the cached
    :func:`_stanh_tables`; the output's padding bits are re-zeroed to
    keep the module invariant of :mod:`repro.sc.ops`.
    """
    length = check_stream_length(length)
    check_positive_int(n_states, "n_states")
    if threshold is None:
        threshold = n_states // 2
    data = np.asarray(data, dtype=np.uint8)
    if n_states > _MAX_LUT_STATES:   # huge-FSM fallback
        bits = ops.unpack_bits(data, length)
        return ops.pack_bits(stanh_bits(bits, n_states, threshold=threshold))
    nxt, outb = _stanh_tables(n_states, int(threshold))
    if native.enabled():
        # Native tier: the same byte-LUT walk, but the per-byte gather
        # loop runs compiled instead of one numpy dispatch per column.
        return native.stanh_lut(data, length, nxt, outb, n_states // 2)
    state = np.full(data.shape[:-1], n_states // 2, dtype=np.uint8)
    out = np.empty_like(data)
    for j in range(data.shape[-1]):
        col = data[..., j]
        out[..., j] = outb[state, col]
        state = nxt[state, col]
    if length % 8:
        out[..., -1] &= ops.pad_mask(length)[-1]
    return out


def stanh(stream: Bitstream, n_states: int,
          threshold: int = None) -> Bitstream:
    """Apply Stanh to a bipolar :class:`Bitstream`.

    ``Stanh(K, x) ≈ tanh(K/2 · x)`` for input value ``x`` in [-1, 1].

    Parameters
    ----------
    stream:
        Bipolar input stream(s).
    n_states:
        The FSM state count ``K`` (use the equations in
        :mod:`repro.core.state_numbers` to choose it).
    threshold:
        Output threshold state; ``None`` means the canonical ``K/2``
        (Figure 6), the MUX-Max re-design passes ``round(K/5)``
        (Figure 11).
    """
    if stream.encoding is not Encoding.BIPOLAR:
        raise ValueError("Stanh operates on bipolar streams")
    check_positive_int(n_states, "n_states")
    out = stanh_packed(stream.data, stream.length, n_states,
                       threshold=threshold)
    return Bitstream(out, stream.length, Encoding.BIPOLAR)


def btanh_counts(counts: np.ndarray, n_inputs: int, n_states: int,
                 threshold: int = None) -> np.ndarray:
    """Run Btanh over APC column counts.

    Parameters
    ----------
    counts:
        Integer array ``(..., T)`` with values in ``[0, n_inputs]`` — the
        APC output at each cycle (number of ones among the n product
        bits).
    n_inputs:
        APC input count ``n``; the counter increment is ``2·count - n``,
        i.e. the signed sum of the bipolar product bits.
    n_states:
        Counter state count ``K`` (equation (3) for APC-Avg blocks).
    threshold:
        Output threshold; defaults to ``K/2``.

    Returns
    -------
    Boolean bit array ``(..., T)`` — a bipolar stream approximating
    ``tanh`` of the (scaled) inner product.
    """
    check_positive_int(n_inputs, "n_inputs")
    counts = np.asarray(counts)
    if not np.issubdtype(counts.dtype, np.integer):
        raise ValueError(f"counts must be integers, got dtype {counts.dtype}")
    inc = 2 * counts.astype(np.int32) - np.int32(n_inputs)
    return saturating_counter(inc, n_states, threshold=threshold)


def btanh_stream(counts: np.ndarray, n_inputs: int, n_states: int,
                 threshold: int = None) -> Bitstream:
    """Btanh returning a packed bipolar :class:`Bitstream`."""
    bits = btanh_counts(counts, n_inputs, n_states, threshold=threshold)
    return Bitstream.from_bits(bits, Encoding.BIPOLAR)


def stanh_expected(x, n_states: int) -> np.ndarray:
    """The analytic Stanh transfer curve, ``tanh(K/2 · x)``.

    Used as the software reference when measuring the FSM's hardware
    inaccuracy (Table 5, Figure 9).
    """
    x = np.asarray(x, dtype=np.float64)
    return np.tanh(n_states / 2.0 * x)
