"""Vectorized logic operations on packed bit-streams.

Bit-streams are stored packed, eight bits per byte (``numpy.uint8``), with
the stream axis last:  a batch of shape ``(..., L)`` bits is stored as
``(..., ceil(L/8))`` bytes.  Bit order within a byte is big-endian (numpy's
``packbits`` default), so bit ``t`` of a stream lives at
``byte[t // 8] >> (7 - t % 8)``.

All functions here operate on raw packed arrays; :class:`repro.sc.bitstream.
Bitstream` provides the user-facing wrapper.  Packing gives an 8x memory
reduction and lets AND/OR/XNOR run as single vectorized byte-wise ops,
which is what makes full bit-level simulation of LeNet-5 tractable (see
DESIGN.md, "bit-packing").

The hot reductions are *word-level*: packed bytes are re-viewed as
``uint64`` words (zero-padded to an 8-byte multiple when needed) and
counted with the hardware ``popcnt`` instruction via ``numpy.bitwise_count``
(NumPy >= 2.0).  No function in this module round-trips through
:func:`unpack_bits` any more — see DESIGN.md, "word-level engine".

Invariant: the padding bits of the final byte of every packed stream are
**zero**.  All constructors and every operation here maintain it (NOT and
XNOR re-apply :func:`pad_mask`), and the counting kernels rely on it.
:func:`padding_is_zero` checks it explicitly.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.utils.validation import check_stream_length

__all__ = [
    "packed_nbytes",
    "pad_mask",
    "padding_is_zero",
    "pack_bits",
    "unpack_bits",
    "popcount",
    "ROW_ALIGN",
    "transposed_width",
    "transpose_pack",
    "popcount_sum",
    "and_",
    "or_",
    "xor_",
    "xnor_",
    "not_",
    "mux_select",
    "segment_popcount",
]

def _as_words(data: np.ndarray) -> np.ndarray:
    """View packed bytes as uint64 words, zero-padding to an 8-byte multiple.

    Only the *count* of set bits is meaningful in word view (byte order
    within a word follows the platform, not the stream), which is all the
    word-level kernels need.
    """
    data = np.ascontiguousarray(data)
    pad = (-data.shape[-1]) % 8
    if pad:
        data = np.concatenate(
            [data, np.zeros(data.shape[:-1] + (pad,), dtype=np.uint8)],
            axis=-1,
        )
        data = np.ascontiguousarray(data)
    return data.view(np.uint64)


def packed_nbytes(length: int) -> int:
    """Bytes needed to store ``length`` bits."""
    length = check_stream_length(length)
    return (length + 7) // 8


@functools.lru_cache(maxsize=256)
def pad_mask(length: int) -> np.ndarray:
    """Per-byte mask that zeroes the padding bits of the final byte.

    Streams whose length is not a byte multiple carry unused trailing bits
    in their last byte; every operation that can set bits (NOT, XNOR)
    must re-apply this mask so popcounts stay correct.

    The result is cached per length (XNOR sits on the innermost multiply
    path) and returned read-only; copy before mutating.
    """
    nbytes = packed_nbytes(length)
    mask = np.full(nbytes, 0xFF, dtype=np.uint8)
    rem = length % 8
    if rem:
        mask[-1] = (0xFF << (8 - rem)) & 0xFF
    mask.flags.writeable = False
    return mask


def padding_is_zero(data: np.ndarray, length: int) -> bool:
    """Check the zero-padding invariant the counting kernels rely on."""
    length = check_stream_length(length)
    rem = length % 8
    if not rem:
        return True
    data = np.asarray(data)
    spill = np.uint8(0xFF >> rem)
    return not np.any(np.bitwise_and(data[..., -1], spill))


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a boolean/int array of bits (stream axis last) into bytes."""
    bits = np.asarray(bits)
    if bits.dtype not in (np.uint8, np.bool_):
        bits = bits.astype(np.uint8)
    return np.packbits(bits, axis=-1)


def unpack_bits(data: np.ndarray, length: int) -> np.ndarray:
    """Unpack bytes back into a uint8 bit array of exactly ``length`` bits."""
    length = check_stream_length(length)
    bits = np.unpackbits(np.ascontiguousarray(data), axis=-1)
    return bits[..., :length]


def popcount(data: np.ndarray, length: int | None = None) -> np.ndarray:
    """Count set bits along the stream axis.

    Relies on the module invariant that padding bits are zero (see the
    module docstring); under it the count over all stored bytes equals the
    count over the ``length`` valid bits.  When ``length`` is given the
    packed width is validated against it.  Counts run on uint64 words
    through ``numpy.bitwise_count``.
    """
    data = np.asarray(data)
    if length is not None:
        length = check_stream_length(length)
        nbytes = packed_nbytes(length)
        if data.shape[-1] != nbytes:
            raise ValueError(
                f"packed data last axis is {data.shape[-1]} bytes but "
                f"length {length} requires {nbytes}"
            )
    return np.bitwise_count(_as_words(data)).sum(axis=-1, dtype=np.int64)


#: byte multiple every transposed cycle row is zero-padded to
ROW_ALIGN = 4


def transposed_width(n: int) -> int:
    """Bytes ``W`` per cycle row of ``n`` transposed streams: ``ceil(n/8)``
    rounded up to :data:`ROW_ALIGN` (the layout of
    :func:`transpose_pack` and of the native counting banks)."""
    width = (n + 7) // 8
    return width + (-width) % ROW_ALIGN


def transpose_pack(data: np.ndarray, length: int,
                   chunk_budget: int | None = None) -> np.ndarray:
    """Re-pack cycle-major streams as cycle-indexed input-bit rows.

    ``data`` is a packed bank ``(..., n, nbytes)`` (n streams, stream
    axis last).  The result is ``(..., length, W)`` where row ``t`` holds
    the ``n`` streams' bits *at cycle t*, packed big-endian and
    zero-padded to ``W = transposed_width(n)`` bytes, a multiple of
    :data:`ROW_ALIGN` — so :func:`popcount_sum` can count whole rows in
    word view.

    This is the layout behind the engine's transposed counting strategy
    (DESIGN.md, "layer-graph engine"): a per-cycle sum across ``n``
    inputs becomes one row popcount of ``ceil(n/8)`` bytes instead of an
    8×-inflated unpack + reduce.  The transposition itself costs one
    unpack/pack round trip, amortized across every output channel that
    consumes the bank.

    ``chunk_budget`` bounds the transient *unpacked* bit array (8× the
    packed bank): batch entries are transposed in blocks so no more than
    roughly that many unpacked bytes exist at once.  The result is
    independent of the chunking.
    """
    length = check_stream_length(length)
    data = np.asarray(data, dtype=np.uint8)
    if data.ndim < 2:
        raise ValueError("expected shape (..., n, nbytes)")
    batch = data.shape[:-2]
    n = data.shape[-2]
    width = transposed_width(n)
    flat = data.reshape((-1,) + data.shape[-2:])
    rows = flat.shape[0]
    if chunk_budget is None:
        step = rows
    else:
        step = max(1, min(rows, int(chunk_budget) // max(n * length, 1)))
    out = np.zeros((rows, length, width), dtype=np.uint8)
    for r0 in range(0, rows, step):
        r1 = min(r0 + step, rows)
        bits = unpack_bits(flat[r0:r1], length)            # (r, n, L)
        out[r0:r1, :, :(n + 7) // 8] = np.packbits(
            np.swapaxes(bits, -1, -2), axis=-1)
    return out.reshape(batch + (length, width))


def popcount_sum(data: np.ndarray, dtype=np.int64) -> np.ndarray:
    """Count set bits over *all* bytes of the last axis.

    Unlike :func:`popcount` this never re-pads: it picks the widest word
    view the last axis already aligns to (uint64/uint32/uint16, falling
    back to bytes), so callers that pre-align — e.g. via
    :func:`transpose_pack` — pay no copy.  ``dtype`` sets the output and
    accumulator type; the default ``int64`` is safe for any width, while
    callers counting short rows (the engine counts ≤ 1024 inputs) pass
    ``int16`` to keep the result tensors small.
    """
    data = np.ascontiguousarray(data)
    word = next((word for word, width in ((np.uint64, 8), (np.uint32, 4),
                                          (np.uint16, 2))
                 if data.shape[-1] % width == 0), np.uint8)
    return np.bitwise_count(data.view(word)).sum(axis=-1, dtype=dtype)


def and_(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bitwise AND — the unipolar stochastic multiplier (Figure 4a)."""
    return np.bitwise_and(a, b)


def or_(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bitwise OR — the cheapest (and least accurate) adder (Figure 5a)."""
    return np.bitwise_or(a, b)


def xor_(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bitwise XOR."""
    return np.bitwise_xor(a, b)


def xnor_(a: np.ndarray, b: np.ndarray, length: int) -> np.ndarray:
    """Bitwise XNOR — the bipolar stochastic multiplier (Figure 4b).

    Padding bits are re-zeroed so downstream popcounts remain exact.
    """
    out = np.bitwise_not(np.bitwise_xor(a, b))
    return np.bitwise_and(out, pad_mask(length))


def not_(a: np.ndarray, length: int) -> np.ndarray:
    """Bitwise NOT with padding-bit correction."""
    return np.bitwise_and(np.bitwise_not(a), pad_mask(length))


def mux_select(streams: np.ndarray, select: np.ndarray, length: int) -> np.ndarray:
    """n-to-1 multiplexer: ``out[..., t] = streams[..., select[..., t], t]``.

    Parameters
    ----------
    streams:
        Packed array of shape ``(..., n, nbytes)``.
    select:
        Integer array ``(..., length)`` with values in ``[0, n)`` — the
        MUX select signal (one input chosen per clock cycle).  Leading
        axes broadcast against those of ``streams`` (never copied), so
        one call runs a select per row: per image, per pooling window.
    length:
        Bit-stream length.

    Returns
    -------
    Packed array of shape ``(broadcast leading axes..., nbytes)``.

    Notes
    -----
    The scaled adder of Figure 5(b): the output probability is the mean
    of the inputs', i.e. the sum scaled by ``1/n``.  One input bit passes
    per cycle, so the work is O(L) per output stream whatever ``n`` is:
    one ``take`` picks the packed byte holding each cycle's selected bit
    and one ``packbits`` keeps that bit, zeroing the padding.
    """
    length = check_stream_length(length)
    streams = np.asarray(streams)
    if streams.ndim < 2:
        raise ValueError("streams must have shape (..., n, nbytes)")
    select = np.asarray(select)
    if select.shape[-1:] != (length,):
        raise ValueError(
            f"select must have shape (..., {length}), got {select.shape}"
        )
    lead = streams.shape[:-2]
    np.broadcast_shapes(lead, select.shape[:-1])  # ValueError if not
    n = streams.shape[-2]
    if select.size and (select.min() < 0 or select.max() >= n):
        raise ValueError(f"select values must lie in [0, {n}), got "
                         f"[{select.min()}, {select.max()}]")
    cycle = np.arange(length)
    # flat byte holding input select[..., t]'s bit t, within one row
    index = np.multiply(select, streams.shape[-1], dtype=np.intp)
    index += cycle >> 3
    flat = streams.reshape(lead + (-1,))
    if index.ndim > 1:
        # per-row selects: offset by each leading row into one 1-D take
        rows = np.arange(flat[..., 0].size).reshape(lead) * flat.shape[-1]
        index = index + rows[..., None]
        flat = flat.reshape(-1)
    bit = np.uint8(0x80) >> (cycle & 7).astype(np.uint8)
    return np.packbits(flat.take(index, axis=-1) & bit, axis=-1)


def segment_popcount(data: np.ndarray, length: int, segment: int) -> np.ndarray:
    """Count set bits within consecutive ``segment``-bit slices.

    Used by the hardware-oriented max pooling block (Figure 8), whose
    counters tally ones per ``c``-bit segment.  ``segment`` must divide
    ``length``.

    Returns an int64 array of shape ``(..., length // segment)``.

    Byte-aligned segments (the hardware's ``c = 16``) reduce to per-byte
    word popcounts of a reshaped view.  Unaligned segments are handled by
    popcounting the prefix up to every segment boundary — cumulative
    per-byte counts plus a masked partial byte — and differencing, still
    with no ``unpack_bits``.
    """
    length = check_stream_length(length)
    if segment <= 0 or length % segment:
        raise ValueError(
            f"segment length {segment} must divide stream length {length}"
        )
    data = np.asarray(data)
    nseg = length // segment
    if segment % 8 == 0:
        # length is a byte multiple too, so the packed axis reshapes evenly;
        # a segment that spans one machine word popcounts in a single op.
        bps = segment // 8
        segs = np.ascontiguousarray(data).reshape(
            data.shape[:-1] + (nseg, bps))
        if bps in (1, 2, 4, 8):
            words = segs.view(np.dtype(f"uint{bps * 8}"))[..., 0]
            return np.bitwise_count(words).astype(np.int64)
        if bps % 8 == 0:
            words = segs.view(np.uint64)
            return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)
        return np.bitwise_count(segs).sum(axis=-1, dtype=np.int64)

    nbytes = data.shape[-1]
    counts = np.bitwise_count(data)
    cum = np.zeros(data.shape[:-1] + (nbytes + 1,), dtype=np.int64)
    np.cumsum(counts, axis=-1, out=cum[..., 1:])
    # Prefix popcount at every segment boundary: whole bytes below the
    # boundary, plus the leading bits of the straddled byte (stream bits
    # are the byte's high bits).
    pos = np.arange(1, nseg + 1, dtype=np.int64) * segment
    full, rem = pos // 8, pos % 8
    bound = cum[..., full]
    partial = rem > 0
    if partial.any():
        idx = full[partial]
        masks = ((0xFF00 >> rem[partial]) & 0xFF).astype(np.uint8)
        bound[..., partial] += np.bitwise_count(
            np.bitwise_and(data[..., idx], masks)
        )
    return np.diff(bound, axis=-1, prepend=0)
