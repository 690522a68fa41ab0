"""Conformance: the native kernel tier against the pure-NumPy oracle.

Arming the native tier must change **zero output bits** anywhere — these
tests assert bit-identity kernel by kernel (hypothesis properties biased
toward the awkward lengths: ``L % 8 != 0`` and ``L % 64 != 0``): the
Stanh walk, the pooled APC conv stage under both pool kinds and the APC
FC layer, each against the NumPy composition it replaces; then at the
whole-engine level (exact-backend logits with dispatch on vs off), and
finally that the capability layer degrades gracefully: a box with no
compiler imports fine and falls back to NumPy, ``REPRO_NATIVE=0``
disables the tier, and ``REPRO_NATIVE=1`` turns a silent fallback into a
loud import error.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.native as native
from repro.blocks.pooling import apc_average_pool, apc_max_pool
from repro.core.config import PoolKind
from repro.engine.exact import channel_minor_order, numpy_apc_counts
from repro.native import build as native_build
from repro.sc import activation, ops

needs_native = pytest.mark.skipif(not native.available(),
                                  reason="native kernel tier not built")

# Lengths biased toward the hard cases: L % 8 != 0 and L % 64 != 0.
lengths = st.one_of(
    st.integers(min_value=1, max_value=200),
    st.sampled_from([63, 65, 100, 127, 129, 191, 255, 257, 1023]),
)
batch_shapes = st.sampled_from([(), (1,), (3,), (2, 3)])


def random_bits(data, shape, length):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    return (rng.random(shape + (length,)) < 0.5)


# ----------------------------------------------------------------------
# kernel-level bit-identity (native output vs pure-NumPy oracle)
# ----------------------------------------------------------------------

@needs_native
@settings(max_examples=40, deadline=None)
@given(data=st.data(), length=lengths, shape=batch_shapes,
       n_states=st.integers(min_value=2, max_value=64))
def test_stanh_packed_bit_identical(data, length, shape, n_states):
    packed = ops.pack_bits(random_bits(data, shape, length))
    threshold = data.draw(st.one_of(
        st.none(), st.integers(min_value=1, max_value=n_states)))
    with native.override(True):
        got = activation.stanh_packed(packed, length, n_states,
                                      threshold=threshold)
    with native.override(False):
        ref = activation.stanh_packed(packed, length, n_states,
                                      threshold=threshold)
    np.testing.assert_array_equal(got, ref)
    assert ops.padding_is_zero(got, length)


# Input counts reaching every counting layout of the native kernels:
# rows of width W = 4 (n <= 32), word-major W = 8 (33-64) and W >= 16
# (97-128, 225-256: the last input's byte in word 1 or 3), and the
# bytewise W = 12 (65-96) and W = 20 (129-160).
input_counts = st.one_of(
    st.integers(min_value=1, max_value=32),
    st.integers(min_value=33, max_value=64),
    st.integers(min_value=65, max_value=96),
    st.integers(min_value=97, max_value=128),
    st.integers(min_value=129, max_value=160),
    st.integers(min_value=225, max_value=256),
)


def _oracle_counts(x, w, n, length):
    """The exact backend's NumPy counting path (the oracle) on packed
    banks ``x (R, n, nb)`` and ``w (C, n, nb)``."""
    wT = ops.transpose_pack(w, length)
    w_last = ops.unpack_bits(w[:, -1, :], length)
    return numpy_apc_counts(x, wT, w_last, n, length)


def _conv_stage_numpy(x, table, w, windows, length, pool, segment,
                      n_states, order=None):
    """The exact backend's NumPy pooled APC conv stage: gather, count,
    ``apc_max_pool`` or ``apc_average_pool``, ``btanh_counts``,
    ``pack_bits``, image-major — plus the native
    :class:`~repro.native.ConvBank` of ``w`` gathering through ``table``
    in image ``order`` (default: the rows' own order)."""
    B, S, nb = x.shape
    (P, n), C = table.shape, w.shape[0]
    counts = _oracle_counts(x[:, table].reshape(B * P, n, nb), w, n, length)
    grouped = counts.reshape(C, B, P, length)[:, :, windows]
    if pool is PoolKind.AVG:
        pooled = apc_average_pool(grouped)
    else:
        pooled = apc_max_pool(grouped, segment)
    out = ops.pack_bits(activation.btanh_counts(pooled, n, n_states))
    order = np.arange(S) if order is None else order
    return (out.transpose(1, 0, 2, 3),
            native.conv_bank(w, length, table, order))


pools = st.sampled_from([PoolKind.MAX, PoolKind.AVG])


@needs_native
@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       segment=st.sampled_from([4, 8, 12, 16, 32]),
       n_segments=st.integers(min_value=1, max_value=5),
       n=st.one_of(input_counts, st.sampled_from([500, 501])),
       n_states=st.one_of(st.sampled_from([1, 2, 3, 52, 1002]),
                          st.integers(min_value=0, max_value=40).map(
                              lambda k: 2 * k + 1)),
       batch=st.integers(min_value=1, max_value=3),
       channels=st.one_of(st.integers(min_value=1, max_value=4),
                          st.sampled_from([15, 16, 17, 33, 50])),
       n_windows=st.integers(min_value=1, max_value=4),
       inputs=st.sampled_from(["random", "sparse", "equal"]),
       pool=pools)
def test_apc_conv_pool_btanh_pack_bit_identical(data, segment, n_segments,
                                                n, n_states, batch,
                                                channels, n_windows,
                                                inputs, pool):
    """The fused conv stage against the NumPy composition under both
    pool kinds, over both lane-bank word sizes and every row width,
    channel counts within one lane group and across several (15, 16, 17,
    33, 50), lengths whose last byte is zero-padded (e.g. 12 × 3),
    mostly-zero inputs (the image transpose's zero-block skip), all-equal
    patches that tie every window's candidates, and the rows' own or a
    shuffled image order."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    length = segment * n_segments
    S = int(rng.integers(1, 2 * n + 2))
    P = 4 * n_windows + int(rng.integers(0, 3))
    bits = rng.random((batch, S, length)) < 0.5
    if inputs == "sparse":
        bits &= rng.random((batch, S, 1)) < 0.2
    x = ops.pack_bits(bits)
    table = rng.integers(0, S, size=(P, n))
    if inputs == "equal":
        table[:] = table[0]
    w = ops.pack_bits(rng.random((channels, n, length)) < 0.5)
    windows = rng.integers(0, P, size=(n_windows, 4))
    order = rng.permutation(S) if data.draw(st.booleans()) else None
    ref, bank = _conv_stage_numpy(x, table, w, windows, length, pool,
                                  segment, n_states, order)
    got = native.apc_conv_pool_btanh_pack(x, bank, windows, pool, segment,
                                          n_states)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    np.testing.assert_array_equal(got, ref)
    assert ops.padding_is_zero(got, length)


def _conv_geometry(channels_in, in_h, in_w, kernel):
    """A conv layer's biased patch table ``(P, n)``, its 2×2 pool
    windows and the exact backend's channel-minor image order."""
    from repro.engine.plan import conv_patch_index, pool_window_indices

    rows = channels_in * in_h * in_w
    index = conv_patch_index(channels_in, in_h, in_w, kernel)
    table = np.concatenate([index, np.full((len(index), 1), rows)], axis=1)
    windows = pool_window_indices((in_h - kernel + 1) // 2,
                                  (in_w - kernel + 1) // 2)
    return table, windows, channel_minor_order(channels_in, in_h, in_w)


#: (input channels, height, width, kernel, output channels, K): LeNet-5
#: layers 0 and 1, lenet_s layers 0 and 1, and a 3-channel odd-sized input
_CONV_GEOMETRIES = {
    "lenet5-layer0": (1, 28, 28, 5, 20, 52),
    "lenet5-layer1": (20, 12, 12, 5, 50, 1002),
    "lenet_s-layer0": (1, 28, 28, 5, 8, 52),
    "lenet_s-layer1": (8, 12, 12, 5, 16, 402),
    "3ch-13x11": (3, 13, 11, 5, 5, 77),
}


@needs_native
@pytest.mark.parametrize("geometry", sorted(_CONV_GEOMETRIES))
@pytest.mark.parametrize("inputs", ["random", "background"])
@pytest.mark.parametrize("pool", [PoolKind.MAX, PoolKind.AVG],
                         ids=["max", "avg"])
def test_apc_conv_pool_btanh_pack_conv_geometries(geometry, inputs, pool):
    """The fused conv stage over real conv patch tables in the exact
    backend's channel-minor image order — where runs of ``k·C`` inputs
    merge and cross word boundaries — against the NumPy composition
    under both pool kinds, on random inputs and on a mostly all-zero
    (image background) batch."""
    cin, h, w_, kernel, channels, n_states = _CONV_GEOMETRIES[geometry]
    table, windows, order = _conv_geometry(cin, h, w_, kernel)
    rng = np.random.default_rng(cin * h * w_)
    length, S = 64, table.max() + 1
    bits = rng.random((2, S, length)) < 0.5
    if inputs == "background":
        bits &= rng.random((2, S, 1)) < 0.05
    x = ops.pack_bits(bits)
    w = ops.pack_bits(rng.random((channels, table.shape[1], length)) < 0.5)
    ref, bank = _conv_stage_numpy(x, table, w, windows, length, pool, 16,
                                  n_states, order)
    np.testing.assert_array_equal(native.apc_conv_pool_btanh_pack(
        x, bank, windows, pool, 16, n_states), ref)


@needs_native
@pytest.mark.parametrize("geometry,runs", [
    ("lenet5-layer0", [5] * 5 + [1]),
    ("lenet5-layer1", [100] * 5 + [1]),
    ("lenet_s-layer1", [40] * 5 + [1]),
    ("3ch-13x11", [15] * 5 + [1]),
])
def test_conv_bank_merges_patch_rows_into_runs(geometry, runs):
    """In channel-minor image order a patch row's ``k·C`` inputs are
    consecutive at every conv position, so each row is one run; the
    bias input stays last, a run of its own."""
    cin, h, w_, kernel, channels, _ = _CONV_GEOMETRIES[geometry]
    table, _, order = _conv_geometry(cin, h, w_, kernel)
    w = np.zeros((channels, table.shape[1], 8), np.uint8)
    bank = native.conv_bank(w, 64, table, order)
    assert bank.runs.tolist() == runs
    assert bank.sources.shape == (table.shape[0], len(runs))
    assert (bank.sources[:, -1] == table.max()).all()


@needs_native
@pytest.mark.parametrize("seed", range(6))
def test_apc_conv_pool_btanh_pack_any_table(seed):
    """Any table gives a correct plan: random tables with repeated
    sources, a last column that is not the highest source (the APC LSB
    patch must still read the table's last column), and a shuffled
    image order, over both lane-word sizes and (by seed) both pool
    kinds."""
    rng = np.random.default_rng(seed)
    n = int(rng.choice([3, 26, 40, 70, 130, 501]))
    S = int(rng.integers(2, 2 * n))
    P, length, channels = 9, 48, int(rng.integers(1, 20))
    table = rng.integers(0, S, size=(P, n))
    table[:, :-1] = np.maximum(table[:, :-1], 1)
    table[:, -1] = 0                     # the lowest source, last
    table[:, 1] = table[:, 0]            # a repeated source
    order = rng.permutation(S) if seed % 2 else np.arange(S)
    x = ops.pack_bits(rng.random((2, S, length)) < 0.5)
    w = ops.pack_bits(rng.random((channels, n, length)) < 0.5)
    windows = rng.integers(0, P, size=(3, 4))
    pool = (PoolKind.MAX, PoolKind.AVG)[seed // 2 % 2]
    ref, bank = _conv_stage_numpy(x, table, w, windows, length, pool, 16,
                                  41, order)
    assert int(bank.runs.sum()) == n
    np.testing.assert_array_equal(native.apc_conv_pool_btanh_pack(
        x, bank, windows, pool, 16, 41), ref)


@needs_native
def test_apc_conv_pool_btanh_pack_never_overflows_its_lanes():
    """The Btanh state reaches ``hi + n`` and a max-pool total ``n·L``.
    At ``n_states`` up to ``2**63 - 1`` neither clamp can bind within L
    cycles, so under either pool kind the bits must equal those of the
    smallest such ``n_states``, ``2·n·L + 3`` (where the NumPy oracle is
    exact); a segment longer than 65 536 cycles crosses the int32
    partial sums that feed the int64 totals."""
    rng = np.random.default_rng(11)
    n, channels = 26, 17
    x = ops.pack_bits(rng.random((1, 40, 24)) < 0.5)
    table = rng.integers(0, 40, size=(8, n))
    w = ops.pack_bits(rng.random((channels, n, 24)) < 0.5)
    windows = np.arange(8).reshape(2, 4)
    for pool in (PoolKind.MAX, PoolKind.AVG):
        ref, bank = _conv_stage_numpy(x, table, w, windows, 24, pool, 8,
                                      2 * n * 24 + 3)
        for n_states in (2**62 + 1, 2**63 - 1):
            got = native.apc_conv_pool_btanh_pack(x, bank, windows, pool,
                                                  8, n_states)
            np.testing.assert_array_equal(got, ref)
    segment = 65_544
    x = ops.pack_bits(rng.random((1, 6, 2 * segment)) < 0.5)
    table = rng.integers(0, 6, size=(4, 3))
    w = ops.pack_bits(rng.random((channels, 3, 2 * segment)) < 0.5)
    windows = np.arange(4).reshape(1, 4)
    ref, bank = _conv_stage_numpy(x, table, w, windows, 2 * segment,
                                  PoolKind.MAX, segment, 5)
    np.testing.assert_array_equal(native.apc_conv_pool_btanh_pack(
        x, bank, windows, PoolKind.MAX, segment, 5), ref)


#: a zero 2-channel bank of n = 3 (W = 4) at L = 16, built without C
_BANK = native.WeightBank(np.zeros((2, 16 * 4), np.uint8), 3, 16)

#: the same bank laid out for the conv stage: one uint32 word per cycle,
#: two channels padded to one lane group, gathering one run of 3 inputs
#: from 5 rows at 4 conv positions
_PLAN = dict(image=np.arange(5), runs=np.array([3]),
             sources=np.zeros((4, 1), np.int64))
_CONV_BANK = native.ConvBank(np.zeros((1, 16, native.LANES), np.uint32), 3,
                             2, **_PLAN)


#: a row-major (C, L, W) bank where a laid-out one belongs
_ROW_MAJOR = np.zeros((2, 16, 4), np.uint8)


def _bad_conv_stage_args(**bad):
    args = dict(x=np.zeros((1, 5, 2), np.uint8), bank=_CONV_BANK,
                windows=np.zeros((1, 4), int), pool=PoolKind.MAX,
                segment=16, n_states=6)
    args.update(bad)
    return args


@pytest.mark.parametrize("bad,match", [
    (dict(x=np.zeros((1, 5, 2), np.int16)), "uint8 x"),
    (dict(x=np.zeros((5, 2), np.uint8)), "uint8 x"),
    (dict(x=np.zeros((1, 6, 2), np.uint8)), "bank mismatch"),
    (dict(x=np.zeros((1, 5, 3), np.uint8)), "bank mismatch"),
    (dict(windows=np.zeros(4, int)), "windows"),
    (dict(windows=np.zeros((1, 3), int)), "windows"),
    (dict(windows=np.zeros((1, 4), float)), "windows"),
    (dict(windows=np.array([[0, 1, 2, 4]])), r"windows index outside \[0, 4\)"),
    (dict(windows=np.array([[0, -1, 2, 3]])), r"windows index outside \[0, 4\)"),
    (dict(windows=np.zeros((1, 3), int), pool=PoolKind.AVG), "windows"),
    (dict(segment=12), "multiple of segment 12"),
    (dict(segment=0), "segment"),
    (dict(n_states=0), "n_states"),
    (dict(n_states=0, pool=PoolKind.AVG), "n_states"),
])
def test_apc_conv_pool_btanh_pack_rejects_before_c(bad, match, monkeypatch):
    """Bad arguments raise ``ValueError`` in the wrapper; with the
    library handle removed, reaching C would be an AttributeError."""
    monkeypatch.setattr(native, "_lib", None)
    with pytest.raises(ValueError, match=match):
        native.apc_conv_pool_btanh_pack(**_bad_conv_stage_args(**bad))


def test_apc_conv_pool_btanh_pack_pool_kind(monkeypatch):
    """The pool kind is the plan's ``PoolKind``, required; average
    pooling reads no segment, so one the stream length cannot carry
    passes the wrapper (and, with the library handle removed, reaches
    C as an AttributeError)."""
    monkeypatch.setattr(native, "_lib", None)
    for pool in ("max", None, 1):
        with pytest.raises(TypeError, match="PoolKind"):
            native.apc_conv_pool_btanh_pack(
                **_bad_conv_stage_args(pool=pool))
    for segment in (12, 0):
        with pytest.raises(AttributeError):
            native.apc_conv_pool_btanh_pack(**_bad_conv_stage_args(
                pool=PoolKind.AVG, segment=segment))


@pytest.mark.parametrize("bad,match", [
    (dict(table=np.zeros((4, 3), float)), "table"),
    (dict(table=np.zeros(3, int)), "table"),
    (dict(table=np.zeros((0, 3), int)), "no conv position"),
    (dict(table=np.zeros((4, 40), int)), r"table \(rows, 3\)"),
    (dict(table=np.array([[0, 1, 5]] * 4)), r"table index outside \[0, 5\)"),
    (dict(table=np.array([[0, -1, 2]] * 4)), r"table index outside \[0, 5\)"),
    (dict(order=np.array([0, 1, 2, 3, 3])), "permutation"),
    (dict(order=np.arange(5.0)), "permutation"),
    (dict(order=np.arange(5).reshape(1, 5)), "permutation"),
])
def test_conv_bank_rejects_before_c(bad, match, monkeypatch):
    """The gather plan's table and image order are checked when the
    bank is built: a wrong ``n`` or an index outside the ``S`` input
    rows never reaches C."""
    monkeypatch.setattr(native, "_lib", None)
    args = dict(w=np.zeros((2, 3, 2), np.uint8), length=16,
                table=np.zeros((4, 3), int), order=np.arange(5))
    args.update(bad)
    with pytest.raises(ValueError, match=match):
        native.conv_bank(**args)


# FC input counts: every counting layout of input_counts and the wide
# word-major rows up to LeNet-5 fc1's n = 801 (W = 104).
fc_input_counts = st.one_of(
    input_counts,
    st.integers(min_value=257, max_value=801),
    st.sampled_from([500, 501, 801]),
)


def _fc_numpy(x, w, n, length, n_states):
    """The exact backend's NumPy FC composition: counts, ``btanh_counts``,
    ``pack_bits``, image-major — and the output layer's count sums —
    plus the native :class:`~repro.native.WeightBank` of ``w``."""
    counts = _oracle_counts(x, w, n, length)
    bits = ops.pack_bits(activation.btanh_counts(counts, n, n_states))
    sums = counts.sum(axis=-1, dtype=np.int64).T
    return bits.transpose(1, 0, 2), sums, native.weight_bank(w, length)


@needs_native
@settings(max_examples=100, deadline=None)
@given(data=st.data(), length=lengths, n=fc_input_counts,
       n_states=st.one_of(st.sampled_from([1, 2, 1002]),
                          st.integers(min_value=0, max_value=40).map(
                              lambda k: 2 * k + 1)),
       rows=st.integers(min_value=1, max_value=6),
       channels=st.integers(min_value=1, max_value=4))
def test_apc_fc_btanh_pack_bit_identical(data, length, n, n_states, rows,
                                         channels):
    """The fused FC layer and the output layer's sums against the NumPy
    composition, over every counting layout of ``count_cycles`` —
    ``W`` = 4, 8, 12, 16, 20 and 32 for ``n`` up to 256, the last input
    (the APC LSB patch) in word 0, 1 or 3, and wider word-major rows —
    and ``L % 8 != 0``.  The FC kernel is the only caller of
    ``count_cycles``, so this pins the per-cycle counts of every
    layout."""
    x = ops.pack_bits(random_bits(data, (rows, n), length))
    w = ops.pack_bits(random_bits(data, (channels, n), length))
    ref_bits, ref_sums, bank = _fc_numpy(x, w, n, length, n_states)
    got = native.apc_fc_btanh_pack(x, bank, n_states)
    assert got.dtype == ref_bits.dtype and got.shape == ref_bits.shape
    np.testing.assert_array_equal(got, ref_bits)
    assert ops.padding_is_zero(got, length)
    sums = native.apc_fc_sums(x, bank)
    assert sums.dtype == np.int64
    np.testing.assert_array_equal(sums, ref_sums)


@needs_native
@pytest.mark.parametrize("rows", [4, 9, 13])
def test_apc_fc_btanh_pack_partial_tiles(rows):
    """n = 801 at L = 1023 puts 4 rows in a 512 KiB tile: a full tile,
    then one part-filled, exercise the tile loop's tail."""
    rng = np.random.default_rng(rows)
    n, length = 801, 1023
    x = ops.pack_bits(rng.random((rows, n, length)) < 0.5)
    w = ops.pack_bits(rng.random((3, n, length)) < 0.5)
    ref_bits, ref_sums, bank = _fc_numpy(x, w, n, length, 1002)
    np.testing.assert_array_equal(native.apc_fc_btanh_pack(x, bank, 1002),
                                  ref_bits)
    np.testing.assert_array_equal(native.apc_fc_sums(x, bank), ref_sums)


@pytest.mark.parametrize("bad,match", [
    (dict(x=np.zeros((2, 3, 2), np.int16)), "uint8 x"),
    (dict(x=np.zeros((3, 2), np.uint8)), "uint8 x"),
    (dict(x=np.zeros((2, 4, 2), np.uint8)), "bank mismatch"),
    (dict(x=np.zeros((2, 3, 3), np.uint8)), "bank mismatch"),
    (dict(n_states=0), "n_states"),
])
def test_apc_fc_btanh_pack_rejects_before_c(bad, match, monkeypatch):
    monkeypatch.setattr(native, "_lib", None)
    args = dict(x=np.zeros((2, 3, 2), np.uint8), bank=_BANK, n_states=6)
    args.update(bad)
    with pytest.raises(ValueError, match=match):
        native.apc_fc_btanh_pack(**args)
    if "n_states" not in bad:
        del args["n_states"]
        with pytest.raises(ValueError, match=match):
            native.apc_fc_sums(**args)


_KERNEL_BANKS = [
    (lambda bank: native.apc_fc_btanh_pack(np.zeros((2, 3, 2), np.uint8),
                                           bank, 6), "WeightBank", _CONV_BANK),
    (lambda bank: native.apc_fc_sums(np.zeros((2, 3, 2), np.uint8), bank),
     "WeightBank", _CONV_BANK),
    (lambda bank: native.apc_conv_pool_btanh_pack(
        **_bad_conv_stage_args(bank=bank)), "ConvBank", _BANK),
]
_KERNEL_IDS = ["fc_btanh_pack", "fc_sums", "conv_pool_btanh_pack"]


@pytest.mark.parametrize("call,kind,other", _KERNEL_BANKS, ids=_KERNEL_IDS)
def test_counting_kernels_reject_row_major_bank(call, kind, other,
                                                monkeypatch):
    """Every counting kernel reads a bank laid out for it — the conv
    stage a ``conv_bank``, the others a ``weight_bank``; the row-major
    ``transpose_pack`` bank and the other kernels' layout are refused by
    type, before C."""
    monkeypatch.setattr(native, "_lib", None)
    for bank in (_ROW_MAJOR, other):
        with pytest.raises(TypeError, match=kind):
            call(bank)


@pytest.mark.parametrize("data,n,length", [
    (np.zeros((2, 64), np.uint8), 3, 17),          # sized for L = 16
    (np.zeros((2, 64), np.uint8), 40, 16),         # sized for W = 4
    (np.zeros((2, 64), np.int16), 3, 16),
    (np.zeros((2, 16, 4), np.uint8), 3, 16),       # row-major shape
    (np.zeros((2, 128), np.uint8)[:, ::2], 3, 16),  # not contiguous
    (np.zeros((2, 0), np.uint8), 0, 16),
])
def test_weight_bank_type_checks_its_sizes(data, n, length):
    """A hand-made bank must carry exactly the bytes the kernels read."""
    with pytest.raises(ValueError, match="not a laid-out bank"):
        native.WeightBank(data, n, length)


@pytest.mark.parametrize("data,n,channels", [
    (np.zeros((1, 16, 16), np.uint32), 3, 0),          # no channel
    (np.zeros((1, 16, 16), np.uint32), 3, 17),         # Cp is 32
    (np.zeros((1, 16, 32), np.uint32), 3, 16),         # Cp is 16
    (np.zeros((1, 16, 16), np.uint64), 3, 2),          # W = 4: uint32
    (np.zeros((1, 16, 16), np.uint32), 40, 2),         # W = 8: uint64
    (np.zeros((2, 16, 16), np.uint64), 40, 2),         # W = 8: 1 word
    (np.zeros((2, 16, 16), np.uint32), 3, 2),          # W = 4: 1 word
    (np.zeros((1, 0, 16), np.uint32), 3, 2),           # L = 0
    (np.zeros((16, 16), np.uint32), 3, 2),             # not (words, L, Cp)
    (np.zeros((1, 16, 32), np.uint32)[:, :, ::2], 3, 2),  # not contiguous
    (np.zeros((1, 16, 16), np.uint32), 0, 2),
])
def test_conv_bank_type_checks_its_sizes(data, n, channels):
    """A hand-made conv lane bank must carry exactly the words, cycles
    and padded channels the conv kernel reads."""
    with pytest.raises(ValueError, match="not a conv lane bank"):
        native.ConvBank(data, n, channels, **_PLAN)


@pytest.mark.parametrize("plan", [
    dict(image=np.array([0, 1, 2, 3, 3])),             # not a permutation
    dict(image=np.arange(5, dtype=np.int32)),          # not int64
    dict(image=np.arange(0)),                          # no row
    dict(runs=np.array([2])),                          # sums to 2, not n
    dict(runs=np.array([3, 0]),
         sources=np.zeros((4, 2), np.int64)),          # an empty run
    dict(runs=np.array([2, 1])),                       # sources (P, 1)
    dict(sources=np.full((4, 1), 3, np.int64)),        # reads row 5
    dict(sources=np.full((4, 1), -1, np.int64)),
    dict(sources=np.zeros((0, 1), np.int64)),          # no conv position
    dict(sources=np.zeros((4, 2), np.int64)[:, ::2]),  # not contiguous
])
def test_conv_bank_type_checks_its_plan(plan):
    """A hand-made gather plan must keep every run inside the image:
    the kernel reads ``runs[r]`` positions from each source."""
    with pytest.raises(ValueError, match="not a gather plan"):
        native.ConvBank(np.zeros((1, 16, 16), np.uint32), 3, 2,
                        **{**_PLAN, **plan})


def _plain_conv_bank(w, length):
    """``conv_bank`` over one conv position reading every row in order:
    the tile order is the weights' own."""
    n = np.shape(w)[1] if np.ndim(w) == 3 else 1
    return native.conv_bank(w, length, np.arange(n)[None], np.arange(n))


@pytest.mark.parametrize("make", [native.weight_bank, _plain_conv_bank],
                         ids=["weight_bank", "conv_bank"])
@pytest.mark.parametrize("w,length,match", [
    (np.zeros((2, 3, 2), np.int16), 16, "uint8 weight bank"),
    (np.zeros((3, 2), np.uint8), 16, "uint8 weight bank"),
    (np.zeros((0, 3, 2), np.uint8), 16, "uint8 weight bank"),
    (np.zeros((2, 0, 2), np.uint8), 16, "uint8 weight bank"),
    (np.zeros((2, 3, 2), np.uint8), 17, "does not carry length 17"),
    (np.zeros((2, 3, 2), np.uint8), 0, "length"),
])
def test_weight_bank_rejects_before_c(make, w, length, match, monkeypatch):
    monkeypatch.setattr(native, "_lib", None)
    with pytest.raises(ValueError, match=match):
        make(w, length)


@needs_native
@pytest.mark.parametrize("n,channels,word", [
    (3, 2, np.uint32), (26, 20, np.uint32), (40, 16, np.uint64),
    (80, 17, np.uint32), (100, 33, np.uint64), (501, 50, np.uint64),
])
def test_conv_bank_layout(n, channels, word):
    """``conv_bank`` stores word k of channel c's transposed cycle row t
    at ``[k, t, c]``, MSB first (tile input i of a word at its bit
    ``bits - 1 - i``), inputs in the plan's tile order, the padding
    channels zero."""
    rng = np.random.default_rng(n)
    length = 21
    w = ops.pack_bits(rng.random((channels, n, length)) < 0.5)
    # One conv position reading the rows backwards, the last input last:
    # the tile order reverses all inputs but the last.
    table = np.append(np.arange(n - 1)[::-1], n - 1)[None]
    bank = native.conv_bank(w, length, table, np.arange(n))
    perm = np.append(np.arange(n - 1)[::-1], n - 1)
    rows = ops.transpose_pack(w[:, perm], length)      # (C, L, W) bytes
    words = rows.view(np.dtype(word).newbyteorder(">")).astype(word)
    assert bank.data.dtype == word and not bank.data.flags.writeable
    assert bank.data.shape == (words.shape[2], length,
                               -(-channels // native.LANES) * native.LANES)
    np.testing.assert_array_equal(bank.data[:, :, :channels],
                                  words.transpose(2, 1, 0))
    assert not bank.data[:, :, channels:].any()


# ----------------------------------------------------------------------
# engine-level: arming the tier changes zero output bits
# ----------------------------------------------------------------------

def _assert_logits_tier_invariant(kinds, pooling, length, **backend_opts):
    from repro.core.config import NetworkConfig
    from repro.engine.exact import ExactBackend
    from repro.engine.plan import compile_plan
    from repro.nn.zoo import build_lenet5

    model = build_lenet5("max" if pooling == "MAX" else "avg", seed=0)
    cfg = NetworkConfig.from_kinds(PoolKind[pooling], length, kinds)
    plan = compile_plan(model, cfg)
    imgs = np.random.default_rng(5).uniform(-1, 1, size=(2, 784))
    with native.override(False):
        ref = ExactBackend(plan, seed=3, **backend_opts).forward(imgs)
    with native.override(True):
        got = ExactBackend(plan, seed=3, **backend_opts).forward(imgs)
    np.testing.assert_array_equal(got, ref)


@needs_native
@pytest.mark.parametrize("kinds,pooling,length", [
    # lengths chosen with L % 64 != 0 (MAX needs a multiple of the
    # hardware pooling segment, 16)
    (("APC", "MUX", "APC"), "MAX", 144),
    (("MUX", "APC", "APC"), "AVG", 136),
    # both conv stages through the fused conv kernel (layer 1 at
    # K = 1002), under each pool kind
    (("APC", "APC", "APC"), "MAX", 144),
    (("APC", "APC", "APC"), "AVG", 72),
])
def test_exact_backend_logits_bit_identical(kinds, pooling, length):
    _assert_logits_tier_invariant(kinds, pooling, length)


@needs_native
def test_exact_backend_logits_bit_identical_segment_12():
    """A non-default segment whose length leaves a zero-padded last byte
    (L = 36) through the fused kernel."""
    _assert_logits_tier_invariant(("APC", "APC", "APC"), "MAX", 36,
                                  segment=12)


# ----------------------------------------------------------------------
# capability layer: fallback, REPRO_NATIVE=0/1
# ----------------------------------------------------------------------

def _run_subprocess(code: str, tmp_path, **env_overrides):
    """Run ``code`` in a fresh interpreter with a clean native cache."""
    src = str(Path(ops.__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env["REPRO_NATIVE_CACHE"] = str(tmp_path / "native-cache")
    env.pop("REPRO_NATIVE", None)
    env.pop("REPRO_NATIVE_CC", None)
    env.update(env_overrides)
    return subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env,
                          timeout=180)


_prebuilt_in_package = (
    native_build.SOURCE.parent / native_build.lib_name()).exists()


@pytest.mark.skipif(_prebuilt_in_package,
                    reason="prebuilt library next to kernels.c shadows "
                           "the no-compiler scenario")
def test_import_works_with_no_compiler(tmp_path):
    """A box with no toolchain must import and compute on pure NumPy."""
    proc = _run_subprocess(
        "import numpy as np\n"
        "import repro.native as native\n"
        "assert not native.available(), native.status()\n"
        "status = native.status()\n"
        "assert status['reason'], status\n"
        "from repro.sc import activation, ops\n"
        "packed = ops.pack_bits(np.ones((4, 100), dtype=np.uint8))\n"
        "out = activation.stanh_packed(packed, 100, 8)\n"
        "assert ops.popcount(out, 100).tolist() == [100] * 4\n"
        "print('fallback ok:', status['reason'])\n",
        tmp_path, REPRO_NATIVE_CC=str(tmp_path / "no-such-cc"))
    assert proc.returncode == 0, proc.stderr
    assert "fallback ok:" in proc.stdout


def test_repro_native_0_disables_tier(tmp_path):
    proc = _run_subprocess(
        "import numpy as np\n"
        "import repro.native as native\n"
        "assert not native.available()\n"
        "assert not native.enabled()\n"
        "assert native.status()['reason'] == 'disabled by REPRO_NATIVE=0'\n"
        "from repro.sc import activation, ops\n"
        "packed = ops.pack_bits(np.ones((2, 65), dtype=np.uint8))\n"
        "out = activation.stanh_packed(packed, 65, 8)\n"
        "assert ops.popcount(out, 65).tolist() == [65, 65]\n",
        tmp_path, REPRO_NATIVE="0")
    assert proc.returncode == 0, proc.stderr


def test_repro_native_1_fails_loudly_without_compiler(tmp_path):
    proc = _run_subprocess(
        "import repro.native\n",
        tmp_path, REPRO_NATIVE="1",
        REPRO_NATIVE_CC=str(tmp_path / "no-such-cc"))
    assert proc.returncode != 0
    assert "REPRO_NATIVE=1" in proc.stderr


@needs_native
def test_override_context_restores_dispatch():
    assert native.enabled()
    with native.override(False):
        assert not native.enabled()
        with native.override(True):
            assert native.enabled()
        assert not native.enabled()
    assert native.enabled()


def test_status_reports_shape():
    status = native.status()
    assert set(status) == {"available", "enabled", "reason", "override",
                           "lib"}
    if status["available"]:
        assert status["lib"] and Path(status["lib"]).exists()
    else:
        assert status["reason"]
