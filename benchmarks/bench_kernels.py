"""Micro-benchmarks of the simulation kernels themselves.

Not a paper table — these time the packed-bit kernels that make the
bit-level LeNet-5 simulation tractable, and guard against performance
regressions: XNOR multiply, APC column counting, the vectorized Stanh
FSM, a full feature-extraction-block forward, one exact conv-layer
pass, the fused APC conv stage at the LeNet-5 layer-0/1 shapes and the
fused APC FC stage at the fc1 shape.

The ``*_numpy`` / ``*_native`` twins time the same computation with the
dispatch pinned to each tier (``repro.native.override``); ``run_all.py``
folds them into the numpy-vs-native speedup column of
``BENCH_kernels.json``.  The unsuffixed names keep timing whatever the
repo dispatches to by default, so their trajectory tracks what users
actually get.
"""

import numpy as np
import pytest

import repro.native as native
from repro.core.feature_extraction import make_feb
from repro.engine.exact import channel_minor_order, numpy_apc_counts
from repro.sc import activation, adders, ops
from repro.sc.rng import StreamFactory

L = 1024

_needs_native = pytest.mark.skipif(not native.available(),
                                   reason="native kernel tier not built")


@pytest.fixture(scope="module")
def factory():
    return StreamFactory(seed=0)


def test_kernel_xnor_multiply(benchmark, factory, rng):
    """Bipolar multiply across 4096 streams of 1024 bits."""
    a = factory.packed(rng.uniform(-1, 1, 4096), L)
    b = factory.packed(rng.uniform(-1, 1, 4096), L)
    out = benchmark(lambda: ops.xnor_(a, b, L))
    assert out.shape == a.shape


def test_kernel_popcount(benchmark, factory, rng):
    """Stream decode: ones counts across 4096 streams of 1024 bits."""
    a = factory.packed(rng.uniform(-1, 1, 4096), L)
    out = benchmark(lambda: ops.popcount(a, L))
    assert out.shape == (4096,)


def test_kernel_segment_popcount(benchmark, factory, rng):
    """Max-pool counters: 16-bit segment counts across 2880 streams."""
    a = factory.packed(rng.uniform(-1, 1, 2880), L)
    out = benchmark(lambda: ops.segment_popcount(a, L, 16))
    assert out.shape == (2880, L // 16)


def test_kernel_mux_select(benchmark, factory, rng):
    """16-to-1 MUX across a batch of 64 stream groups."""
    streams = factory.packed(rng.uniform(-1, 1, (64, 16)), L)
    select = rng.integers(0, 16, L)
    out = benchmark(lambda: ops.mux_select(streams, select, L))
    assert out.shape == (64, streams.shape[-1])


def test_kernel_mux_select_batched(benchmark, rng):
    """LeNet-5 layer-0 MUX gather, batch 16, L=64: one select row per
    (image, pooled window) over each image's 784 pixels plus the bias."""
    bank = rng.integers(0, 256, (16, 1, 785, 8), dtype=np.uint8)
    rows = rng.integers(0, 785, (16, 144, 64))
    out = benchmark(lambda: ops.mux_select(bank, rows, 64))
    assert out.shape == (16, 144, 8)


def test_kernel_lfsr_sequence(benchmark):
    """SNG random source: one full-period 16-bit LFSR sequence."""
    from repro.sc.lfsr import LFSR
    lfsr = LFSR(16, seed=7)
    out = benchmark(lambda: lfsr.sequence(65535))
    assert out.shape == (65535,)


def test_kernel_apc_counts(benchmark, factory, rng):
    """APC column counts for 128 windows of 25 inputs."""
    streams = factory.packed(rng.uniform(-1, 1, (128, 25)), L)
    counts = benchmark(lambda: adders.apc_count(streams, L))
    assert counts.shape == (128, L)


def test_kernel_stanh_fsm(benchmark, factory, rng):
    """Vectorized Stanh over 2880 streams (one LeNet-5 layer)."""
    streams = factory.packed(rng.uniform(-1, 1, 2880), L)
    out = benchmark(lambda: activation.stanh_packed(streams, L, 10))
    assert out.shape == streams.shape


# ----------------------------------------------------------------------
# numpy-vs-native tier pairs (same inputs, dispatch pinned per side)
# ----------------------------------------------------------------------

def _tier_pair_streams(factory, rng, shape=(128, 25)):
    return factory.packed(rng.uniform(-1, 1, shape), L)


def test_kernel_fused_count_numpy(benchmark, factory, rng):
    """transpose_pack + popcount_sum (the unfused NumPy composition)."""
    streams = _tier_pair_streams(factory, rng)

    def run():
        with native.override(False):
            return ops.popcount_sum(ops.transpose_pack(streams, L),
                                    dtype=np.int16)

    out = benchmark(run)
    assert out.shape == (128, L)


@_needs_native
def test_kernel_fused_count_native(benchmark, factory, rng):
    """The same column counts through the fused native kernel."""
    streams = _tier_pair_streams(factory, rng)

    def run():
        with native.override(True):
            return adders.parallel_counter(streams, L)

    out = benchmark(run)
    with native.override(False):
        ref = ops.popcount_sum(ops.transpose_pack(streams, L),
                               dtype=np.int16)
    assert np.array_equal(out, ref)


def test_kernel_apc_counts_numpy(benchmark, factory, rng):
    """APC column counts pinned to the pure-NumPy unpack/reduce path."""
    streams = _tier_pair_streams(factory, rng)

    def run():
        with native.override(False):
            return adders.apc_count(streams, L)

    out = benchmark(run)
    assert out.shape == (128, L)


@_needs_native
def test_kernel_apc_counts_native(benchmark, factory, rng):
    """APC column counts pinned to the native fused counter."""
    streams = _tier_pair_streams(factory, rng)

    def run():
        with native.override(True):
            return adders.apc_count(streams, L)

    out = benchmark(run)
    with native.override(False):
        ref = adders.apc_count(streams, L)
    assert np.array_equal(out, ref)


def _apc_inner_banks(factory, rng):
    """An exact-backend-shaped inner product: 64 windows x 32 channels
    of 150 inputs."""
    x = factory.packed(rng.uniform(-1, 1, (64, 150)), L)
    w = factory.packed(rng.uniform(-1, 1, (32, 150)), L)
    return x, w, *_numpy_banks(w, L)


def _numpy_banks(w, length):
    """The NumPy tier's counting bank of packed weights ``w``: the
    transposed bank and its last-input bit plane."""
    with native.override(False):
        return (ops.transpose_pack(w, length),
                ops.unpack_bits(w[:, -1, :], length))


def test_kernel_apc_inner_numpy(benchmark, factory, rng):
    """Exact-backend inner product, pure-NumPy transposed counting."""
    x, _, wT, w_last = _apc_inner_banks(factory, rng)

    def run():
        with native.override(False):
            return numpy_apc_counts(x, wT, w_last, 150, L)

    out = benchmark(run)
    assert out.shape == (32, 64, L)


@_needs_native
def test_kernel_apc_inner_native(benchmark, factory, rng):
    """Exact-backend inner product through the fused native kernel."""
    x, w, wT, w_last = _apc_inner_banks(factory, rng)
    bank = native.weight_bank(w, L)
    out = benchmark(lambda: native.apc_inner_counts(x, bank))
    with native.override(False):
        ref = numpy_apc_counts(x, wT, w_last, 150, L)
    assert np.array_equal(out, ref)


def test_kernel_stanh_numpy(benchmark, factory, rng):
    """Stanh byte-LUT walk pinned to the NumPy per-column gather."""
    streams = factory.packed(rng.uniform(-1, 1, 2880), L)

    def run():
        with native.override(False):
            return activation.stanh_packed(streams, L, 10)

    out = benchmark(run)
    assert out.shape == streams.shape


@_needs_native
def test_kernel_stanh_native(benchmark, factory, rng):
    """Stanh byte-LUT walk pinned to the native tier."""
    streams = factory.packed(rng.uniform(-1, 1, 2880), L)

    def run():
        with native.override(True):
            return activation.stanh_packed(streams, L, 10)

    out = benchmark(run)
    with native.override(False):
        ref = activation.stanh_packed(streams, L, 10)
    assert np.array_equal(out, ref)


def test_kernel_btanh_numpy(benchmark, rng):
    """Saturating-counter scan pinned to the blocked NumPy composition."""
    counts = rng.integers(0, 26, (800, L)).astype(np.int16)

    def run():
        with native.override(False):
            return activation.btanh_counts(counts, 25, 50)

    out = benchmark(run)
    assert out.shape == counts.shape


@_needs_native
def test_kernel_btanh_native(benchmark, rng):
    """Saturating-counter scan pinned to the native sequential scan."""
    counts = rng.integers(0, 26, (800, L)).astype(np.int16)

    def run():
        with native.override(True):
            return activation.btanh_counts(counts, 25, 50)

    out = benchmark(run)
    with native.override(False):
        ref = activation.btanh_counts(counts, 25, 50)
    assert np.array_equal(out, ref)


#: LeNet-5 conv stages under APC-Max-Btanh: (input channels, input
#: side, output channels, K) of layer 0 (n = 26) and layer 1 (n = 501)
_CONV_STAGES = {"layer0": (1, 28, 20, 52), "layer1": (20, 12, 50, 1002)}
_CONV_L = 64


def _conv_stage(rng, layer):
    """Batch-16 inputs of one conv stage at L=64: the biased input bank,
    the plan's patch table, the packed weights, the transposed weight
    bank (and its last-input bit plane) and the 2x2 pool windows."""
    from repro.engine.plan import conv_patch_index, pool_window_indices
    cin, side, channels, n_states = _CONV_STAGES[layer]
    rows = cin * side * side
    index = conv_patch_index(cin, side, side, 5)
    table = np.concatenate([index, np.full((len(index), 1), rows)], axis=1)
    windows = pool_window_indices((side - 4) // 2, (side - 4) // 2)
    nb = _CONV_L // 8
    x = rng.integers(0, 256, (16, rows + 1, nb), dtype=np.uint8)
    w = rng.integers(0, 256, (channels, table.shape[1], nb), dtype=np.uint8)
    return x, table, w, *_numpy_banks(w, _CONV_L), windows, n_states


def _conv_stage_numpy(x, table, wT, w_last, windows, n_states):
    """The ExactBackend._conv_layer NumPy composition: gather, count,
    max pool, Btanh, pack (channel-major, as that path leaves it)."""
    from repro.blocks.pooling import apc_max_pool
    batch, n, nb = x.shape[0], table.shape[1], x.shape[-1]
    patch = x[:, table].reshape(-1, n, nb)
    counts = numpy_apc_counts(patch, wT, w_last, n, _CONV_L).reshape(
        len(wT), batch, len(table), _CONV_L)
    pooled = apc_max_pool(counts[:, :, windows], 16)
    return ops.pack_bits(activation.btanh_counts(pooled, n, n_states))


@pytest.mark.parametrize("layer", sorted(_CONV_STAGES))
def test_kernel_conv_stage_numpy(benchmark, rng, layer):
    """One APC conv stage with max pooling, pinned to the NumPy path."""
    x, table, _, wT, w_last, windows, n_states = _conv_stage(rng, layer)

    def run():
        with native.override(False):
            return _conv_stage_numpy(x, table, wT, w_last, windows,
                                     n_states)

    out = benchmark.pedantic(run, rounds=5, iterations=1)
    assert out.shape == (len(wT), 16, len(windows), _CONV_L // 8)


@_needs_native
@pytest.mark.parametrize("layer", sorted(_CONV_STAGES))
def test_kernel_conv_stage_native(benchmark, rng, layer):
    """The same conv stage through the fused native kernel, over the
    channel-minor lane bank and gather plan the exact backend lays out
    for it."""
    x, table, w, wT, w_last, windows, n_states = _conv_stage(rng, layer)
    cin, side = _CONV_STAGES[layer][:2]
    bank = native.conv_bank(w, _CONV_L, table,
                            channel_minor_order(cin, side, side))
    out = benchmark(lambda: native.apc_conv_max_btanh_pack(
        x, bank, windows, 16, n_states))
    with native.override(False):
        ref = _conv_stage_numpy(x, table, wT, w_last, windows, n_states)
    assert np.array_equal(out, ref.transpose(1, 0, 2, 3))


#: LeNet-5 fc1 under APC-Btanh: 800 pooled inputs + bias, 500 units
_FC_N, _FC_UNITS, _FC_STATES = 801, 500, 1002


def _fc_stage(rng):
    """Batch-16 biased fc1 input bank at L=64 and the packed weights."""
    nb = _CONV_L // 8
    x = rng.integers(0, 256, (16, _FC_N, nb), dtype=np.uint8)
    w = rng.integers(0, 256, (_FC_UNITS, _FC_N, nb), dtype=np.uint8)
    return x, w


def _fc_stage_numpy(x, wT, w_last):
    """The ExactBackend._fc_layer NumPy composition: count, Btanh, pack,
    image-major."""
    counts = numpy_apc_counts(x, wT, w_last, _FC_N, _CONV_L)
    bits = activation.btanh_counts(counts, _FC_N, _FC_STATES)
    return np.ascontiguousarray(ops.pack_bits(bits).transpose(1, 0, 2))


def test_kernel_fc_stage_numpy(benchmark, rng):
    """One APC FC stage (LeNet-5 fc1, batch 16), pinned to NumPy."""
    x, w = _fc_stage(rng)
    wT, w_last = _numpy_banks(w, _CONV_L)

    def run():
        with native.override(False):
            return _fc_stage_numpy(x, wT, w_last)

    out = benchmark.pedantic(run, rounds=5, iterations=1)
    assert out.shape == (16, _FC_UNITS, _CONV_L // 8)


@_needs_native
def test_kernel_fc_stage_native(benchmark, rng):
    """The same FC stage through the fused native kernel."""
    x, w = _fc_stage(rng)
    bank = native.weight_bank(w, _CONV_L)
    out = benchmark(lambda: native.apc_fc_btanh_pack(x, bank, _FC_STATES))
    with native.override(False):
        ref = _fc_stage_numpy(x, *_numpy_banks(w, _CONV_L))
    assert np.array_equal(out, ref)


def test_kernel_btanh(benchmark, rng):
    """Vectorized Btanh over 800 count streams."""
    counts = rng.integers(0, 26, (800, L)).astype(np.int16)
    out = benchmark(lambda: activation.btanh_counts(counts, 25, 50))
    assert out.shape == counts.shape


def test_kernel_feb_forward(benchmark, rng):
    """One APC-Max-Btanh feature extraction (batch of 32)."""
    feb = make_feb("apc-max", 25, L, seed=0)
    x = rng.uniform(-1, 1, (32, 4, 25))
    w = rng.uniform(-1, 1, (32, 4, 25))
    out = benchmark.pedantic(lambda: feb.forward(x, w), rounds=3,
                             iterations=1)
    assert out.shape == (32,)


def test_kernel_exact_conv_layer(benchmark, trained_max):
    """One bit-exact image through conv1+pool+Btanh (Layer 0)."""
    from repro.core.config import NetworkConfig, PoolKind
    from repro.engine import Engine
    cfg = NetworkConfig.from_kinds(PoolKind.MAX, 256, ("APC", "APC", "APC"))
    engine = Engine(trained_max.model, cfg, seed=0)
    img = trained_max.bipolar_test_images()[0].reshape(1, -1)
    backend = engine.backend
    x = backend.factory.packed(img, 256)
    layer = engine.plan.layers[0]

    out = benchmark.pedantic(
        lambda: backend._conv_layer(0, layer, x, selects=[{}]),
        rounds=3, iterations=1,
    )
    assert out.shape[1] == 2880
