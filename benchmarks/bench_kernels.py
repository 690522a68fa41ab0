"""Micro-benchmarks of the simulation kernels themselves.

Not a paper table — these time the packed-bit kernels that make the
bit-level LeNet-5 simulation tractable, and guard against performance
regressions: XNOR multiply, APC column counting, the vectorized Stanh
FSM, a full feature-extraction-block forward and one exact conv-layer
pass.

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
    with native.override(False):
        wT = ops.transpose_pack(w, L)
        w_last = ops.unpack_bits(w[:, -1, :], L)
    return x, wT, w_last


def _apc_inner_numpy(x, wT, w_last, n):
    """The ExactBackend._apc_counts NumPy arithmetic, unfused."""
    xT = ops.transpose_pack(x, L)
    x_last = ops.unpack_bits(x[:, -1, :], L)
    ham = ops.popcount_sum(xT[None, :] ^ wT[:, None], dtype=np.int16)
    exact = np.int16(n) - ham
    prod_last = np.uint8(1) ^ x_last[None, :] ^ w_last[:, None]
    one = np.int16(1)
    return (exact & ~one) | ((exact ^ prod_last) & one)


def test_kernel_apc_inner_numpy(benchmark, factory, rng):
    """Exact-backend inner product, pure-NumPy transposed counting."""
    x, wT, w_last = _apc_inner_banks(factory, rng)

    def run():
        with native.override(False):
            return _apc_inner_numpy(x, wT, w_last, 150)

    out = benchmark(run)
    assert out.shape == (32, 64, L)


@_needs_native
def test_kernel_apc_inner_native(benchmark, factory, rng):
    """Exact-backend inner product through the fused native kernel."""
    x, wT, w_last = _apc_inner_banks(factory, rng)
    out = benchmark(lambda: native.apc_inner_counts(x, wT, 150, L))
    with native.override(False):
        ref = _apc_inner_numpy(x, wT, w_last, 150)
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
