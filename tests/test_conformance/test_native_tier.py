"""Conformance: the native kernel tier against the pure-NumPy oracle.

Arming the native tier must change **zero output bits** anywhere — these
tests assert bit-identity kernel by kernel (hypothesis properties biased
toward the awkward lengths: ``L % 8 != 0`` and ``L % 64 != 0``), then at
the whole-engine level (exact-backend logits with dispatch on vs off),
and finally that the capability layer degrades gracefully: a box with no
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
from repro.blocks.pooling import apc_max_pool
from repro.native import build as native_build
from repro.sc import activation, adders, fsm, ops

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
       n=st.integers(min_value=1, max_value=12),
       approximate=st.booleans())
def test_column_counts_bit_identical(data, length, shape, n, approximate):
    packed = ops.pack_bits(random_bits(data, shape + (n,), length))
    count = adders.apc_count if approximate else adders.parallel_counter
    with native.override(True):
        got = count(packed, length)
    with native.override(False):
        ref = count(packed, length)
    assert got.dtype == ref.dtype
    np.testing.assert_array_equal(got, ref)


@needs_native
@settings(max_examples=40, deadline=None)
@given(data=st.data(), length=lengths, shape=batch_shapes,
       n=st.integers(min_value=1, max_value=40))
def test_transpose_pack_bit_identical(data, length, shape, n):
    packed = ops.pack_bits(random_bits(data, shape + (n,), length))
    with native.override(True):
        got = ops.transpose_pack(packed, length)
    with native.override(False):
        ref = ops.transpose_pack(packed, length)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    np.testing.assert_array_equal(got, ref)


@needs_native
@settings(max_examples=40, deadline=None)
@given(data=st.data(), length=lengths, shape=batch_shapes)
def test_popcount_bit_identical(data, length, shape):
    packed = ops.pack_bits(random_bits(data, shape, length))
    with native.override(True):
        got = ops.popcount(packed, length)
        got_sum = ops.popcount_sum(packed, dtype=np.int16)
    with native.override(False):
        ref = ops.popcount(packed, length)
        ref_sum = ops.popcount_sum(packed, dtype=np.int16)
    np.testing.assert_array_equal(got, ref)
    assert got_sum.dtype == ref_sum.dtype
    np.testing.assert_array_equal(got_sum, ref_sum)


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


@needs_native
@settings(max_examples=40, deadline=None)
@given(data=st.data(), shape=batch_shapes,
       T=st.integers(min_value=1, max_value=150),
       n_states=st.integers(min_value=1, max_value=40),
       dtype=st.sampled_from([np.int16, np.int32, np.int64]))
def test_saturating_counter_bit_identical(data, shape, T, n_states, dtype):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    inc = rng.integers(-30, 31, size=shape + (T,)).astype(dtype)
    init = int(rng.integers(0, n_states))
    threshold = int(rng.integers(0, n_states + 2))
    with native.override(True):
        got = fsm.saturating_counter(inc, n_states, init=init,
                                     threshold=threshold)
    with native.override(False):
        ref = fsm.saturating_counter(inc, n_states, init=init,
                                     threshold=threshold)
    assert got.dtype == ref.dtype
    np.testing.assert_array_equal(got, ref)


@needs_native
@settings(max_examples=25, deadline=None)
@given(data=st.data(), length=lengths,
       n=st.integers(min_value=1, max_value=40),
       rows=st.integers(min_value=1, max_value=5),
       channels=st.integers(min_value=1, max_value=4))
def test_apc_inner_counts_bit_identical(data, length, n, rows, channels):
    """The fused exact-backend inner product against the unfused NumPy
    arithmetic of ``ExactBackend._apc_counts``."""
    x = ops.pack_bits(random_bits(data, (rows, n), length))
    w = ops.pack_bits(random_bits(data, (channels, n), length))
    with native.override(False):
        wT = ops.transpose_pack(w, length)
        xT = ops.transpose_pack(x, length)
        ham = ops.popcount_sum(xT[None] ^ wT[:, None], dtype=np.int16)
        exact = np.int16(n) - ham
        x_last = ops.unpack_bits(x[:, -1, :], length)
        w_last = ops.unpack_bits(w[:, -1, :], length)
        prod_last = np.uint8(1) ^ x_last[None] ^ w_last[:, None]
        one = np.int16(1)
        ref = (exact & ~one) | ((exact ^ prod_last) & one)
    got = native.apc_inner_counts(x, wT, n, length)
    assert got.dtype == ref.dtype
    np.testing.assert_array_equal(got, ref)


def _apc_max_btanh_pack_numpy(counts, windows, segment, n, n_states):
    """The exact backend's NumPy APC-Max-Btanh composition (the oracle)."""
    with native.override(False):
        pooled = apc_max_pool(counts[:, :, windows], segment)
        return ops.pack_bits(activation.btanh_counts(pooled, n, n_states))


@needs_native
@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       segment=st.sampled_from([4, 8, 12, 16, 32]),
       n_segments=st.integers(min_value=1, max_value=6),
       n=st.integers(min_value=1, max_value=600),
       n_states=st.one_of(st.sampled_from([1, 2, 3, 52, 1002]),
                          st.integers(min_value=0, max_value=40).map(
                              lambda k: 2 * k + 1)),
       shape=st.sampled_from([(1, 1), (2, 1), (3, 2)]),
       n_windows=st.integers(min_value=1, max_value=5),
       ties=st.sampled_from(["none", "extremes", "equal"]))
def test_apc_max_btanh_pack_bit_identical(data, segment, n_segments, n,
                                          n_states, shape, n_windows, ties):
    """The fused pool → Btanh → pack kernel against the NumPy
    composition, on tie-heavy counts that pin the first-index argmax
    and on lengths whose last byte is zero-padded (e.g. 12 × 3)."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    length = segment * n_segments
    positions = 4 * n_windows + int(rng.integers(0, 3))
    size = shape + (positions, length)
    if ties == "extremes":
        counts = rng.choice([0, n], size=size)
    elif ties == "equal":
        # every position of an image carries the same count row, so all
        # four candidates of every window tie in every segment
        row = rng.integers(0, n + 1, size=shape + (1, length))
        counts = np.broadcast_to(row, size)
    else:
        counts = rng.integers(0, n + 1, size=size)
    counts = counts.astype(np.int16)
    windows = rng.integers(0, positions, size=(n_windows, 4))
    got = native.apc_max_btanh_pack(counts, windows, segment, n, n_states)
    ref = _apc_max_btanh_pack_numpy(counts, windows, segment, n, n_states)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    np.testing.assert_array_equal(got, ref)
    assert ops.padding_is_zero(got, length)


@pytest.mark.parametrize("counts,windows,segment,match", [
    (np.zeros((2, 1, 4, 16), np.int32), np.zeros((1, 4)), 16, "int16"),
    (np.zeros((2, 4, 16), np.int16), np.zeros((1, 4)), 16, "int16"),
    (np.zeros((2, 1, 4, 16), np.int16), np.zeros(4), 16, "windows"),
    (np.zeros((2, 1, 4, 16), np.int16), np.zeros((1, 3)), 16, "windows"),
    (np.zeros((2, 1, 4, 16), np.int16), np.zeros((1, 4), float), 16,
     "windows"),
    (np.zeros((2, 1, 4, 16), np.int16), np.array([[0, 1, 2, 4]]), 16,
     r"outside \[0, 4\)"),
    (np.zeros((2, 1, 4, 16), np.int16), np.array([[0, -1, 2, 3]]), 16,
     r"outside \[0, 4\)"),
    (np.zeros((2, 1, 4, 36), np.int16), np.zeros((1, 4), int), 16,
     "multiple of segment 16"),
    (np.zeros((2, 1, 4, 16), np.int16), np.zeros((1, 4), int), 0,
     "segment"),
])
def test_apc_max_btanh_pack_rejects_before_c(counts, windows, segment,
                                             match, monkeypatch):
    """Bad arguments raise ``ValueError`` in the wrapper; with the
    library handle removed, reaching C would be an AttributeError."""
    monkeypatch.setattr(native, "_lib", None)
    with pytest.raises(ValueError, match=match):
        native.apc_max_btanh_pack(counts, windows, segment, 25, 52)


# ----------------------------------------------------------------------
# engine-level: arming the tier changes zero output bits
# ----------------------------------------------------------------------

def _assert_logits_tier_invariant(kinds, pooling, length, **backend_opts):
    from repro.core.config import NetworkConfig, PoolKind
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
    # both conv stages through the fused max-pool kernel (layer 1 at
    # K = 1002)
    (("APC", "APC", "APC"), "MAX", 144),
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
        "from repro.sc import adders, ops\n"
        "packed = ops.pack_bits(np.ones((4, 100), dtype=np.uint8))\n"
        "assert ops.popcount(packed, 100).tolist() == [100] * 4\n"
        "assert adders.apc_count(packed, 100).shape == (100,)\n"
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
        "from repro.sc import ops\n"
        "packed = ops.pack_bits(np.ones((2, 65), dtype=np.uint8))\n"
        "assert ops.popcount(packed, 65).tolist() == [65, 65]\n",
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
