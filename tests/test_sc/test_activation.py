"""Tests for Stanh and Btanh."""

import numpy as np
import pytest

from repro.sc import activation, ops
from repro.sc.bitstream import Bitstream
from repro.sc.encoding import Encoding
from repro.sc.rng import StreamFactory


@pytest.fixture()
def factory():
    return StreamFactory(seed=0)


class TestStanh:
    @pytest.mark.parametrize("x", [-0.8, -0.3, 0.0, 0.3, 0.8])
    def test_matches_tanh_k_half_x(self, factory, x):
        """Stanh(K, x) ≈ tanh(K/2 · x) (Brown & Card)."""
        K = 8
        s = factory.streams(x, 16384)
        out = activation.stanh(s, K)
        assert float(out.value()) == pytest.approx(np.tanh(K / 2 * x),
                                                   abs=0.08)

    def test_monotone_in_input(self, factory):
        K = 10
        xs = np.linspace(-0.9, 0.9, 7)
        outs = [float(activation.stanh(factory.streams(x, 8192), K).value())
                for x in xs]
        assert all(b >= a - 0.1 for a, b in zip(outs, outs[1:]))

    def test_saturates(self, factory):
        out = activation.stanh(factory.streams(0.95, 4096), 16)
        assert float(out.value()) > 0.9

    def test_shifted_threshold_raises_output(self, factory):
        """Figure 11's K/5 threshold outputs 1 over 4/5 of the states."""
        s = factory.streams(0.0, 8192)
        canonical = float(activation.stanh(s, 20).value())
        shifted = float(activation.stanh(s, 20, threshold=4).value())
        assert shifted > canonical + 0.3

    def test_requires_bipolar(self):
        s = Bitstream.zeros((), 64, Encoding.UNIPOLAR)
        with pytest.raises(ValueError, match="bipolar"):
            activation.stanh(s, 8)

    def test_packed_matches_wrapper(self, factory):
        s = factory.streams(0.4, 1024)
        packed_out = activation.stanh_packed(s.data, 1024, 8)
        wrapped = activation.stanh(s, 8)
        np.testing.assert_array_equal(packed_out, wrapped.data)

    @pytest.mark.parametrize("threshold", [None, 60])
    @pytest.mark.parametrize("length", [1000, 1003])
    def test_packed_huge_fsm_fallback(self, length, threshold):
        """K = 300 outgrows the uint8 byte-transition tables, so
        ``stanh_packed`` steps the bit-level FSM instead; it must match
        ``stanh_bits`` and a plain per-cycle scan, padding bits zero."""
        K = 300
        assert K > activation._MAX_LUT_STATES
        rng = np.random.default_rng(11)
        # long runs of one bit walk the state across the whole range
        p = np.repeat(rng.uniform(0, 1, (3, length // 50 + 1)), 50, axis=1)
        bits = rng.random((3, length)) < p[:, :length]
        packed = ops.pack_bits(bits)
        got = activation.stanh_packed(packed, length, K, threshold=threshold)
        ref = activation.stanh_bits(bits, K, threshold=threshold)
        np.testing.assert_array_equal(got, ops.pack_bits(ref))
        assert ops.padding_is_zero(got, length)
        thr = K // 2 if threshold is None else threshold
        state = np.full(3, K // 2)
        scan = np.empty_like(bits)
        for t in range(length):
            state = np.clip(state + 2 * bits[:, t] - 1, 0, K - 1)
            scan[:, t] = state >= thr
        np.testing.assert_array_equal(ref.astype(bool), scan)


class TestStanhExpected:
    def test_curve(self):
        np.testing.assert_allclose(
            activation.stanh_expected([0.0, 0.5], 8),
            [0.0, np.tanh(2.0)],
        )


class TestBtanh:
    def _counts_for(self, y, n, L, factory):
        """Product count stream whose signed sum per cycle has mean y."""
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, n)
        w = x * y / (x ** 2).sum()
        xs = factory.packed(x, L)
        ws = factory.packed(w, L)
        prod = ops.xnor_(xs, ws, L)
        from repro.sc.adders import parallel_counter
        return parallel_counter(prod, L)

    @pytest.mark.parametrize("y", [-1.5, -0.5, 0.5, 1.5])
    def test_approximates_tanh(self, factory, y):
        """With the original sizing K = 2N, Btanh(counts) ≈ tanh(Σxw)."""
        n, L = 16, 8192
        counts = self._counts_for(y, n, L, factory)
        bits = activation.btanh_counts(counts[None, :], n, 2 * n)
        decoded = 2.0 * bits.mean() - 1.0
        assert decoded == pytest.approx(np.tanh(y), abs=0.12)

    def test_zero_drift_near_zero(self, factory):
        n, L = 16, 8192
        counts = self._counts_for(0.0, n, L, factory)
        bits = activation.btanh_counts(counts[None, :], n, 2 * n)
        assert abs(2.0 * bits.mean() - 1.0) < 0.15

    def test_stream_wrapper(self, factory):
        counts = self._counts_for(1.0, 16, 1024, factory)
        out = activation.btanh_stream(counts[None, :], 16, 32)
        assert out.encoding is Encoding.BIPOLAR
        assert out.length == 1024

    def test_float_counts_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            activation.btanh_counts(np.zeros(16), 4, 8)
