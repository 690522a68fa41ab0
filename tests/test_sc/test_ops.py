"""Tests for the packed-bit operations in repro.sc.ops."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sc import ops

bit_arrays = st.integers(min_value=1, max_value=70).flatmap(
    lambda n: st.lists(st.integers(0, 1), min_size=n, max_size=n)
)


class TestPackUnpack:
    @given(bit_arrays)
    @settings(max_examples=40)
    def test_round_trip(self, bits):
        arr = np.array(bits, dtype=np.uint8)
        packed = ops.pack_bits(arr)
        np.testing.assert_array_equal(ops.unpack_bits(packed, len(bits)), arr)

    def test_batch_shapes(self):
        bits = np.zeros((3, 4, 20), dtype=np.uint8)
        packed = ops.pack_bits(bits)
        assert packed.shape == (3, 4, 3)
        assert ops.unpack_bits(packed, 20).shape == (3, 4, 20)

    def test_packed_nbytes(self):
        assert ops.packed_nbytes(8) == 1
        assert ops.packed_nbytes(9) == 2
        assert ops.packed_nbytes(1024) == 128


class TestPadMask:
    def test_full_bytes(self):
        np.testing.assert_array_equal(ops.pad_mask(16), [0xFF, 0xFF])

    def test_partial_byte(self):
        mask = ops.pad_mask(12)
        assert mask[0] == 0xFF
        assert mask[1] == 0xF0  # top 4 bits valid


class TestPopcount:
    @given(bit_arrays)
    @settings(max_examples=40)
    def test_matches_sum(self, bits):
        arr = np.array(bits, dtype=np.uint8)
        packed = ops.pack_bits(arr)
        assert ops.popcount(packed, len(bits)) == arr.sum()

    def test_batched(self, rng):
        bits = (rng.random((5, 33)) < 0.5).astype(np.uint8)
        packed = ops.pack_bits(bits)
        np.testing.assert_array_equal(ops.popcount(packed, 33),
                                      bits.sum(axis=-1))


class TestLogicOps:
    @pytest.fixture()
    def pair(self, rng):
        a = (rng.random(100) < 0.5).astype(np.uint8)
        b = (rng.random(100) < 0.5).astype(np.uint8)
        return a, b

    def test_and(self, pair):
        a, b = pair
        out = ops.and_(ops.pack_bits(a), ops.pack_bits(b))
        np.testing.assert_array_equal(ops.unpack_bits(out, 100), a & b)

    def test_or(self, pair):
        a, b = pair
        out = ops.or_(ops.pack_bits(a), ops.pack_bits(b))
        np.testing.assert_array_equal(ops.unpack_bits(out, 100), a | b)

    def test_xor(self, pair):
        a, b = pair
        out = ops.xor_(ops.pack_bits(a), ops.pack_bits(b))
        np.testing.assert_array_equal(ops.unpack_bits(out, 100), a ^ b)

    def test_xnor(self, pair):
        a, b = pair
        out = ops.xnor_(ops.pack_bits(a), ops.pack_bits(b), 100)
        np.testing.assert_array_equal(ops.unpack_bits(out, 100),
                                      1 - (a ^ b))

    def test_xnor_pad_bits_stay_zero(self):
        """XNOR sets bits; padding must be re-zeroed for popcounts."""
        a = ops.pack_bits(np.zeros(12, dtype=np.uint8))
        out = ops.xnor_(a, a, 12)
        assert ops.popcount(out, 12) == 12  # not 16

    def test_not_pad_bits_stay_zero(self):
        a = ops.pack_bits(np.zeros(9, dtype=np.uint8))
        out = ops.not_(a, 9)
        assert ops.popcount(out, 9) == 9


class TestMuxSelect:
    def test_selects_expected_bits(self):
        bits = np.stack([np.zeros(16, dtype=np.uint8),
                         np.ones(16, dtype=np.uint8)])
        packed = ops.pack_bits(bits)
        select = np.array([0, 1] * 8)
        out = ops.unpack_bits(ops.mux_select(packed, select, 16), 16)
        np.testing.assert_array_equal(out, select)

    def test_mean_value(self, rng):
        """The MUX output probability is the mean of the inputs'."""
        n, L = 4, 4096
        probs = np.array([0.1, 0.3, 0.5, 0.9])
        bits = (rng.random((n, L)) < probs[:, None]).astype(np.uint8)
        select = rng.integers(0, n, L)
        out = ops.mux_select(ops.pack_bits(bits), select, L)
        assert ops.popcount(out, L) / L == pytest.approx(probs.mean(),
                                                         abs=0.03)

    def test_bad_select_shape_rejected(self):
        packed = ops.pack_bits(np.zeros((2, 16), dtype=np.uint8))
        with pytest.raises(ValueError, match="select"):
            ops.mux_select(packed, np.zeros(8, dtype=int), 16)

    def test_out_of_range_select_rejected(self):
        packed = ops.pack_bits(np.zeros((2, 16), dtype=np.uint8))
        with pytest.raises(ValueError, match="select values"):
            ops.mux_select(packed, np.full(16, 5), 16)

    def test_non_broadcasting_select_rejected(self):
        packed = ops.pack_bits(np.zeros((3, 2, 16), dtype=np.uint8))
        with pytest.raises(ValueError, match="broadcast"):
            ops.mux_select(packed, np.zeros((4, 16), dtype=int), 16)


class TestSegmentPopcount:
    def test_counts_per_segment(self):
        bits = np.array([1] * 8 + [0] * 8 + [1, 0] * 4, dtype=np.uint8)
        packed = ops.pack_bits(bits)
        np.testing.assert_array_equal(
            ops.segment_popcount(packed, 24, 8), [8, 0, 4]
        )

    def test_non_dividing_segment_rejected(self):
        packed = ops.pack_bits(np.zeros(24, dtype=np.uint8))
        with pytest.raises(ValueError, match="divide"):
            ops.segment_popcount(packed, 24, 7)
