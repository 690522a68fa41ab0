"""Tests for the stochastic number generators."""

import numpy as np
import pytest

from repro.sc import ops, rng
from repro.sc.encoding import Encoding
from repro.sc.lfsr import LFSR
from repro.sc.rng import IdealSNG, LfsrSNG, StreamFactory
from repro.utils.seeding import derive_seed


class TestIdealSNG:
    def test_probability_accuracy(self):
        sng = IdealSNG(seed=0)
        probs = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        packed = sng.generate(probs, 8192)
        measured = ops.popcount(packed, 8192) / 8192
        np.testing.assert_allclose(measured, probs, atol=0.03)

    def test_deterministic_after_reseed(self):
        sng = IdealSNG(seed=7)
        a = sng.generate(np.array(0.5), 256)
        sng.reseed(7)
        b = sng.generate(np.array(0.5), 256)
        np.testing.assert_array_equal(a, b)

    def test_independent_streams(self):
        """Two generated streams must be (nearly) uncorrelated."""
        sng = IdealSNG(seed=1)
        packed = sng.generate(np.array([0.5, 0.5]), 8192)
        a = ops.unpack_bits(packed[0], 8192).astype(float)
        b = ops.unpack_bits(packed[1], 8192).astype(float)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.05

    def test_output_shape(self):
        sng = IdealSNG(seed=0)
        out = sng.generate(np.full((3, 4), 0.5), 100)
        assert out.shape == (3, 4, 13)


class TestLfsrSNG:
    def test_probability_accuracy(self):
        sng = LfsrSNG(width=16, seed=0)
        probs = np.array([0.1, 0.5, 0.9])
        packed = sng.generate(probs, 4096)
        measured = ops.popcount(packed, 4096) / 4096
        np.testing.assert_allclose(measured, probs, atol=0.05)

    def test_pooled_streams_share_sequences(self):
        """With pool=1 every stream uses the same LFSR: equal-probability
        streams become bit-identical (the hardware correlation hazard)."""
        sng = LfsrSNG(width=12, seed=0, pool=1)
        packed = sng.generate(np.array([0.5, 0.5]), 512)
        np.testing.assert_array_equal(packed[0], packed[1])

    def test_zero_and_one_extremes(self):
        sng = LfsrSNG(width=10, seed=3)
        packed = sng.generate(np.array([0.0, 1.0]), 1023)
        counts = ops.popcount(packed, 1023)
        assert counts[0] <= 1   # threshold rounding may admit one state
        assert counts[1] == 1023

    def test_reseed_determinism(self):
        a = LfsrSNG(width=12, seed=9).generate(np.array(0.3), 256)
        b = LfsrSNG(width=12, seed=9).generate(np.array(0.3), 256)
        np.testing.assert_array_equal(a, b)


class TestStreamFactory:
    def test_streams_decode(self):
        fab = StreamFactory(seed=0)
        s = fab.streams([-0.5, 0.5], 4096)
        np.testing.assert_allclose(s.value(), [-0.5, 0.5], atol=0.05)

    def test_encoding_override(self):
        fab = StreamFactory(seed=0, encoding=Encoding.BIPOLAR)
        s = fab.streams(0.25, 1024, encoding=Encoding.UNIPOLAR)
        assert s.encoding is Encoding.UNIPOLAR

    def test_lfsr_backend(self):
        fab = StreamFactory(seed=0, sng="lfsr")
        s = fab.streams(0.5, 1024)
        assert float(s.value()) == pytest.approx(0.5, abs=0.1)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="sng"):
            StreamFactory(sng="quantum")

    def test_select_signal_range(self):
        fab = StreamFactory(seed=0)
        sel = fab.select_signal(7, 1000)
        assert sel.shape == (1000,)
        assert sel.min() >= 0 and sel.max() < 7

    def test_select_signal_roughly_uniform(self):
        fab = StreamFactory(seed=0)
        sel = fab.select_signal(4, 8000)
        counts = np.bincount(sel, minlength=4)
        assert counts.min() > 1700


class TestChunkedGeneration:
    """Row-chunked generation equals one unchunked draw, bit for bit, and
    leaves the generator where the unchunked draw would."""

    EDGES = np.array([0.0, 1.0, 2.0 ** -53, 1.0 - 2.0 ** -53])

    @staticmethod
    def _probs(length):
        # Four chunks, the last one partial.
        rows = 3 * max(1, rng.CHUNK_BYTES // (8 * length)) + 5
        probs = np.random.default_rng(length).random(rows)
        probs[::7] = np.resize(TestChunkedGeneration.EDGES, probs[::7].size)
        return probs

    @pytest.mark.parametrize("length", [1, 40, 64])
    def test_ideal_matches_unchunked_draw(self, length):
        probs = self._probs(length)
        sng, twin = IdealSNG(seed=3), IdealSNG(seed=3)
        packed = sng.generate(probs, length)
        expected = ops.pack_bits(
            twin._rng.random(probs.shape + (length,)) < probs[:, None])
        np.testing.assert_array_equal(packed, expected)
        assert (sng._rng.bit_generator.state
                == twin._rng.bit_generator.state)

    @pytest.mark.parametrize("length", [1, 40, 64])
    def test_lfsr_matches_unchunked_draw(self, length):
        probs = self._probs(length)
        sng = LfsrSNG(width=12, seed=5)
        sng.generate(probs[:3], length)             # counter 0 -> 1
        max_val = (1 << sng.width) - 1
        sequences = np.stack([
            LFSR(sng.width, seed=derive_seed(5, "lfsr-sng", slot, 1)
                 % max_val + 1).sequence(length)
            for slot in range(sng.pool)]).astype(np.int64)
        slots = np.arange(probs.size) % sng.pool
        thresholds = np.round(probs * max_val).astype(np.int64)
        expected = ops.pack_bits(sequences[slots] <= thresholds[:, None])
        np.testing.assert_array_equal(sng.generate(probs, length), expected)
        assert sng._counter == 2

    @pytest.mark.parametrize("make", [lambda: IdealSNG(seed=8),
                                      lambda: LfsrSNG(width=12, seed=8)])
    def test_draw_block_compare_replays_generate(self, make):
        """The cached-block encode (draw once, compare per batch) equals
        generate on the same state."""
        probs = np.random.default_rng(0).random((3, 50))
        sng, twin = make(), make()
        block = sng.draw_block(50, 64)
        np.testing.assert_array_equal(
            ops.pack_bits(sng.compare(block, probs)),
            np.stack([twin.clone().generate(p, 64) for p in probs]))
