"""Tests for the stochastic number generators."""

from unittest import mock

import numpy as np
import pytest

import repro.native as native
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


@pytest.fixture(params=["native", "numpy"])
def sng_tier(request):
    """Pin the SNG dispatch to one tier (native skipped where not built)."""
    if request.param == "native" and not native.available():
        pytest.skip("native kernel tier not built")
    with native.override(request.param == "native"):
        yield request.param


class TestIdealSNGBitIdentity:
    """``IdealSNG.generate`` on either tier equals the chunked NumPy
    draw -> compare -> pack_bits path bit for bit, and leaves the
    generator exactly where that path leaves it."""

    K = 2.0 ** -53
    EDGES = np.array([
        0.0, -0.0, 1.0, K, 3 * K, 0.5, 1.0 - K,
        np.nextafter(K, 0.0), np.nextafter(K, 1.0),
        np.nextafter(3 * K, 0.0), np.nextafter(3 * K, 1.0),
        np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),
        np.nextafter(1.0 - K, 0.0), np.nextafter(1.0, 0.0),
        np.nextafter(0.0, 1.0), np.nan,
        -K, np.nextafter(0.0, -1.0), np.nextafter(1.0, 2.0), 1.0 + 1e-9,
        -np.inf, np.inf,
    ])

    @classmethod
    def _probs(cls, rows, seed):
        gen = np.random.default_rng(seed)
        probs = gen.random(rows)
        # exact multiples k * 2**-53 and their neighbours, anywhere
        k = gen.integers(0, 2 ** 53, size=rows).astype(np.float64) * cls.K
        probs[1::5] = k[1::5]
        probs[2::5] = np.nextafter(k[2::5], 1.0)
        probs[3::5] = np.nextafter(k[3::5], 0.0)
        probs[::3] = np.resize(cls.EDGES, probs[::3].size)
        return probs

    @staticmethod
    def _reference(sng, probs, length):
        out = [ops.pack_bits(sng.compare(block, probs[rows]))
               for rows, block in sng.draw(probs.size, length)]
        return (np.concatenate(out) if out
                else np.empty((0, ops.packed_nbytes(length)), np.uint8))

    @pytest.mark.parametrize("length", [1, 3, 7, 8, 13, 64, 100])
    @pytest.mark.parametrize("rows", ["tiny", "straddle"])
    def test_generate_matches_draw_compare_pack(self, sng_tier, length,
                                                rows):
        chunk = max(1, rng.CHUNK_BYTES // (8 * length))
        sizes = ([0, 1, 2, 3, 5, 6, 7] if rows == "tiny"
                 else [chunk - 1, chunk + 1, 2 * chunk + 3])
        sng, twin = IdealSNG(seed=length), IdealSNG(seed=length)
        for i, size in enumerate(sizes):
            probs = self._probs(size, seed=i)
            packed = sng.generate(probs, length)
            with native.override(False):
                expected = self._reference(twin, probs, length)
            np.testing.assert_array_equal(packed, expected)
            assert (sng._rng.bit_generator.state
                    == twin._rng.bit_generator.state)
        assert sng._rng.random() == twin._rng.random()
        np.testing.assert_array_equal(sng.draw_block(9, length),
                                      twin.draw_block(9, length))

    @pytest.mark.parametrize("length", [1, 13])
    def test_probabilities_at_the_drawn_values(self, sng_tier, length):
        """Each row's probability is one of its own draws or a neighbour
        of it: the comparison's boundary, where ``u < p`` must hold
        exactly (a threshold off by one ulp flips these bits)."""
        sng, twin = IdealSNG(seed=6), IdealSNG(seed=6)
        drawn = twin.clone().draw_block(300, length)
        probs = drawn[np.arange(300), np.arange(300) % length]
        probs[1::3] = np.nextafter(probs[1::3], 1.0)
        probs[2::3] = np.nextafter(probs[2::3], 0.0)
        with native.override(False):
            expected = self._reference(twin, probs, length)
        np.testing.assert_array_equal(sng.generate(probs, length), expected)

    def test_batch_shape_and_clone(self, sng_tier):
        sng = IdealSNG(seed=4)
        twin = sng.clone()
        probs = self._probs(24, seed=9).reshape(2, 3, 4)
        packed = sng.generate(probs, 13)
        assert packed.shape == (2, 3, 4, 2)
        with native.override(False):
            expected = self._reference(twin, probs.reshape(-1), 13)
        np.testing.assert_array_equal(packed.reshape(24, 2), expected)

    def test_pcg64_generate_runs_natively(self):
        if not native.available():
            pytest.skip("native kernel tier not built")
        with native.override(True), mock.patch.object(
                native, "sng_pcg64_pack",
                wraps=native.sng_pcg64_pack) as kernel:
            IdealSNG(seed=1).generate(np.array([0.5, 0.25]), 40)
        assert kernel.call_count == 1

    @pytest.mark.parametrize("make", [
        lambda: LfsrSNG(width=12, seed=2),
        lambda: IdealSNG(seed=2),
    ], ids=["lfsr", "mt19937"])
    def test_other_generators_take_the_numpy_path(self, make):
        if not native.available():
            pytest.skip("native kernel tier not built")
        sng, twin = make(), make()
        if isinstance(sng, IdealSNG):
            for s in (sng, twin):
                s._rng = np.random.Generator(np.random.MT19937(2))
        probs = np.random.default_rng(3).random(50)
        with native.override(True), mock.patch.object(
                native, "sng_pcg64_pack",
                side_effect=AssertionError("native SNG called")):
            packed = sng.generate(probs, 13)
        with native.override(False):
            expected = self._reference(twin, probs, 13)
        np.testing.assert_array_equal(packed, expected)

    def test_kernel_refuses_other_bit_generators(self):
        if not native.available():
            pytest.skip("native kernel tier not built")
        with pytest.raises(TypeError, match="PCG64"):
            native.sng_pcg64_pack(np.random.MT19937(0), np.zeros(2), 8)
