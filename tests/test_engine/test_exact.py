"""Invariances of the batched exact backend.

Batching, internal chunking, tile sizes and the serving path's
per-request stream state must never move an output bit.  The logits
themselves are pinned by the golden digest table
(``tests/test_conformance/test_golden_logits.py``).
"""

import numpy as np
import pytest

from repro.core.config import NetworkConfig, PoolKind
from repro.data.synthetic_mnist import to_bipolar
from repro.engine import Engine


@pytest.fixture(scope="module")
def images(small_dataset):
    _, _, x_test, _ = small_dataset
    return to_bipolar(x_test)[:5]


class TestBatchingInvariance:
    def test_batched_equals_single_image_calls(self, tiny_trained_lenet,
                                               images):
        """One predict(batch) == fresh-engine per-image calls, bit for bit
        (the stream factory draws the same PRNG sequence either way)."""
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 64,
                                       ("APC", "APC", "APC"))
        batched = Engine(tiny_trained_lenet, cfg, backend="exact",
                         seed=7).forward(images)
        sequential = Engine(tiny_trained_lenet, cfg, backend="exact",
                            seed=7)
        seq = np.stack([sequential.forward(img[None])[0]
                        for img in images.reshape(len(images), -1)])
        np.testing.assert_array_equal(batched, seq)

    def test_mux_selects_match_across_batching(self, tiny_trained_lenet,
                                               images):
        """MUX select signals are pre-drawn in legacy image-major order."""
        cfg = NetworkConfig.from_kinds(PoolKind.AVG, 64,
                                       ("MUX", "MUX", "MUX"))
        batched = Engine(tiny_trained_lenet, cfg, backend="exact",
                         seed=2).forward(images)
        sequential = Engine(tiny_trained_lenet, cfg, backend="exact",
                            seed=2)
        seq = np.stack([sequential.forward(img[None])[0]
                        for img in images.reshape(len(images), -1)])
        np.testing.assert_array_equal(batched, seq)

    def test_internal_batch_splitting_is_invisible(self, tiny_trained_lenet,
                                                   images):
        """A tiny batch budget forces internal chunking; results match."""
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 64,
                                       ("APC", "APC", "APC"))
        whole = Engine(tiny_trained_lenet, cfg, backend="exact",
                       seed=5).forward(images)
        split = Engine(tiny_trained_lenet, cfg, backend="exact", seed=5,
                       batch_budget=1).forward(images)
        np.testing.assert_array_equal(whole, split)

    def test_lfsr_sng_batch_size_invariant(self, tiny_trained_lenet,
                                           images):
        """The pooled-LFSR SNG advances per call; the backend encodes one
        image per call so batching stays invariant there too."""
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 64,
                                       ("APC", "APC", "APC"))
        batched = Engine(tiny_trained_lenet, cfg, backend="exact",
                         seed=9, sng="lfsr").forward(images)
        sequential = Engine(tiny_trained_lenet, cfg, backend="exact",
                            seed=9, sng="lfsr")
        seq = np.stack([sequential.forward(img[None])[0]
                        for img in images.reshape(len(images), -1)])
        np.testing.assert_array_equal(batched, seq)

    def test_counting_tile_size_is_invisible(self, tiny_trained_lenet,
                                             images):
        """chunk_budget tiles the counting loop without changing results."""
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 64,
                                       ("APC", "APC", "APC"))
        a = Engine(tiny_trained_lenet, cfg, backend="exact",
                   seed=5).forward(images[:2])
        b = Engine(tiny_trained_lenet, cfg, backend="exact", seed=5,
                   chunk_budget=1 << 12).forward(images[:2])
        np.testing.assert_array_equal(a, b)


class TestExactValidation:
    @pytest.fixture(scope="class")
    def engine(self, tiny_trained_lenet):
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 64,
                                       ("APC", "APC", "APC"))
        return Engine(tiny_trained_lenet, cfg, backend="exact", seed=0)

    def test_rejects_wrong_size(self, engine):
        with pytest.raises(ValueError, match="784"):
            engine.forward(np.zeros((2, 1, 10, 10)))

    def test_rejects_wrong_size_batch_totalling_784(self, engine):
        """A (4, 196) batch must not be reinterpreted as one 784-pixel
        image just because its total size matches."""
        with pytest.raises(ValueError, match="784"):
            engine.forward(np.zeros((4, 196)))

    def test_rejects_out_of_range(self, engine):
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            engine.forward(np.full((1, 1, 28, 28), 2.0))

    def test_single_2d_image_accepted(self, engine, images):
        out = engine.forward(images[0].reshape(28, 28))
        assert out.shape == (1, 10)


class TestForwardIndependent:
    """The serving contract: per-request stream state inside one batch."""

    @pytest.mark.parametrize("pooling,kinds,sng", [
        (PoolKind.MAX, ("APC", "APC", "APC"), "ideal"),
        (PoolKind.AVG, ("MUX", "APC", "APC"), "ideal"),
        (PoolKind.MAX, ("APC", "APC", "APC"), "lfsr"),
    ])
    def test_rows_match_fresh_single_request_engines(
            self, tiny_trained_lenet, images, pooling, kinds, sng):
        cfg = NetworkConfig.from_kinds(pooling, 64, kinds)
        shared = Engine(tiny_trained_lenet, cfg, backend="exact", seed=11,
                        sng=sng)
        batched = shared.backend.forward_independent(
            images.reshape(len(images), -1)[:3])
        fresh = np.stack([
            Engine(tiny_trained_lenet, cfg, backend="exact", seed=11,
                   sng=sng).forward(img[None])[0]
            for img in images.reshape(len(images), -1)[:3]
        ])
        np.testing.assert_array_equal(batched, fresh)

    def test_does_not_perturb_stateful_forward(self, tiny_trained_lenet,
                                               images):
        """Interleaving forward_independent calls leaves the engine's own
        stream sequence untouched."""
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 64,
                                       ("APC", "APC", "APC"))
        plain = Engine(tiny_trained_lenet, cfg, backend="exact",
                       seed=7).forward(images)
        interleaved = Engine(tiny_trained_lenet, cfg, backend="exact",
                             seed=7)
        interleaved.backend.forward_independent(
            images.reshape(len(images), -1)[:2])
        np.testing.assert_array_equal(plain, interleaved.forward(images))

    def test_repeated_calls_are_identical(self, tiny_trained_lenet,
                                          images):
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 64,
                                       ("APC", "APC", "APC"))
        backend = Engine(tiny_trained_lenet, cfg, backend="exact",
                         seed=3).backend
        flat = images.reshape(len(images), -1)[:3]
        np.testing.assert_array_equal(backend.forward_independent(flat),
                                      backend.forward_independent(flat))

    def test_batch_composition_is_invisible(self, tiny_trained_lenet,
                                            images):
        """A request's row does not depend on its batch-mates."""
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 64,
                                       ("APC", "APC", "APC"))
        backend = Engine(tiny_trained_lenet, cfg, backend="exact",
                         seed=5).backend
        flat = images.reshape(len(images), -1)
        whole = backend.forward_independent(flat[:4])
        np.testing.assert_array_equal(
            whole[2], backend.forward_independent(flat[2:3])[0])
        np.testing.assert_array_equal(
            whole[1:3], backend.forward_independent(flat[1:3]))
