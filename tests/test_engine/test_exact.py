"""Invariances of the batched exact backend.

Batching, internal chunking, tile sizes and the serving path's
per-request stream state must never move an output bit.  The logits
themselves are pinned by the golden digest table
(``tests/test_conformance/test_golden_logits.py``).
"""

import tracemalloc

import numpy as np
import pytest

import repro.native as native
from repro.core.config import FEBKind, NetworkConfig, PoolKind
from repro.data.synthetic_mnist import to_bipolar
from repro.engine import Engine
from repro.engine.exact import ExactBackend
from repro.sc import activation
from repro.sc.rng import IdealSNG, LfsrSNG, StreamFactory


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
                                                   images, monkeypatch):
        """A tiny batch budget forces internal chunking; results match."""
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 64,
                                       ("APC", "APC", "APC"))
        whole = Engine(tiny_trained_lenet, cfg, backend="exact",
                       seed=5).forward(images)
        monkeypatch.setattr(ExactBackend, "BATCH_BUDGET", 1)
        split = Engine(tiny_trained_lenet, cfg, backend="exact",
                       seed=5).forward(images)
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
                                             images, monkeypatch):
        """CHUNK_BUDGET tiles the counting loop without changing results."""
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 64,
                                       ("APC", "APC", "APC"))
        a = Engine(tiny_trained_lenet, cfg, backend="exact",
                   seed=5).forward(images[:2])
        monkeypatch.setattr(ExactBackend, "CHUNK_BUDGET", 1 << 12)
        b = Engine(tiny_trained_lenet, cfg, backend="exact",
                   seed=5).forward(images[:2])
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

    @pytest.mark.parametrize("kinds", [("APC", "APC", "APC"),
                                       ("MUX", "MUX", "APC")])
    @pytest.mark.parametrize("length", [8, 24, 40])
    def test_max_pool_length_must_divide_into_segments(
            self, tiny_trained_lenet, kinds, length, monkeypatch):
        """A length every forward would reject fails at construction,
        before any stream is drawn."""
        def no_draws(*args, **kwargs):
            raise AssertionError("a stream was drawn")

        monkeypatch.setattr(StreamFactory, "packed", no_draws)
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, length, kinds)
        with pytest.raises(ValueError, match="multiple of segment 16"):
            Engine(tiny_trained_lenet, cfg, backend="exact", seed=0)

    def test_mux_max_pool_segment_must_be_byte_aligned(
            self, tiny_trained_lenet):
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 48,
                                       ("MUX", "MUX", "APC"))
        with pytest.raises(ValueError, match="multiple of 8"):
            Engine(tiny_trained_lenet, cfg, backend="exact", segment=12)

    def test_average_pooling_ignores_segment(self, tiny_trained_lenet):
        cfg = NetworkConfig.from_kinds(PoolKind.AVG, 40,
                                       ("APC", "APC", "APC"))
        Engine(tiny_trained_lenet, cfg, backend="exact", seed=0)


class TestForwardIndependent:
    """The serving contract: per-request stream state inside one batch."""

    @pytest.mark.parametrize("pooling,kinds,sng", [
        (PoolKind.MAX, ("APC", "APC", "APC"), "ideal"),
        (PoolKind.AVG, ("MUX", "APC", "APC"), "ideal"),
        (PoolKind.MAX, ("APC", "APC", "APC"), "lfsr"),
        (PoolKind.MAX, ("MUX", "MUX", "APC"), "lfsr"),
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

    @pytest.mark.parametrize("pooling", [PoolKind.AVG, PoolKind.MAX])
    def test_mux_layers_gather_once_per_batch(self, tiny_trained_lenet,
                                              images, pooling, monkeypatch):
        """Each MUX layer makes two ``ops.mux_select`` calls (inputs and
        weights) whatever the batch size: no per-image loop."""
        from repro.engine import exact

        calls = []
        select = exact.ops.mux_select

        def counting(*args, **kwargs):
            calls.append(1)
            return select(*args, **kwargs)

        monkeypatch.setattr(exact.ops, "mux_select", counting)
        cfg = NetworkConfig.from_kinds(pooling, 32, ("MUX", "MUX", "MUX"))
        backend = Engine(tiny_trained_lenet, cfg, backend="exact",
                         seed=4).backend
        counts = []
        for batch in (1, 8):
            calls.clear()
            backend.forward_independent(
                np.resize(images.reshape(len(images), -1), (batch, 784)))
            counts.append(len(calls))
        assert counts == [2 * 3, 2 * 3]

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

    @pytest.mark.parametrize("pooling,kinds,sng", [
        (PoolKind.MAX, ("APC", "APC", "APC"), "ideal"),
        (PoolKind.AVG, ("MUX", "MUX", "APC"), "lfsr"),
    ])
    def test_draws_nothing_per_request(self, tiny_trained_lenet, images,
                                       pooling, kinds, sng, monkeypatch):
        """Every request's SNG values and MUX selects are the ones cached
        at construction: serving a batch draws no stream."""
        cfg = NetworkConfig.from_kinds(pooling, 64, kinds)
        backend = Engine(tiny_trained_lenet, cfg, backend="exact", seed=6,
                         sng=sng).backend
        flat = images.reshape(len(images), -1)[:3]
        before = backend.forward_independent(flat)

        def no_draws(*args, **kwargs):
            raise AssertionError("a stream was drawn")

        for owner, name in ((IdealSNG, "generate"), (LfsrSNG, "generate"),
                            (StreamFactory, "select_signal")):
            monkeypatch.setattr(owner, name, no_draws)
        np.testing.assert_array_equal(backend.forward_independent(flat),
                                      before)


class TestConstructionMemory:
    def test_lenet5_engine_builds_in_bounded_memory(self,
                                                    tiny_trained_lenet):
        """Weight banks are drawn in bounded chunks: building the LeNet-5
        L=64 engine never holds its 27.6 M-draw float64 block (~210 MB)."""
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 64,
                                       ("APC", "APC", "APC"))
        tracemalloc.start()
        try:
            Engine(tiny_trained_lenet, cfg, backend="exact", seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_numpy_tier_engine_builds_in_bounded_memory(self,
                                                       tiny_trained_lenet):
        """The NumPy tier transposes each counting bank in ``TILE_BYTES``
        chunks: fc1's unpacked bits (25.6 MB at once) are never held
        whole, so the L=64 build peaks near 29 MB instead of 41 MB."""
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 64,
                                       ("APC", "APC", "APC"))
        with native.override(False):
            tracemalloc.start()
            try:
                Engine(tiny_trained_lenet, cfg, backend="exact", seed=0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"


@pytest.mark.skipif(not native.available(),
                    reason="native kernel tier not built")
class TestNativeTierRecord:
    def _backends(self, model, kinds, pooling=PoolKind.AVG):
        cfg = NetworkConfig.from_kinds(pooling, 64, kinds)
        with native.override(False):
            ref = Engine(model, cfg, backend="exact", seed=2).backend
        with native.override(True):
            got = Engine(model, cfg, backend="exact", seed=2).backend
        return ref, got

    @pytest.mark.parametrize("model_name,kinds,pooling", [
        ("lenet5", ("MUX", "MUX", "APC"), PoolKind.AVG),
        ("lenet5", ("APC", "APC", "APC"), PoolKind.AVG),
        ("lenet5", ("APC", "APC", "APC"), PoolKind.MAX),
        # conv3's last conv is unpooled: an FC layer over its patch rows
        ("conv3", ("APC", "APC", "APC", "APC"), PoolKind.AVG),
        ("conv3", ("APC", "APC", "APC", "APC"), PoolKind.MAX),
    ], ids=["lenet5-MMA-avg", "lenet5-AAA-avg", "lenet5-AAA-max",
            "conv3-avg", "conv3-max"])
    def test_apc_layers_build_no_count_tensor(self, tiny_trained_lenet,
                                              zoo_trained, images,
                                              model_name, kinds, pooling,
                                              monkeypatch):
        """On the native tier every APC layer — pooled conv (either pool
        kind), unpooled conv, FC and output — is one fused call: the
        NumPy counting and the NumPy Btanh are never reached, and the
        logits match the NumPy tier's bit for bit."""
        from repro.engine import exact

        model = (tiny_trained_lenet if model_name == "lenet5"
                 else zoo_trained[model_name])
        ref, got = self._backends(model, kinds, pooling)
        flat = images.reshape(len(images), -1)
        expected = ref.forward_independent(flat)

        def unreachable(*args, **kwargs):
            raise AssertionError("a count tensor was built")

        monkeypatch.setattr(exact, "numpy_apc_counts", unreachable)
        monkeypatch.setattr(activation, "btanh_counts", unreachable)
        np.testing.assert_array_equal(got.forward_independent(flat),
                                      expected)

    def test_tier_is_fixed_at_construction(self, tiny_trained_lenet,
                                           images):
        """A backend keeps one bank per counting layer, in the form its
        construction-time tier reads, whatever the dispatch later says:
        a conv lane bank for the pooled APC conv stage, a counting bank
        for every other counting layer."""
        ref, got = self._backends(tiny_trained_lenet, ("APC", "MUX", "APC"),
                                  PoolKind.MAX)
        assert got.native_tier and not ref.native_tier
        kinds = []
        for lp, bank, w in zip(got.plan.layers, got._banks,
                               got.weight_streams):
            counting = lp.kind is FEBKind.APC or lp.final
            kinds.append(type(bank).__name__ if counting else None)
            assert (w is None) == counting
        assert kinds == ["ConvBank", None, "WeightBank", "WeightBank"]
        flat = images.reshape(len(images), -1)
        with native.override(False):
            np.testing.assert_array_equal(got.forward_independent(flat),
                                          ref.forward_independent(flat))
