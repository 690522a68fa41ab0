"""Tests for exact bit-level SC inference of the paper's LeNet-5."""

import numpy as np
import pytest

from repro.core.config import FEBKind, NetworkConfig, PoolKind
from repro.data.synthetic_mnist import to_bipolar
from repro.engine import Engine
from repro.engine.plan import layer_gain_compensation, pool_window_indices
from repro.nn.dense import Dense
from repro.nn.module import Sequential


class TestPoolWindowIndices:
    def test_two_by_two(self):
        win = pool_window_indices(1, 1)
        np.testing.assert_array_equal(win, [[0, 1, 2, 3]])

    def test_larger_grid(self):
        win = pool_window_indices(2, 2)
        # 4×4 grid, row-major: window (0,0) = positions 0,1,4,5
        np.testing.assert_array_equal(win[0], [0, 1, 4, 5])
        np.testing.assert_array_equal(win[3], [10, 11, 14, 15])

    def test_covers_all_positions(self):
        win = pool_window_indices(6, 6)
        assert sorted(win.reshape(-1).tolist()) == list(range(144))


class TestGainCompensation:
    def test_apc_layer_untouched_when_in_range(self, rng):
        w = rng.uniform(-0.3, 0.3, (4, 8))
        b = rng.uniform(-0.1, 0.1, 4)
        w2, b2, deficit, factor = layer_gain_compensation(
            w, b, FEBKind.APC, 9, 18
        )
        np.testing.assert_allclose(w2, w)
        assert deficit == pytest.approx(1.0)
        assert factor == pytest.approx(1.0)

    def test_mux_layer_scaled_up(self, rng):
        w = rng.uniform(-0.1, 0.1, (4, 24))
        b = rng.uniform(-0.05, 0.05, 4)
        w2, _, deficit, factor = layer_gain_compensation(
            w, b, FEBKind.MUX, 25, 10
        )
        assert factor > 1.0
        assert np.abs(w2).max() <= 0.97 + 1e-9

    def test_mux_target_capped(self):
        """Tiny weights: full 2n/K recovery, deficit 1."""
        w = np.full((2, 10), 0.01)
        b = np.zeros(2)
        _, _, deficit, factor = layer_gain_compensation(
            w, b, FEBKind.MUX, 10, 4
        )
        assert factor == pytest.approx(5.0)   # 2·10/4
        assert deficit == pytest.approx(1.0)

    def test_unrecoverable_deficit_reported(self):
        """Large weights cannot absorb the scaling: deficit > 1."""
        w = np.full((2, 10), 0.9)
        b = np.zeros(2)
        _, _, deficit, _ = layer_gain_compensation(
            w, b, FEBKind.MUX, 10, 4
        )
        assert deficit > 3.0

    def test_incoming_deficit_absorbed_by_weights_only(self):
        w = np.full((2, 4), 0.1)
        b = np.full(2, 0.1)
        w2, b2, deficit, _ = layer_gain_compensation(
            w, b, FEBKind.APC, 5, 10, incoming_deficit=2.0
        )
        assert np.allclose(w2, 0.2)   # × incoming deficit
        assert np.allclose(b2, 0.1)   # biases untouched for APC
        assert deficit == pytest.approx(1.0)


class TestExactConstruction:
    def test_rejects_model_config_mismatch(self):
        model = Sequential([Dense(784, 2)])
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 64,
                                       ("APC", "APC", "APC"))
        with pytest.raises(ValueError, match="layer kinds"):
            Engine(model, cfg)

    def test_plans_built(self, tiny_trained_lenet):
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 64,
                                       ("MUX", "APC", "APC"))
        plan = Engine(tiny_trained_lenet, cfg, seed=0).plan
        assert len(plan.gain_deficits) == 4
        names = [p.name for p in plan.layers]
        assert names == ["Layer0", "Layer1", "Layer2", "Output"]
        assert plan.layers[0].n_inputs == 26   # 25 + bias
        assert plan.layers[2].n_inputs == 801


class TestExactInference:
    def test_forward_shape(self, tiny_trained_lenet, small_dataset):
        _, _, x_test, _ = small_dataset
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 64,
                                       ("APC", "APC", "APC"))
        logits = Engine(tiny_trained_lenet, cfg, seed=0).forward(
            to_bipolar(x_test)[0])
        assert logits.shape == (1, 10)

    def test_deterministic(self, tiny_trained_lenet, small_dataset):
        _, _, x_test, _ = small_dataset
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 128,
                                       ("APC", "APC", "APC"))
        a = Engine(tiny_trained_lenet, cfg, seed=7).forward(
            to_bipolar(x_test)[0])
        b = Engine(tiny_trained_lenet, cfg, seed=7).forward(
            to_bipolar(x_test)[0])
        np.testing.assert_array_equal(a, b)

    def test_predictions_beat_chance(self, cached_lenet):
        """At L=512 the all-APC network tracks the software model
        closely (the paper's central claim for APC configurations)."""
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 512,
                                       ("APC", "APC", "APC"))
        engine = Engine(cached_lenet.model, cfg, seed=0)
        x = cached_lenet.bipolar_test_images()
        err = engine.error_rate(x, cached_lenet.y_test, max_images=16)
        assert err < 40.0

    def test_weight_bits_quantization_applies(self, tiny_trained_lenet):
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 64,
                                       ("APC", "APC", "APC"))
        plan = Engine(tiny_trained_lenet, cfg, seed=0, weight_bits=4).plan
        # 4-bit storage: every weight is a multiple of 2/16 minus 1.
        w = plan.layers[0].weights
        codes = (w + 1.0) / 2.0 * 16
        np.testing.assert_allclose(codes, np.round(codes), atol=1e-9)
