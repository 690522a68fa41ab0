"""Tests for the calibrated surrogate and the paper-noise evaluator."""

import numpy as np
import pytest

from repro.core.config import NetworkConfig, PoolKind
from repro.data.synthetic_mnist import to_bipolar
from repro.engine import Engine
from repro.engine.calibration import FEBCalibration, calibrate_feb


class TestFEBCalibration:
    def test_apply_interpolates(self):
        cal = FEBCalibration([-1.0, 0.0, 1.0], [-0.9, 0.0, 0.9],
                             [0.01, 0.01, 0.01])
        out = cal.apply(np.array([0.5]))
        assert out[0] == pytest.approx(0.45)

    def test_noise_sampled_when_rng_given(self):
        cal = FEBCalibration([-1.0, 1.0], [-0.5, 0.5], [0.3, 0.3])
        rng = np.random.default_rng(0)
        a = cal.apply(np.zeros(200), rng)
        assert a.std() > 0.1

    def test_output_clipped(self):
        cal = FEBCalibration([-1.0, 1.0], [-2.0, 2.0], [0.0, 0.0])
        out = cal.apply(np.array([-1.0, 1.0]))
        assert np.abs(out).max() <= 1.0

    def test_save_load_round_trip(self, tmp_path):
        cal = FEBCalibration([-1.0, 1.0], [-0.7, 0.7], [0.1, 0.2])
        path = tmp_path / "cal.npz"
        cal.save(path)
        loaded = FEBCalibration.load(path)
        np.testing.assert_allclose(loaded.mean, cal.mean)


class TestCalibrateFeb:
    def test_curve_is_monotone_ish(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cal = calibrate_feb("apc-max", 16, 128, samples=120, seed=0)
        # Ends of the measured transfer must bracket the middle.
        assert cal.mean[0] < cal.mean[-1]
        assert cal.mean[0] < 0 < cal.mean[-1]

    def test_fc_calibration(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cal = calibrate_feb("fc-apc", 32, 128, samples=100, seed=0)
        assert cal.mean[-1] > 0.5  # saturates positive

    def test_cache_hit(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        calibrate_feb("apc-avg", 16, 128, samples=60, seed=1)
        before = len(list(tmp_path.glob("*.npz")))
        calibrate_feb("apc-avg", 16, 128, samples=60, seed=1)
        assert len(list(tmp_path.glob("*.npz"))) == before


@pytest.fixture(scope="module")
def sc_config():
    return NetworkConfig.from_kinds(PoolKind.MAX, 128,
                                    ("APC", "APC", "APC"))


class TestSurrogateEngine:
    def test_error_close_to_exact_sim(self, tiny_trained_lenet,
                                      small_dataset, sc_config):
        """The surrogate must track the bit-exact simulator."""
        _, _, x_test, y_test = small_dataset
        x = to_bipolar(x_test)
        exact = Engine(tiny_trained_lenet, sc_config, backend="exact",
                       seed=0)
        exact_err = exact.error_rate(x, y_test, max_images=24)
        fast = Engine(tiny_trained_lenet, sc_config, backend="surrogate",
                      seed=0, samples=160)
        fast_err = fast.error_rate(x[:120], y_test[:120])
        assert abs(fast_err - exact_err) < 25.0

    def test_noiseless_mode_deterministic(self, tiny_trained_lenet,
                                          small_dataset, sc_config):
        """With noise disabled, repeated evaluations are identical
        (the measured transfer curve is deterministic for one seed)."""
        _, _, x_test, _ = small_dataset
        x = to_bipolar(x_test)[:16]
        model = Engine(tiny_trained_lenet, sc_config, backend="surrogate",
                       seed=0, noisy=False)
        np.testing.assert_allclose(model.forward(x), model.forward(x))
        again = Engine(tiny_trained_lenet, sc_config, backend="surrogate",
                       seed=0, noisy=False)
        np.testing.assert_allclose(model.forward(x), again.forward(x))


class TestNoiseEngine:
    def test_longer_streams_fewer_errors(self, tiny_trained_lenet,
                                         small_dataset):
        """Table 6's central trend under the paper's methodology."""
        _, _, x_test, y_test = small_dataset
        x = to_bipolar(x_test)
        errs = {}
        for L in (64, 512):
            cfg = NetworkConfig.from_kinds(PoolKind.MAX, L,
                                           ("APC", "APC", "APC"))
            pn = Engine(tiny_trained_lenet, cfg, backend="noise", seed=0,
                        samples=48)
            errs[L] = pn.error_rate(x, y_test)
        assert errs[512] <= errs[64] + 2.0

    def test_mux_noisier_than_apc(self, tiny_trained_lenet):
        """Figure 14 through the noise lens: MUX sigma > APC sigma."""
        mux_cfg = NetworkConfig.from_kinds(PoolKind.MAX, 128,
                                           ("MUX", "APC", "APC"))
        apc_cfg = NetworkConfig.from_kinds(PoolKind.MAX, 128,
                                           ("APC", "APC", "APC"))
        mux = Engine(tiny_trained_lenet, mux_cfg, backend="noise", seed=0,
                     samples=48)
        apc = Engine(tiny_trained_lenet, apc_cfg, backend="noise", seed=0,
                     samples=48)
        assert (mux.backend.stage_sigmas[0]
                > apc.backend.stage_sigmas[0])
