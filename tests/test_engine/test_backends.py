"""Backend registry and the float/surrogate/noise backends."""

import numpy as np
import pytest

from repro.core.config import NetworkConfig, PoolKind
from repro.data.synthetic_mnist import to_bipolar
from repro.engine import BACKENDS, Engine, get_backend, register_backend


@pytest.fixture(scope="module")
def sc_config():
    return NetworkConfig.from_kinds(PoolKind.MAX, 128,
                                    ("APC", "APC", "APC"))


@pytest.fixture(scope="module")
def images(small_dataset):
    _, _, x_test, _ = small_dataset
    return to_bipolar(x_test)[:32]


class TestRegistry:
    def test_builtins_registered(self):
        for name in ("exact", "surrogate", "float", "noise"):
            assert name in BACKENDS

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("quantum")

    def test_custom_backend_pluggable(self, tiny_trained_lenet, sc_config,
                                      images):
        @register_backend
        class ConstantBackend:
            name = "constant-test"

            def __init__(self, plan, seed=0):
                self.units = plan.layers[-1].units

            def forward(self, imgs):
                out = np.zeros((len(imgs), self.units))
                out[:, 3] = 1.0
                return out

        try:
            engine = Engine(tiny_trained_lenet, sc_config,
                            backend="constant-test")
            assert (engine.predict(images[:4]) == 3).all()
        finally:
            BACKENDS.pop("constant-test", None)

    def test_nameless_backend_rejected(self):
        with pytest.raises(ValueError, match="name"):
            register_backend(object)


class TestFloatBackend:
    def test_matches_software_model(self, tiny_trained_lenet, sc_config,
                                    images):
        """The float backend is the software baseline: same predictions
        as the trained network's own forward pass."""
        engine = Engine(tiny_trained_lenet, sc_config, backend="float")
        np.testing.assert_array_equal(engine.predict(images),
                                      tiny_trained_lenet.predict(
                                          images))

    def test_logits_close_to_model(self, tiny_trained_lenet, sc_config,
                                   images):
        engine = Engine(tiny_trained_lenet, sc_config, backend="float")
        np.testing.assert_allclose(
            engine.forward(images),
            tiny_trained_lenet.forward(images), atol=1e-9)

    def test_deterministic(self, tiny_trained_lenet, sc_config, images):
        engine = Engine(tiny_trained_lenet, sc_config, backend="float")
        np.testing.assert_array_equal(engine.forward(images),
                                      engine.forward(images))


class TestSurrogateBackend:
    def test_noiseless_deterministic(self, tiny_trained_lenet, sc_config,
                                     images):
        a = Engine(tiny_trained_lenet, sc_config, backend="surrogate",
                   seed=0, samples=120, noisy=False)
        b = Engine(tiny_trained_lenet, sc_config, backend="surrogate",
                   seed=0, samples=120, noisy=False)
        np.testing.assert_allclose(a.forward(images), b.forward(images))

    def test_curves_cached_on_plan(self, tiny_trained_lenet, sc_config):
        plan = Engine(tiny_trained_lenet, sc_config, backend="surrogate",
                      seed=0, samples=120).plan
        first = Engine(backend="surrogate", plan=plan, seed=0,
                       samples=120).backend.calibrations
        second = Engine(backend="surrogate", plan=plan, seed=0,
                        samples=120).backend.calibrations
        assert first is second


class TestNoiseBackend:
    def test_sigmas_exposed(self, tiny_trained_lenet, sc_config):
        engine = Engine(tiny_trained_lenet, sc_config, backend="noise",
                        seed=0, samples=48)
        assert len(engine.backend.stage_sigmas) == 3
        assert all(s >= 0 for s in engine.backend.stage_sigmas)


class TestEngineApi:
    def test_needs_model_or_plan(self, sc_config):
        with pytest.raises(ValueError, match="plan"):
            Engine(config=sc_config)

    def test_plan_shared_across_backends(self, tiny_trained_lenet,
                                         sc_config, images):
        """One compiled plan drives every backend family."""
        plan = Engine(tiny_trained_lenet, sc_config,
                      backend="float").plan
        engines = {}
        for name in ("float", "noise", "exact"):
            opts = {"samples": 48} if name == "noise" else {}
            engines[name] = Engine(backend=name, plan=plan, seed=0, **opts)
            assert engines[name].plan is plan
        out = engines["exact"].predict(images[:2])
        assert out.shape == (2,)

    def test_error_rate_max_images(self, tiny_trained_lenet, sc_config,
                                   images, small_dataset):
        _, _, _, y_test = small_dataset
        engine = Engine(tiny_trained_lenet, sc_config, backend="float")
        err = engine.error_rate(images, y_test[:len(images)], max_images=8)
        assert 0.0 <= err <= 100.0
