"""Multi-model serving: model digests in pool keys, two-model service.

The regression these tests pin down: before the model zoo, ``EnginePool``
keyed plans and engines on the config digest alone — two different
models with identical configs-ex-length would silently share quantized
weights and weight streams.  Every key now includes
:func:`repro.nn.zoo.model_digest`.
"""

import numpy as np
import pytest

from repro.core.config import NetworkConfig, PoolKind
from repro.engine import Engine
from repro.nn.zoo import model_digest
from repro.serve.pool import EnginePool
from repro.serve.service import InferenceService


def _cfg(length=32, kinds=("APC", "APC", "APC"), pooling=PoolKind.MAX):
    return NetworkConfig.from_kinds(pooling, length, kinds)


@pytest.fixture(scope="module")
def images(small_dataset):
    from repro.data.synthetic_mnist import to_bipolar
    _, _, x_test, _ = small_dataset
    return to_bipolar(x_test)[:4].reshape(4, -1)


class TestModelDigest:
    def test_retraining_changes_digest(self, zoo_trained):
        from repro.nn.zoo import build_zoo_model
        trained = zoo_trained["lenet_s"]
        fresh = build_zoo_model("lenet_s", "max", seed=0)
        assert model_digest(trained) != model_digest(fresh)

    def test_architectures_have_distinct_digests(self, zoo_trained):
        digests = {model_digest(m) for m in zoo_trained.values()}
        assert len(digests) == len(zoo_trained)

    def test_digest_is_stable(self, zoo_trained):
        m = zoo_trained["mlp"]
        assert model_digest(m) == model_digest(m)


class TestPoolModelKeys:
    def test_two_models_same_config_get_distinct_plans(self, zoo_trained):
        """The pre-fix failure mode: same config digest, different model
        — the pool must not hand model B model A's quantized weights."""
        pool = EnginePool({"a": zoo_trained["lenet_s"],
                           "b": zoo_trained["conv3"]})
        cfg_a = _cfg(kinds=("APC",) * 3)
        cfg_b = _cfg(kinds=("APC",) * 4)
        ea = pool.get(cfg_a, backend="float", model="a")
        eb = pool.get(cfg_b, backend="float", model="b")
        assert ea is not eb
        assert ea.plan is not eb.plan
        # same *architecture*, differently-trained weights: still split
        from repro.nn.zoo import build_zoo_model
        pool2 = EnginePool({"trained": zoo_trained["lenet_s"],
                            "fresh": build_zoo_model("lenet_s", "max", 0)})
        et = pool2.get(cfg_a, backend="float", model="trained")
        ef = pool2.get(cfg_a, backend="float", model="fresh")
        assert et.plan is not ef.plan
        assert not np.array_equal(et.plan.layers[0].weights,
                                  ef.plan.layers[0].weights)

    def test_same_model_still_shares_engine(self, zoo_trained):
        pool = EnginePool({"a": zoo_trained["lenet_s"],
                           "b": zoo_trained["mlp"]})
        first = pool.get(_cfg(), backend="float", model="a")
        assert pool.get(_cfg(), backend="float", model="a") is first
        assert pool.stats()["hits"] == 1

    def test_default_model_is_first_entry(self, zoo_trained):
        pool = EnginePool({"a": zoo_trained["lenet_s"],
                           "b": zoo_trained["mlp"]})
        assert pool.default_model == "a"
        assert pool.get(_cfg(), backend="float") is \
            pool.get(_cfg(), backend="float", model="a")

    def test_unknown_model_rejected(self, zoo_trained):
        pool = EnginePool({"a": zoo_trained["lenet_s"]})
        with pytest.raises(ValueError, match="unknown model"):
            pool.get(_cfg(), backend="float", model="nope")

    def test_single_model_construction_unchanged(self, zoo_trained):
        pool = EnginePool(zoo_trained["lenet_s"])
        assert pool.default_model == "default"
        assert pool.models["default"] is zoo_trained["lenet_s"]
        assert pool.get(_cfg(), backend="float") is not None

    def test_length_siblings_still_share_plans_per_model(self, zoo_trained):
        pool = EnginePool({"a": zoo_trained["lenet_s"],
                           "b": zoo_trained["mlp"]})
        a32 = pool.get(_cfg(32), backend="float", model="a")
        a64 = pool.get(_cfg(64), backend="float", model="a")
        pool.get(_cfg(32, kinds=("APC", "APC")), backend="float", model="b")
        stats = pool.stats()
        # a's L=64 re-derives from a's L=32 plan; b compiles fresh
        assert (stats["plans_compiled"], stats["plans_rederived"]) == (2, 1)
        for la, lb in zip(a32.plan.layers, a64.plan.layers):
            assert la is lb


class TestTwoModelService:
    def test_requests_route_to_their_model(self, zoo_trained, images):
        models = {"lenet_s": zoo_trained["lenet_s"],
                  "mlp": zoo_trained["mlp"]}
        with InferenceService(models, backend="exact", length=32,
                              max_wait_ms=1.0) as service:
            for name, model in models.items():
                got = service.predict(images, model=name, seed=5)
                cfg = _cfg(32, kinds=("APC",) * (3 if name == "lenet_s"
                                                 else 2))
                engine = Engine(model, cfg, backend="exact", seed=5)
                # the serving contract: every coalesced image is
                # bit-identical to a fresh single-image predict with the
                # same per-request seed — per model, through the shared
                # batcher and pool
                want = [int(engine.backend.forward_independent(
                    img[None])[0].argmax()) for img in images]
                assert np.array_equal(got, want), name

    def test_unknown_model_is_a_value_error(self, zoo_trained, images):
        with InferenceService({"mlp": zoo_trained["mlp"]},
                              backend="float") as service:
            with pytest.raises(ValueError, match="unknown model"):
                service.predict(images[0], model="lenet_s")

    def test_default_kinds_follow_target_model_depth(self, zoo_trained,
                                                     images):
        """kinds=None resolves per request: 3 hidden layers for lenet_s,
        2 for mlp — no cross-model kinds leakage."""
        models = {"lenet_s": zoo_trained["lenet_s"],
                  "mlp": zoo_trained["mlp"]}
        with InferenceService(models, backend="float") as service:
            assert service.predict(images[0], model="lenet_s").shape == (1,)
            assert service.predict(images[0], model="mlp").shape == (1,)
            stats = service.stats()
            assert stats["pool"]["models"] == ["lenet_s", "mlp"]

    def test_explicit_kinds_validated_against_model(self, zoo_trained,
                                                    images):
        with InferenceService({"mlp": zoo_trained["mlp"]},
                              backend="float") as service:
            with pytest.raises(ValueError, match="hidden weight layers"):
                service.predict(images[0], kinds="APC,APC,APC")

    def test_payloads_validated_against_model_geometry(self):
        """A model with non-28×28 input geometry accepts its own pixel
        count and rejects the default 784 — validation follows the
        resolved model, not a hardcoded LeNet shape."""
        from repro.nn.activations import Tanh
        from repro.nn.dense import Dense
        from repro.nn.module import Flatten, Sequential

        tiny = Sequential([Flatten(), Dense(100, 16), Tanh(),
                           Dense(16, 10)])
        tiny.input_hw = (10, 10)
        with InferenceService({"tiny": tiny}, backend="float",
                              warm=False) as service:
            preds = service.predict(np.zeros(100))
            assert preds.shape == (1,)
            with pytest.raises(ValueError, match="100-pixel"):
                service.predict(np.zeros(784))
