"""EnginePool keying, plan reuse via with_length, LRU eviction, races.

Float-domain backends are used for cache-mechanics tests (their engines
construct in microseconds — no weight streams); one exact-backend test
covers the expensive family.
"""

import threading

import numpy as np
import pytest

from repro.core.config import NetworkConfig, PoolKind, config_digest
from repro.serve.pool import EnginePool


def _cfg(length=32, kinds=("APC", "APC", "APC"), pooling=PoolKind.MAX,
         name=""):
    return NetworkConfig.from_kinds(pooling, length, kinds, name=name)


@pytest.fixture(scope="module")
def pool_model(tiny_trained_lenet):
    return tiny_trained_lenet


class TestKeying:
    def test_digest_ignores_length_and_name(self):
        assert config_digest(_cfg(32)) == config_digest(_cfg(256))
        assert config_digest(_cfg(name="No.11")) == config_digest(_cfg())

    def test_digest_separates_design_points(self):
        assert config_digest(_cfg()) != \
            config_digest(_cfg(kinds=("MUX", "APC", "APC")))
        assert config_digest(_cfg()) != \
            config_digest(_cfg(pooling=PoolKind.AVG))

    def test_same_spec_hits_one_engine(self, pool_model):
        pool = EnginePool(pool_model)
        first = pool.get(_cfg(), backend="float")
        second = pool.get(_cfg(), backend="float")
        assert first is second
        stats = pool.stats()
        assert (stats["hits"], stats["misses"]) == (1, 1)
        assert stats["hit_rate"] == 0.5

    def test_key_fields_separate_engines(self, pool_model):
        pool = EnginePool(pool_model)
        base = pool.get(_cfg(), backend="float")
        assert pool.get(_cfg(), backend="noise") is not base
        assert pool.get(_cfg(64), backend="float") is not base
        assert pool.get(_cfg(), backend="float", seed=1) is not base
        assert pool.get(_cfg(), backend="float", weight_bits=7) is not base
        assert pool.stats()["misses"] == 5

    def test_normalized_weight_bits_share_an_engine(self, pool_model):
        """An int spec and its normalized 4-tuple are the same key."""
        pool = EnginePool(pool_model)
        a = pool.get(_cfg(), backend="float", weight_bits=7)
        b = pool.get(_cfg(), backend="float", weight_bits=(7, 7, 7, 7))
        assert a is b


class TestPlanReuse:
    def test_length_variant_rederives_not_recompiles(self, pool_model):
        pool = EnginePool(pool_model)
        a = pool.get(_cfg(32), backend="float")
        b = pool.get(_cfg(64), backend="float")
        stats = pool.stats()
        assert (stats["plans_compiled"], stats["plans_rederived"]) == (1, 1)
        # all-APC state numbers are length-free, so the layer plans — and
        # with them every quantized weight array — are shared outright
        for la, lb in zip(a.plan.layers, b.plan.layers):
            assert la is lb

    def test_quantized_raw_weights_shared_across_lengths(self, pool_model):
        """MUX state numbers depend on L (full recompile), yet raw
        quantization is still shared through the plan's raw cache."""
        pool = EnginePool(pool_model)
        kinds = ("MUX", "APC", "APC")
        a = pool.get(_cfg(32, kinds), backend="float", weight_bits=7)
        b = pool.get(_cfg(256, kinds), backend="float", weight_bits=7)
        assert a.plan is not b.plan
        for la, lb in zip(a.plan.layers, b.plan.layers):
            assert la.raw_weights is lb.raw_weights
            assert la.raw_bias is lb.raw_bias

    def test_same_backend_family_shares_one_plan(self, pool_model):
        pool = EnginePool(pool_model)
        a = pool.get(_cfg(), backend="float")
        b = pool.get(_cfg(), backend="noise")
        assert a.plan is b.plan
        assert pool.stats()["plans_compiled"] == 1


class TestEviction:
    def test_lru_evicts_oldest_engine(self, pool_model):
        pool = EnginePool(pool_model, max_engines=2)
        first = pool.get(_cfg(), backend="float", seed=0)
        pool.get(_cfg(), backend="float", seed=1)
        pool.get(_cfg(), backend="float", seed=2)  # evicts seed=0
        assert pool.stats()["evictions"] == 1
        again = pool.get(_cfg(), backend="float", seed=0)  # fresh build
        assert again is not first
        assert pool.stats()["misses"] == 4

    def test_recent_use_protects_from_eviction(self, pool_model):
        pool = EnginePool(pool_model, max_engines=2)
        first = pool.get(_cfg(), backend="float", seed=0)
        pool.get(_cfg(), backend="float", seed=1)
        pool.get(_cfg(), backend="float", seed=0)   # refresh seed=0
        pool.get(_cfg(), backend="float", seed=2)   # evicts seed=1
        assert pool.get(_cfg(), backend="float", seed=0) is first

    def test_rejects_zero_capacity(self, pool_model):
        with pytest.raises(ValueError):
            EnginePool(pool_model, max_engines=0)


class TestSharedEngines:
    def test_concurrent_gets_build_once(self, pool_model):
        pool = EnginePool(pool_model)
        engines = [None] * 8
        barrier = threading.Barrier(8)

        def grab(i):
            barrier.wait()
            engines[i] = pool.get(_cfg(), backend="float")

        threads = [threading.Thread(target=grab, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(e is engines[0] for e in engines)
        assert pool.stats()["misses"] == 1

    def test_exact_engine_predicts_through_pool(self, pool_model,
                                                small_dataset):
        from repro.data.synthetic_mnist import to_bipolar
        _, _, x_test, _ = small_dataset
        images = to_bipolar(x_test)[:2].reshape(2, -1)
        pool = EnginePool(pool_model)
        engine = pool.get(_cfg(32), backend="exact")
        preds = engine.predict(images)
        assert preds.shape == (2,)
        assert pool.get(_cfg(32), backend="exact") is engine
        # per-request determinism on the shared engine
        independent = np.argmax(
            engine.backend.forward_independent(images), axis=1)
        again = np.argmax(
            engine.backend.forward_independent(images), axis=1)
        assert np.array_equal(independent, again)
