"""The serving frontend over both executors: determinism, overrides,
stats and lifecycle.

The headline test is the serving contract: responses to concurrent
coalesced clients are bit-identical to dedicated single-request
``Engine.predict`` calls with the same per-request seed — in process
and across worker processes alike.
"""

import threading

import numpy as np
import pytest

from repro.core.config import NetworkConfig, PoolKind
from repro.engine import Engine
from repro.data.synthetic_mnist import to_bipolar
LENGTH = 32


def batcher_reports(stats: dict) -> list:
    """Every micro-batcher's report in a ``/stats`` payload: the
    service's own in process, one per worker with ``procs > 1``."""
    return [worker["batcher"] for worker in stats.get("workers", [stats])]


@pytest.fixture(scope="module")
def images(small_dataset):
    _, _, x_test, _ = small_dataset
    return to_bipolar(x_test)[:6].reshape(6, -1)


@pytest.fixture(scope="module")
def service(make_service, tiny_trained_lenet):
    svc = make_service(tiny_trained_lenet, backend="exact",
                       length=LENGTH, max_batch=8, max_wait_ms=20,
                       workers=1, warm=False)
    yield svc
    svc.close()


class TestDeterminism:
    def test_concurrent_clients_match_single_request_engines(
            self, service, tiny_trained_lenet, images):
        """Coalesced responses == fresh dedicated engine per request."""
        results = [None] * len(images)
        barrier = threading.Barrier(len(images))

        def client(i):
            barrier.wait()
            results[i] = service.predict_one(images[i])

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(len(images))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, LENGTH,
                                       ("APC", "APC", "APC"))
        oracle = [int(Engine(tiny_trained_lenet, cfg, backend="exact",
                             seed=0).predict(img[None])[0])
                  for img in images]
        assert results == oracle
        # and at least some coalescing actually happened
        assert max(int(size)
                   for report in batcher_reports(service.stats())
                   for size in report["batch_size_histogram"]) > 1

    def test_repeated_requests_are_stable(self, service, images):
        first = service.predict_one(images[0])
        assert all(service.predict_one(images[0]) == first
                   for _ in range(3))

    def test_per_request_seed_changes_streams(self, service,
                                              tiny_trained_lenet, images):
        """seed is part of the group key and reaches the engine."""
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, LENGTH,
                                       ("APC", "APC", "APC"))
        for seed in (0, 9):
            expected = int(Engine(tiny_trained_lenet, cfg, backend="exact",
                                  seed=seed).predict(images[1][None])[0])
            assert service.predict_one(images[1], seed=seed) == expected

    def test_multi_image_request(self, service, images):
        preds = service.predict(images[:4])
        singles = [service.predict_one(img) for img in images[:4]]
        assert preds.tolist() == singles


class TestOverridesAndValidation:
    def test_backend_override(self, service, tiny_trained_lenet, images):
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, LENGTH,
                                       ("APC", "APC", "APC"))
        expected = Engine(tiny_trained_lenet, cfg,
                          backend="float").predict(images[:3])
        out = service.predict(images[:3], backend="float")
        assert out.tolist() == expected.tolist()

    def test_unknown_backend_rejected(self, service, images):
        with pytest.raises(ValueError, match="unknown backend"):
            service.predict_one(images[0], backend="warp")

    def test_unknown_field_rejected(self, service, images):
        with pytest.raises(ValueError, match="unknown request fields"):
            service.predict(images[0], flavor="spicy")

    def test_bad_kinds_rejected(self, service, images):
        with pytest.raises(ValueError, match="MUX/APC"):
            service.predict(images[0], kinds="APC,OR,APC")

    def test_kinds_depth_mismatch_rejected(self, service, images):
        """A 2-kind spec cannot drive the 3-hidden-layer LeNet-5."""
        with pytest.raises(ValueError, match="hidden weight layers"):
            service.predict(images[0], kinds="APC,APC")

    def test_bad_pooling_rejected(self, service, images):
        with pytest.raises(ValueError, match="pooling"):
            service.predict(images[0], pooling="median")

    def test_bad_image_shape_rejected(self, service):
        with pytest.raises(ValueError, match="784"):
            service.predict(np.zeros(100))

    def test_out_of_range_pixels_rejected(self, service):
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            service.predict(np.full(784, 3.0))

    def test_unknown_default_backend_fails_fast(self, make_service,
                                                tiny_trained_lenet):
        with pytest.raises(ValueError, match="unknown backend"):
            make_service(tiny_trained_lenet, backend="warp")


class TestStatsAndLifecycle:
    def test_stats_shape(self, service, images):
        service.predict_one(images[0])
        stats = service.stats()
        assert stats["service"]["requests"] >= 1
        assert stats["service"]["latency_ms"]["p50"] > 0
        assert stats["service"]["latency_ms"]["p95"] >= \
            stats["service"]["latency_ms"]["p50"]
        assert sum(r["batches"] for r in batcher_reports(stats)) >= 1
        assert stats["pool"]["engines"] >= 1
        assert stats["defaults"]["backend"] == "exact"
        assert stats["defaults"]["length"] == LENGTH

    def test_errors_are_counted(self, service, images):
        before = service.stats()["service"]["errors"]
        with pytest.raises(ValueError):
            service.predict_one(images[0], backend="warp")
        assert service.stats()["service"]["errors"] == before + 1

    def test_closed_service_rejects_requests(self, make_service,
                                             tiny_trained_lenet, images):
        svc = make_service(tiny_trained_lenet, length=LENGTH, warm=False)
        svc.close()
        svc.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            svc.predict_one(images[0])

    def test_context_manager(self, make_service, tiny_trained_lenet,
                             images):
        with make_service(tiny_trained_lenet, length=LENGTH,
                          warm=False) as svc:
            assert svc.predict_one(images[0]) in range(10)
        with pytest.raises(RuntimeError):
            svc.predict_one(images[0])
