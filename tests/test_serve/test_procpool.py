"""Multi-process serving tier: routing, bit-identity, chaos, cleanup.

The bar carried over from the single-process tier: every exact-backend
reply is bit-identical to a dedicated single-request engine run no
matter which worker served it, no accepted request's reply is dropped
even when a worker is killed mid-flight, and shutting the facade down
leaves no shared-memory segment behind: every worker acts on its close
message and exits 0 well inside a second.
"""

import multiprocessing
import os
import signal
import threading
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core.config import NetworkConfig, PoolKind
from repro.data.synthetic_mnist import to_bipolar
from repro.engine import Engine, build_graph, compile_plan
from repro.engine.plan import unpack_plan
from repro.serve import ProcServeFacade, QueueFull, ServiceDraining
from repro.serve import procpool
from repro.serve.procpool import PlanArena

LENGTH = 32


def _cfg(length=LENGTH, kinds=("APC", "APC", "APC")):
    return NetworkConfig.from_kinds(PoolKind.MAX, length, kinds)


@pytest.fixture(scope="module")
def images(small_dataset):
    _, _, x_test, _ = small_dataset
    return to_bipolar(x_test)[:8].reshape(8, -1)


@pytest.fixture(scope="module")
def facade(tiny_trained_lenet):
    with ProcServeFacade(tiny_trained_lenet, procs=2, length=LENGTH,
                         max_wait_ms=1.0) as facade:
        yield facade


class TestPlanArena:
    def test_segments_hold_bit_identical_plans(self, tiny_trained_lenet):
        arena = PlanArena()
        try:
            config = _cfg()
            arena.add("default", tiny_trained_lenet, config, (None,) * 4)
            assert len(arena.segment_names()) == 1
            shm = arena._segments[0]
            graph = build_graph(tiny_trained_lenet, config)
            plan = unpack_plan(graph, shm.buf)
            fresh = compile_plan(graph)
            for a, b in zip(plan.layers, fresh.layers):
                np.testing.assert_array_equal(a.weights, b.weights)
            # release the zero-copy views before the segment closes
            del plan, a, b
        finally:
            arena.close(unlink=True)

    def test_close_unlinks_segments(self, tiny_trained_lenet):
        arena = PlanArena()
        arena.add("default", tiny_trained_lenet, _cfg(), (None,) * 4)
        paths = [f"/dev/shm/{name}" for name in arena.segment_names()]
        assert all(os.path.exists(p) for p in paths)
        arena.close(unlink=True)
        assert not any(os.path.exists(p) for p in paths)

    def test_close_tolerates_a_segment_unlinked_elsewhere(
            self, tiny_trained_lenet):
        arena = PlanArena()
        arena.add("default", tiny_trained_lenet, _cfg(), (None,) * 4)
        for name in arena.segment_names():
            other = shared_memory.SharedMemory(name=name)
            other.unlink()
            other.close()
        arena.close(unlink=True)  # FileNotFoundError stays inside


class TestBitIdentity:
    def test_replies_match_dedicated_engine_across_specs(
            self, facade, tiny_trained_lenet, images):
        """Several specs (different seeds route to different workers):
        every reply must equal a dedicated single-request engine run."""
        specs = [{"seed": s} for s in range(4)]
        results = {}

        def go(index, spec):
            results[index] = facade.predict(images[index % len(images)],
                                            **spec)

        threads = [threading.Thread(target=go, args=(i, spec))
                   for i, spec in enumerate(specs * 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i, spec in enumerate(specs * 2):
            engine = Engine(tiny_trained_lenet, _cfg(), backend="exact",
                            seed=spec["seed"])
            expected = engine.predict(images[i % len(images)][None])[0]
            assert int(results[i][0]) == int(expected), \
                f"request {i} (spec {spec}) diverged from dedicated run"

    def test_batch_request_matches_per_image_dedicated_runs(
            self, facade, tiny_trained_lenet, images):
        preds = facade.predict(images[:4], seed=7)
        for img, pred in zip(images[:4], preds):
            engine = Engine(tiny_trained_lenet, _cfg(), backend="exact",
                            seed=7)
            assert int(pred) == int(engine.predict(img[None])[0])


class TestRouting:
    def test_same_spec_routes_to_one_worker(self, facade):
        key, _, _ = facade.resolver.resolve({})
        indices = {facade.executor._route(key) for _ in range(10)}
        assert len(indices) == 1

    def test_route_is_stable_across_resolves(self, facade):
        a, _, _ = facade.resolver.resolve({"seed": 5})
        b, _, _ = facade.resolver.resolve({"seed": 5})
        assert facade.executor._route(a) == facade.executor._route(b)

    def test_distinct_specs_cover_both_workers(self, facade):
        indices = {facade.executor._route(facade.resolver.resolve({"seed": s})[0])
                   for s in range(32)}
        assert indices == {0, 1}


class TestAdmissionControl:
    def test_admission_limit_refuses_with_queue_full(
            self, tiny_trained_lenet, images):
        with ProcServeFacade(tiny_trained_lenet, procs=1, length=LENGTH,
                             warm=False,
                             max_inflight_per_model=1) as facade:
            with facade.executor._lock:
                facade.executor._inflight_by_model["default"] = 1
            with pytest.raises(QueueFull, match="admission"):
                facade.predict(images[0])
            with facade.executor._lock:
                facade.executor._inflight_by_model["default"] = 0
            # below the limit requests flow again
            assert 0 <= facade.predict_one(images[0]) <= 9

    def test_bad_requests_rejected_frontend_side(self, facade, images):
        with pytest.raises(ValueError, match="unknown model"):
            facade.predict(images[0], model="nope")
        with pytest.raises(ValueError, match="unknown request fields"):
            facade.predict(images[0], bogus=1)
        # frontend rejections never consume a worker round-trip
        assert facade.stats()["service"]["errors"] >= 2


class TestWorkerChaos:
    def test_killed_worker_respawns_and_reply_arrives(
            self, tiny_trained_lenet, images, monkeypatch):
        """A worker killed mid-request is respawned and the request is
        resubmitted — the caller still gets the right answer."""
        monkeypatch.setenv(
            "REPRO_FAULTS", "site=serve.compute,action=kill,hits=1")
        facade = ProcServeFacade(tiny_trained_lenet, procs=2,
                                 length=LENGTH, max_wait_ms=1.0)
        try:
            # Workers armed the kill fault from the env at startup;
            # clear it so the *respawned* worker starts clean instead
            # of dying on the resubmitted request forever.
            monkeypatch.delenv("REPRO_FAULTS")
            pred = facade.predict_one(images[0], timeout=60.0)
            engine = Engine(tiny_trained_lenet, _cfg(), backend="exact",
                            seed=0)
            assert pred == int(engine.predict(images[0][None])[0])
            assert facade.executor._restarts >= 1
            stats = facade.stats()
            assert stats["procs"]["restarts"] >= 1
            assert stats["procs"]["alive"] == 2
        finally:
            facade.close()

    def test_close_after_chaos_unlinks_shared_memory(
            self, tiny_trained_lenet, images, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULTS", "site=serve.compute,action=kill,hits=1")
        facade = ProcServeFacade(tiny_trained_lenet, procs=2,
                                 length=LENGTH, max_wait_ms=1.0)
        monkeypatch.delenv("REPRO_FAULTS")
        paths = [f"/dev/shm/{name}"
                 for name in facade.executor.arena.segment_names()]
        facade.predict_one(images[1], timeout=60.0)
        facade.close()
        assert not any(os.path.exists(p) for p in paths)


class TestDrainAndStats:
    def test_drain_refuses_new_requests(self, tiny_trained_lenet, images):
        facade = ProcServeFacade(tiny_trained_lenet, procs=2,
                                 length=LENGTH, warm=False)
        try:
            facade.predict_one(images[0])
            facade.drain()
            assert facade.draining
            with pytest.raises(ServiceDraining):
                facade.predict(images[0])
            assert facade.await_idle(timeout=5.0)
        finally:
            facade.close()

    def test_stats_aggregates_workers(self, facade, images):
        for seed in range(4):
            facade.predict_one(images[seed], seed=seed)
        stats = facade.stats()
        assert stats["procs"]["workers"] == 2
        assert stats["procs"]["alive"] == 2
        assert len(stats["workers"]) == 2
        frontend = stats["service"]["requests"]
        worker_total = sum(w["service"]["requests"]
                           for w in stats["workers"])
        # every frontend-served request ran in some worker (chaos
        # resubmissions may add to, never subtract from, the total)
        assert worker_total >= 4
        assert frontend >= 4
        assert stats["pool"]["plans"] >= 1
        assert stats["defaults"]["backend"] == "exact"

    def test_metrics_text_merges_worker_registries(self, facade, images):
        facade.predict_one(images[0])
        text = facade.metrics_text()
        assert "repro_serve_procs 2" in text
        # worker-side counters present in the merged exposition
        assert "repro_serve_requests_total" in text
        assert "repro_pool_lookups_total" in text
        # merged totals cover every worker-served request
        stats = facade.stats()
        worker_total = sum(w["service"]["requests"]
                           for w in stats["workers"])
        served = sum(
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_serve_requests_total"))
        assert served >= worker_total


class TestShutdown:
    """close() takes the close-message path: clean exits, no timeouts."""

    @pytest.mark.parametrize("traffic", (False, True),
                             ids=("idle", "after-traffic"))
    @pytest.mark.parametrize("n_procs", (1, 2))
    def test_close_is_prompt_and_every_worker_exits_0(
            self, tiny_trained_lenet, images, n_procs, traffic):
        facade = ProcServeFacade(tiny_trained_lenet, procs=n_procs,
                                 length=LENGTH, max_wait_ms=1.0)
        if traffic:
            for seed in range(4):
                facade.predict_one(images[seed], seed=seed)
        workers = [link.proc for link in facade.executor._links]
        began = time.monotonic()
        facade.close()
        took = time.monotonic() - began
        assert [w.exitcode for w in workers] == [0] * n_procs
        assert took < 1.0, f"close() took {took:.2f}s"

    def test_wedged_worker_is_terminated_and_its_caller_released(
            self, tiny_trained_lenet, images, monkeypatch):
        """The terminate fallback is safety code for a worker stuck
        inside a request; the stuck request fails instead of hanging."""
        monkeypatch.setattr(procpool, "CLOSE_JOIN_S", 0.2)
        monkeypatch.setenv(
            "REPRO_FAULTS", "site=serve.compute,action=sleep,sleep_s=60,"
                            "hits=1")
        facade = ProcServeFacade(tiny_trained_lenet, procs=1,
                                 length=LENGTH, warm=False)
        monkeypatch.delenv("REPRO_FAULTS")
        outcome = {}

        def client():
            try:
                outcome["result"] = facade.predict_one(images[0])
            except Exception as exc:  # noqa: BLE001 - recorded
                outcome["error"] = exc

        thread = threading.Thread(target=client)
        thread.start()
        while not facade.executor._pending:
            time.sleep(0.01)
        time.sleep(0.3)  # the request reaches the sleeping compute
        worker = facade.executor._links[0].proc
        began = time.monotonic()
        facade.close()
        assert time.monotonic() - began < 5.0
        thread.join(5.0)
        assert not thread.is_alive()
        assert worker.exitcode == -signal.SIGTERM
        assert isinstance(outcome.get("error"), RuntimeError)
        assert "closed" in str(outcome["error"])


class TestWorkerProtocol:
    """The worker loop, run in a thread over real pipes."""

    @staticmethod
    def _start(model, threads=1):
        req_recv, req_send = multiprocessing.Pipe(duplex=False)
        rep_recv, rep_send = multiprocessing.Pipe(duplex=False)
        kwargs = dict(backend="exact", length=LENGTH, kinds=None,
                      pooling="max", weight_bits=None, seed=0,
                      max_batch=8, max_wait_ms=1.0, workers=1,
                      max_queue=16, max_engines=2, warm=False)
        worker = threading.Thread(
            target=procpool._worker_main,
            args=(0, {"default": model}, kwargs, PlanArena(), req_recv,
                  rep_send, threads))
        worker.start()
        return worker, req_send, rep_recv

    def test_unknown_message_is_answered_as_internal_error(
            self, tiny_trained_lenet):
        worker, req_send, rep_recv = self._start(tiny_trained_lenet)
        req_send.send(("bogus", 7))
        assert rep_recv.poll(10.0)
        req_id, ok, (kind, _) = rep_recv.recv()
        assert (req_id, ok, kind) == (7, False, "internal")
        req_send.send(("close", None))
        worker.join(10.0)
        assert not worker.is_alive()

    def test_puller_survives_a_vanished_frontend(self, tiny_trained_lenet,
                                                 monkeypatch):
        """A reply into a broken pipe is dropped, not raised out of the
        puller thread; the worker still shuts down on its close message."""
        escaped = []
        monkeypatch.setattr(threading, "excepthook", escaped.append)
        worker, req_send, rep_recv = self._start(tiny_trained_lenet)
        rep_recv.close()
        req_send.send(("stats", 1))
        req_send.send(("close", None))
        worker.join(10.0)
        assert not worker.is_alive()
        assert not escaped
