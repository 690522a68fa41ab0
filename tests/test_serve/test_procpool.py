"""Multi-process serving tier: routing, bit-identity, chaos, cleanup.

The bar carried over from the single-process tier: every exact-backend
reply is bit-identical to a dedicated single-request engine run no
matter which worker served it, no accepted request's reply is dropped
even when a worker is killed mid-flight, every request is counted once
in the merged ``/metrics`` page, and shutting the facade down leaves no
worker behind: every worker acts on its close message and exits 0 well
inside a second.
"""

import multiprocessing
import signal
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.core.config import NetworkConfig, PoolKind, config_digest
from repro.data.synthetic_mnist import to_bipolar
from repro.engine import Engine, compile_plan
from repro.nn.zoo import model_digest
from repro.serve import ProcServeFacade, QueueFull, ServiceDraining
from repro.serve import procpool

LENGTH = 32


def _cfg(length=LENGTH, kinds=("APC", "APC", "APC")):
    return NetworkConfig.from_kinds(PoolKind.MAX, length, kinds)


def _plan_key(model, config, bits=(None,) * 4):
    """A plan's key in ``EnginePool``'s plan tier."""
    return (model_digest(model), config_digest(config), bits,
            config.length)


def _sample(text, series) -> float:
    """Sum of an exposition series' samples: ``series`` is a bare name
    (every label set) or a name with its labels (that sample alone)."""
    total = 0.0
    for line in text.splitlines():
        head, _, value = line.rpartition(" ")
        if head == series or head.startswith(series + "{"):
            total += float(value)
    return total


@pytest.fixture(scope="module")
def images(small_dataset):
    _, _, x_test, _ = small_dataset
    return to_bipolar(x_test)[:8].reshape(8, -1)


@pytest.fixture(scope="module")
def facade(tiny_trained_lenet):
    with ProcServeFacade(tiny_trained_lenet, procs=2, length=LENGTH,
                         max_wait_ms=1.0) as facade:
        yield facade


class TestInheritedPlans:
    def test_each_warm_spec_compiles_once_in_the_parent(
            self, facade, tiny_trained_lenet):
        key = _plan_key(tiny_trained_lenet, _cfg())
        assert list(facade.executor.plans) == [key]
        fresh = compile_plan(tiny_trained_lenet, _cfg())
        for a, b in zip(facade.executor.plans[key].layers, fresh.layers):
            np.testing.assert_array_equal(a.weights, b.weights)

    def test_workers_serve_from_the_inherited_plans(self, facade, images):
        facade.predict_one(images[0])
        pool = facade.stats()["pool"]
        assert pool["plans"] >= 2  # one per worker, both inherited
        assert pool["plans_compiled"] == 0

    def test_unservable_warm_spec_fails_before_any_fork(
            self, tiny_trained_lenet, monkeypatch):
        """A stream length the max-pooling segment cannot divide raises
        in the parent instead of crash-looping every worker."""
        def no_spawn(self, index):
            raise AssertionError("a worker was forked")
        monkeypatch.setattr(procpool.ProcExecutor, "_spawn", no_spawn)
        with pytest.raises(ValueError, match="multiple of segment"):
            ProcServeFacade(tiny_trained_lenet, procs=2, length=40)

    def test_cold_facade_inherits_nothing(self, tiny_trained_lenet):
        with ProcServeFacade(tiny_trained_lenet, procs=1, length=LENGTH,
                             warm=False) as facade:
            assert facade.executor.plans == {}
            assert facade.stats()["pool"]["plans"] == 0


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
                             warm=False, max_queue=1) as facade:
            assert facade.executor.admission_limit == 2  # 2 * max_queue
            with facade.executor._lock:
                facade.executor._inflight_by_model["default"] = 2
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

    def test_chaos_then_close_answers_all_and_leaves_no_worker(
            self, tiny_trained_lenet, images, monkeypatch):
        """Each worker dies on its first batch: every request is still
        answered, the merged scrape still counts each request once, and
        close() leaves no worker incarnation running."""
        monkeypatch.setenv(
            "REPRO_FAULTS", "site=serve.compute,action=kill,hits=1")
        with obs.scoped_registry():
            facade = ProcServeFacade(tiny_trained_lenet, procs=2,
                                     length=LENGTH, max_wait_ms=1.0)
            monkeypatch.delenv("REPRO_FAULTS")
            incarnations = {link.proc for link in facade.executor._links}
            try:
                preds = [facade.predict_one(images[seed], seed=seed,
                                            timeout=60.0)
                         for seed in range(4)]
                for seed, pred in enumerate(preds):
                    engine = Engine(tiny_trained_lenet, _cfg(),
                                    backend="exact", seed=seed)
                    assert pred == int(
                        engine.predict(images[seed][None])[0])
                assert facade.executor._restarts >= 1
                incarnations |= {link.proc
                                 for link in facade.executor._links}
                text = facade.metrics_text()
                assert (_sample(text, "repro_serve_requests_total")
                        == facade.stats()["service"]["requests"] == 4)
            finally:
                facade.close()
        assert not incarnations & set(multiprocessing.active_children())


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

    def test_metrics_text_merges_worker_registries(
            self, tiny_trained_lenet, images):
        with obs.scoped_registry() as frontend, ProcServeFacade(
                tiny_trained_lenet, procs=2, length=LENGTH,
                max_wait_ms=1.0) as facade:
            for seed in range(4):
                facade.predict_one(images[seed], seed=seed)
            text = facade.metrics_text()
            served = facade.stats()["service"]["requests"]
            workers = facade.executor.metric_snapshots()
        assert "repro_serve_procs 2" in text
        # engine layers run in the workers only; the page sums their
        # per-layer counts, each series labelled with its kernel tier
        layer_counts = [
            sum(sample["count"] for sample in snapshot.get(
                "repro_engine_layer_seconds", {"samples": {}})[
                    "samples"].values())
            for snapshot in workers]
        assert "repro_engine_layer_seconds" not in frontend.snapshot()
        assert len(layer_counts) == 2 and sum(layer_counts) > 0
        assert (_sample(text, "repro_engine_layer_seconds_count")
                == sum(layer_counts))
        assert 'tier="' in next(
            line for line in text.splitlines()
            if line.startswith("repro_engine_layer_seconds_count{"))
        # worker-side series present in the merged exposition
        assert "repro_pool_lookups_total" in text
        assert "repro_serve_batch_size" in text
        # the frontend counts each request; workers count none of them
        assert _sample(text, 'repro_serve_requests_total{outcome="ok"}') \
            == served == 4
        assert _sample(text, "repro_serve_latency_seconds_count") == served
        # merged bucket counts print as integers, as on a one-process page
        buckets = [line.rpartition(" ")[2] for line in text.splitlines()
                   if line.startswith("repro_serve_batch_size_bucket")]
        assert buckets and all(value.isdigit() for value in buckets)


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
        # A terminated worker would read -15, and the terminate fallback
        # only starts after CLOSE_JOIN_S of waiting on the join.
        assert [w.exitcode for w in workers] == [0] * n_procs
        assert took < procpool.CLOSE_JOIN_S, f"close() took {took:.2f}s"

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

    @pytest.fixture(autouse=True)
    def _own_registry(self, monkeypatch):
        # one puller thread per worker, so every message is taken in order
        monkeypatch.setattr(procpool, "WORKER_THREADS", 1)
        # the worker runs in this process: record its BLAS cap instead
        self.blas_caps = []
        monkeypatch.setattr(procpool, "cap_blas_threads",
                            self.blas_caps.append)
        # the worker swaps in a fresh registry; restore the suite's
        with obs.scoped_registry():
            yield

    @staticmethod
    def _start(model, plans=None, warm_key=None):
        req_recv, req_send = multiprocessing.Pipe(duplex=False)
        rep_recv, rep_send = multiprocessing.Pipe(duplex=False)
        batcher = dict(max_batch=8, max_wait_ms=1.0, workers=1,
                       max_queue=16)
        worker = threading.Thread(
            target=procpool._worker_main,
            args=(0, 2, {"default": model}, plans or {}, warm_key, 2,
                  batcher, req_recv, rep_send))
        worker.start()
        return worker, req_send, rep_recv

    @staticmethod
    def _ask(req_send, rep_recv, msg):
        req_send.send(msg)
        assert rep_recv.poll(30.0)
        return rep_recv.recv()

    def test_run_executes_on_the_given_plans(self, tiny_trained_lenet,
                                             images):
        """A run message is executed as sent, on the plan handed in —
        the worker compiles nothing and counts the request itself."""
        key = ("default", "exact", _cfg(), (None,) * 4, 3)
        plan = compile_plan(tiny_trained_lenet, _cfg())
        worker, req_send, rep_recv = self._start(
            tiny_trained_lenet,
            plans={_plan_key(tiny_trained_lenet, _cfg()): plan},
            warm_key=key)
        try:
            req_id, ok, preds = self._ask(
                req_send, rep_recv,
                ("run", 1, "predict", key, images[:2], None))
            assert (req_id, ok) == (1, True)
            engine = Engine(plan=plan, backend="exact", seed=3)
            assert [int(p) for p in preds] == [
                int(engine.predict(img[None])[0]) for img in images[:2]]
            _, ok, report = self._ask(req_send, rep_recv, ("stats", 2))
            assert ok
            assert report["stats"]["service"]["requests"] == 1
            assert report["stats"]["pool"]["plans_compiled"] == 0
            assert "repro_serve_requests_total" not in report["metrics"]
            # one of 2 workers: BLAS capped at its share of the cores
            assert self.blas_caps == [2]
        finally:
            req_send.send(("close", None))
            worker.join(10.0)
        assert not worker.is_alive()

    def test_expired_deadline_is_shed_before_compute(
            self, tiny_trained_lenet, images):
        """The frontend's absolute deadline crosses the pipe unchanged:
        one already past is shed by the worker, never computed."""
        key = ("default", "exact", _cfg(), (None,) * 4, 0)
        worker, req_send, rep_recv = self._start(tiny_trained_lenet)
        try:
            req_id, ok, (kind, _) = self._ask(
                req_send, rep_recv,
                ("run", 1, "predict", key, images[:1],
                 time.monotonic() - 1.0))
            assert (req_id, ok) == (1, False)
            assert kind in ("deadline", "timeout")
            _, _, report = self._ask(req_send, rep_recv, ("stats", 2))
            assert report["stats"]["batcher"]["batches"] == 0
        finally:
            req_send.send(("close", None))
            worker.join(10.0)
        assert not worker.is_alive()

    def test_scene_runs_on_the_frontend_tiling(self, tiny_trained_lenet,
                                               monkeypatch):
        """A scene arrives already tiled: the worker never extracts
        windows, and its reply equals the in-process service's."""
        from repro.data.scenes import SceneGenerator
        from repro.serve import InferenceService
        from repro.serve import service as service_module

        scene = SceneGenerator(seed=0).grid(index=0, rows=2, cols=2)
        with InferenceService(tiny_trained_lenet, length=LENGTH,
                              warm=False) as local:
            key = local.resolver.resolve({})[0]
            payload = local.resolver.resolve_scene(scene, "default")
            expected = local.predict_scene(scene)

        def no_tiling(*args, **kwargs):
            raise AssertionError("the worker tiled a scene again")

        monkeypatch.setattr(service_module, "extract_windows", no_tiling)
        worker, req_send, rep_recv = self._start(tiny_trained_lenet)
        try:
            _, ok, served = self._ask(
                req_send, rep_recv, ("run", 1, "scene", key, payload, None))
            assert ok, served
            np.testing.assert_array_equal(served.window_logits,
                                          expected.window_logits)
            np.testing.assert_array_equal(served.cell_preds,
                                          expected.cell_preds)
        finally:
            req_send.send(("close", None))
            worker.join(10.0)
        assert not worker.is_alive()

    def test_worker_starts_from_an_empty_registry(self,
                                                  tiny_trained_lenet):
        """Counts made before the worker started stay out of its page,
        so a merged scrape never counts them twice."""
        obs.counter("repro_serve_requests_total", "Requests completed.",
                    outcome="ok").inc()
        worker, req_send, rep_recv = self._start(tiny_trained_lenet)
        try:
            _, ok, report = self._ask(req_send, rep_recv, ("stats", 1))
            assert ok
            assert "repro_serve_requests_total" not in report["metrics"]
        finally:
            req_send.send(("close", None))
            worker.join(10.0)
        assert not worker.is_alive()

    def test_stats_reply_carries_the_registry_snapshot(
            self, tiny_trained_lenet, images):
        """The worker's registry crosses the pipe as a snapshot dict
        whose label-value keys still merge by value with other
        processes' snapshots."""
        key = ("default", "exact", _cfg(), (None,) * 4, 0)
        worker, req_send, rep_recv = self._start(tiny_trained_lenet)
        try:
            for req_id in (1, 2):
                _, ok, _ = self._ask(
                    req_send, rep_recv,
                    ("run", req_id, "predict", key, images[:1], None))
                assert ok
            _, ok, report = self._ask(req_send, rep_recv, ("stats", 3))
            assert ok
            snapshot = report["metrics"]
            assert snapshot["repro_serve_batches_total"]["samples"] == {
                (): 2}
            sizes = snapshot["repro_serve_batch_size"]
            assert sizes["kind"] == "histogram"
            assert sizes["samples"][()]["count"] == 2
            merged = obs.merge([snapshot, snapshot])
            assert merged["repro_serve_batches_total"]["samples"] == {
                (): 4}
            assert merged["repro_serve_batch_size"]["samples"][()][
                "count"] == 4
            assert "repro_serve_batches_total 4" in obs.render(
                merged).splitlines()
        finally:
            req_send.send(("close", None))
            worker.join(10.0)
        assert not worker.is_alive()

    def test_unknown_message_is_answered_as_internal_error(
            self, tiny_trained_lenet):
        worker, req_send, rep_recv = self._start(tiny_trained_lenet)
        req_id, ok, (kind, _) = self._ask(req_send, rep_recv, ("bogus", 7))
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
