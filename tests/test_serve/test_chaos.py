"""Chaos tests for the serving tier: faults, deadlines, cancel, drain.

The bar is quiescent consistency: every ticket resolves *exactly once*
— completed, shed, or refused, never hung — and requests untouched by a
fault stay bit-identical to a dedicated single-request engine run.
"""

import http.client
import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import faults
from repro.core.config import NetworkConfig, PoolKind
from repro.data.synthetic_mnist import to_bipolar
from repro.engine import Engine
from repro.faults import ComputeFault, FaultSpec
from repro.serve import (
    DeadlineExceeded,
    InferenceService,
    MicroBatcher,
    ServiceDraining,
    create_server,
    payload_fingerprint,
)

LENGTH = 32


@pytest.fixture(scope="module")
def images(small_dataset):
    _, _, x_test, _ = small_dataset
    return to_bipolar(x_test)[:6].reshape(6, -1)


# ----------------------------------------------------------------------
# batcher-level: bisection, deadline shed, cancellation
# ----------------------------------------------------------------------
class _GatedRunner:
    """Runner double: blocks on ``gate``, fails on payloads in ``bad``."""

    def __init__(self, gate=None, bad=()):
        self.gate = gate
        self.bad = set(bad)
        self.calls = []
        self.lock = threading.Lock()

    def __call__(self, key, payloads):
        if self.gate is not None:
            self.gate.wait(timeout=10.0)
        for p in payloads:
            if p in self.bad:
                raise RuntimeError(f"runner exploded on {p!r}")
        with self.lock:
            self.calls.append((key, list(payloads)))
        return [(key, p) for p in payloads]

    def served(self):
        """Payloads of *successful* runner calls (failed calls deliver
        no results, so they don't count toward exactly-once serving)."""
        with self.lock:
            return [p for _, batch in self.calls for p in batch]


class TestBisection:
    def test_one_bad_request_errors_alone(self):
        """A failing coalesced batch is bisected so exactly the
        offending request errors; its neighbours succeed."""
        gate = threading.Event()
        runner = _GatedRunner(gate=gate, bad={"bad"})
        batcher = MicroBatcher(runner, max_batch=8, max_wait_ms=20)
        try:
            blocker = batcher.submit("w", "warm")  # occupy the worker
            tickets = [batcher.submit("g", p)
                       for p in ("a", "b", "bad", "c", "d")]
            gate.set()
            assert blocker.result(timeout=10.0) == ("w", "warm")
            for ticket in tickets:
                if ticket.payload == "bad":
                    with pytest.raises(RuntimeError, match="exploded"):
                        ticket.result(timeout=10.0)
                else:
                    assert ticket.result(timeout=10.0) == \
                        ("g", ticket.payload)
        finally:
            batcher.close()
        stats = batcher.stats()
        assert stats["batch_failures"] >= 1
        assert stats["bisections"] >= 1
        # healthy neighbours were each served exactly once
        served = runner.served()
        for p in ("a", "b", "c", "d"):
            assert served.count(p) == 1

    def test_all_healthy_batch_never_bisects(self):
        runner = _GatedRunner()
        batcher = MicroBatcher(runner, max_batch=8, max_wait_ms=5)
        try:
            assert batcher.submit("g", 1).result(10.0) == ("g", 1)
        finally:
            batcher.close()
        assert batcher.stats()["bisections"] == 0
        assert batcher.stats()["batch_failures"] == 0


class TestDeadlines:
    def test_expired_ticket_shed_before_compute(self):
        """A ticket whose deadline passes while queued resolves with
        DeadlineExceeded and its payload never reaches the runner."""
        gate = threading.Event()
        runner = _GatedRunner(gate=gate)
        batcher = MicroBatcher(runner, max_batch=4, max_wait_ms=10)
        try:
            blocker = batcher.submit("w", "warm")
            doomed = batcher.submit(
                "g", "doomed", deadline=time.monotonic() + 0.02)
            time.sleep(0.05)  # let the deadline lapse while queued
            gate.set()
            assert blocker.result(timeout=10.0) == ("w", "warm")
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=10.0)
        finally:
            batcher.close()
        assert "doomed" not in runner.served()
        assert batcher.stats()["shed_deadline"] == 1

    def test_cancelled_ticket_skipped_not_computed(self):
        gate = threading.Event()
        runner = _GatedRunner(gate=gate)
        batcher = MicroBatcher(runner, max_batch=4, max_wait_ms=10)
        try:
            blocker = batcher.submit("w", "warm")
            dead = batcher.submit("g", "dead")
            assert dead.cancel()
            gate.set()
            assert blocker.result(timeout=10.0) == ("w", "warm")
            assert batcher.submit("g", "live").result(10.0) == ("g", "live")
        finally:
            batcher.close()
        assert "dead" not in runner.served()
        assert batcher.stats()["shed_cancelled"] >= 1

    def test_service_timeout_maps_to_deadline_shed(self, images,
                                                   tiny_trained_lenet):
        """A service request timeout becomes the queue deadline: under a
        jammed queue the request sheds with DeadlineExceeded (504), and
        the shed is accounted separately from errors."""
        svc = InferenceService(tiny_trained_lenet, backend="exact",
                               length=LENGTH, max_batch=4, max_wait_ms=5,
                               workers=1, warm=False)
        try:
            with faults.armed(FaultSpec(site="serve.compute",
                                        action="sleep", sleep_s=0.5,
                                        hits=(1,))):
                jam = threading.Thread(
                    target=lambda: svc.predict_one(images[0]))
                jam.start()
                time.sleep(0.1)  # the jammer is inside its 0.5 s sleep
                with pytest.raises((DeadlineExceeded, TimeoutError)):
                    svc.predict_one(images[1], timeout=0.05)
                jam.join(timeout=10.0)
                assert not jam.is_alive()
            summary = svc.tracker.summary()
            assert summary["sheds"] == 1
            assert summary["errors"] == 0
        finally:
            svc.close()


# ----------------------------------------------------------------------
# service-level: injected compute faults under concurrent clients
# ----------------------------------------------------------------------
class TestServiceChaos:
    def test_concurrent_chaos_exactly_once_and_bit_identical(
            self, tiny_trained_lenet, images):
        """One request is poisoned by fingerprint; under concurrent
        clients it alone errors, every other response is bit-identical
        to a dedicated engine run, and no ticket hangs."""
        svc = InferenceService(tiny_trained_lenet, backend="exact",
                               length=LENGTH, max_batch=8,
                               max_wait_ms=20, workers=2, warm=False)
        model = svc.defaults["model"]
        victim = 2
        fp = payload_fingerprint(
            svc.resolver.as_images(images[victim], model=model)[0])
        outcomes = [None] * len(images)
        barrier = threading.Barrier(len(images))

        def client(i):
            barrier.wait()
            try:
                outcomes[i] = ("ok", svc.predict_one(images[i],
                                                     timeout=30.0))
            except Exception as exc:
                outcomes[i] = ("err", exc)

        try:
            with faults.armed(FaultSpec(site="serve.request",
                                        action="raise", rate=1.0,
                                        match=fp)):
                threads = [threading.Thread(target=client, args=(i,))
                           for i in range(len(images))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30.0)
                assert not any(t.is_alive() for t in threads)
            # exactly once: every client resolved, one way or the other
            assert all(o is not None for o in outcomes)
            kind, err = outcomes[victim]
            assert kind == "err" and isinstance(err, ComputeFault)
            cfg = NetworkConfig.from_kinds(PoolKind.MAX, LENGTH,
                                           ("APC", "APC", "APC"))
            for i, (kind, value) in enumerate(outcomes):
                if i == victim:
                    continue
                assert kind == "ok"
                oracle = int(Engine(tiny_trained_lenet, cfg,
                                    backend="exact",
                                    seed=0).predict(images[i][None])[0])
                assert value == oracle
            assert svc.batcher.stats()["batch_failures"] >= 1
        finally:
            svc.close()


# ----------------------------------------------------------------------
# drain: refuse new work, finish in-flight work
# ----------------------------------------------------------------------
class TestDrain:
    def test_drain_refuses_new_and_completes_inflight(
            self, make_service, tiny_trained_lenet, images):
        inflight = {}
        # Armed before construction, so forked workers inherit it.
        with faults.armed(FaultSpec(site="serve.compute", action="sleep",
                                    sleep_s=0.3, hits=(1,))):
            svc = make_service(tiny_trained_lenet, backend="exact",
                               length=LENGTH, max_batch=4, max_wait_ms=5,
                               workers=1, warm=False)

            def client():
                inflight["result"] = svc.predict_one(images[0],
                                                     timeout=30.0)

            try:
                thread = threading.Thread(target=client)
                thread.start()
                time.sleep(0.1)  # the client is inside compute
                svc.drain()
                assert svc.draining
                with pytest.raises(ServiceDraining):
                    svc.predict_one(images[1])
                assert svc.await_idle(timeout=10.0)
                thread.join(timeout=10.0)
                assert not thread.is_alive()
                # the accepted request was served normally, not dropped
                cfg = NetworkConfig.from_kinds(PoolKind.MAX, LENGTH,
                                               ("APC", "APC", "APC"))
                oracle = int(Engine(tiny_trained_lenet, cfg,
                                    backend="exact",
                                    seed=0).predict(images[0][None])[0])
                assert inflight["result"] == oracle
                assert svc.stats()["draining"] is True
            finally:
                svc.close()


# ----------------------------------------------------------------------
# HTTP-level: 504 deadlines, Retry-After, draining health, keep-alive
# ----------------------------------------------------------------------
def _call(base, path, payload=None):
    """GET/POST JSON; returns (status, decoded body, headers)."""
    data = None if payload is None else json.dumps(payload).encode("utf8")
    request = urllib.request.Request(
        base + path, data=data, method="GET" if data is None else "POST",
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=60) as reply:
            return reply.status, json.loads(reply.read()), reply.headers
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), exc.headers


@pytest.fixture()
def http_chaos(make_service, tiny_trained_lenet):
    service = make_service(tiny_trained_lenet, backend="exact",
                           length=LENGTH, max_batch=8,
                           max_wait_ms=10, warm=False)
    server = create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", service, server
    server.shutdown()
    server.server_close()
    service.close()


class TestHTTPFailureStatuses:
    def test_expired_timeout_ms_is_504(self, http_chaos, images):
        base, _, _ = http_chaos
        status, reply, _ = _call(
            base, "/predict",
            {"image": images[0].tolist(), "timeout_ms": 1e-6})
        assert status == 504
        assert "shed" in reply["error"] or "timeout" in reply["error"]

    def test_generous_timeout_ms_still_serves(self, http_chaos, images):
        base, service, _ = http_chaos
        status, reply, _ = _call(
            base, "/predict",
            {"image": images[0].tolist(), "timeout_ms": 60000})
        assert status == 200
        assert reply["prediction"] == service.predict_one(images[0])

    def test_bad_timeout_ms_is_400(self, http_chaos, images):
        base, _, _ = http_chaos
        for bad in ("soon", -5):
            status, reply, _ = _call(
                base, "/predict",
                {"image": images[0].tolist(), "timeout_ms": bad})
            assert status == 400
            assert "timeout_ms" in reply["error"]

    def test_draining_healthz_503_with_retry_after(self, http_chaos):
        base, service, _ = http_chaos
        assert _call(base, "/healthz")[0] == 200
        service.drain()
        status, reply, headers = _call(base, "/healthz")
        assert status == 503
        assert reply["status"] == "draining"
        assert headers["Retry-After"] is not None

    def test_draining_predict_503_with_retry_after(self, http_chaos,
                                                   images):
        base, service, _ = http_chaos
        service.drain()
        status, reply, headers = _call(base, "/predict",
                                       {"image": images[0].tolist()})
        assert status == 503
        assert reply["status"] == "draining"
        assert headers["Retry-After"] is not None

    def test_recoverable_4xx_keeps_connection_alive(self, http_chaos,
                                                    images):
        """A 400 whose body was read must not cost the client its
        keep-alive connection (the pre-fix behaviour closed on every
        error status)."""
        base, service, _ = http_chaos
        host, port = base.rsplit("//", 1)[1].rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=60)
        try:
            conn.request("POST", "/predict",
                         body=json.dumps({"image": [0.0] * 100}),
                         headers={"Content-Type": "application/json"})
            reply = conn.getresponse()
            assert reply.status == 400
            reply.read()
            assert reply.getheader("Connection") != "close"
            # the same connection serves the next (valid) request
            conn.request("POST", "/predict",
                         body=json.dumps(
                             {"image": images[0].tolist()}),
                         headers={"Content-Type": "application/json"})
            reply = conn.getresponse()
            assert reply.status == 200
            assert json.loads(reply.read())["prediction"] == \
                service.predict_one(images[0])
        finally:
            conn.close()

    def test_unread_body_still_closes_connection(self, http_chaos):
        """No/oversized body is rejected before the read; leftover bytes
        would corrupt keep-alive, so that path must still close."""
        base, _, _ = http_chaos
        host, port = base.rsplit("//", 1)[1].rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=60)
        try:
            conn.request("POST", "/predict", body=b"",
                         headers={"Content-Type": "application/json"})
            reply = conn.getresponse()
            assert reply.status == 400
            reply.read()
            assert reply.getheader("Connection") == "close"
        finally:
            conn.close()
