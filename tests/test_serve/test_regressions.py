"""Regression tests for latent serve-layer bugs.

Each test reproduces a latent bug found in review — it fails against the
pre-fix code and pins the fixed behaviour:

* ``LatencyTracker._window_rate`` divided by the configured ``window_s``
  even after the completion ring saturated its ``maxlen`` and no longer
  covered the whole window, underreporting sustained-load rps;
* ``InferenceService.predict`` checked ``_draining`` *before* taking the
  ``_idle`` lock, so a request racing ``drain()`` + ``await_idle()``
  could be accepted yet invisible to the idle wait — and the
  multi-process frontend kept that race until both executors shared one
  accept path;
* ``EnginePool._plan_for`` never ``move_to_end``'d the sibling plan it
  re-derives from, so a family's canonical plan could be LRU-evicted
  while it was the live re-target source;
* ``MicroBatcher._take_batch`` keyed its quiescence gather state on
  ``id(head)``, which CPython reuses after the head ticket is freed —
  aliasing a new head onto a stale gather timestamp and flushing it
  before its quantum.
"""

import itertools
import threading
import time
import types

import numpy as np
import pytest

import repro.serve.batcher as batcher_mod
import repro.serve.service as service_mod
from repro.core.config import NetworkConfig, PoolKind
from repro.data.synthetic_mnist import to_bipolar
from repro.serve import InferenceService, MicroBatcher, ServiceDraining
from repro.serve.pool import EnginePool
from repro.serve.stats import LatencyTracker


class FakeClock:
    def __init__(self, t=0.0):
        self.t = float(t)

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TestWindowRateSaturation:
    """_window_rate must divide by the span the *retained* completions
    cover once the ring saturates, not the configured window_s."""

    def test_saturated_ring_uses_retained_span(self):
        clock = FakeClock()
        tracker = LatencyTracker(window=1024, window_s=30.0, clock=clock)
        maxlen = tracker._completions.maxlen
        # Server has been up far longer than the window.
        clock.advance(100.0)
        # Sustained burst at 200 rps: more completions than the ring
        # holds, all inside the 30 s window.
        for _ in range(maxlen + 200):
            clock.advance(0.005)
            tracker.record(0.001)
        rate = tracker.summary()["throughput_rps_window"]
        # The retained maxlen completions span maxlen * 5 ms; the true
        # offered rate is 200/s.  The pre-fix code divided by the full
        # 30 s window and reported ~maxlen/30 ≈ 34/s.
        assert rate == pytest.approx(200.0, rel=0.05), (
            f"window rate {rate} should track the ~200 rps burst, not "
            "divide the saturated ring by the whole window")

    def test_unsaturated_ring_keeps_window_semantics(self):
        clock = FakeClock()
        tracker = LatencyTracker(window=1024, window_s=30.0, clock=clock)
        clock.advance(100.0)
        for _ in range(60):
            clock.advance(1.0)
            tracker.record(0.001)
        # 60 completions, newest 30 within the window -> 1/s.
        assert tracker.summary()["throughput_rps_window"] == \
            pytest.approx(1.0, rel=0.05)

    def test_young_server_still_uses_uptime(self):
        clock = FakeClock()
        tracker = LatencyTracker(window=1024, window_s=30.0, clock=clock)
        for _ in range(10):
            clock.advance(0.2)
            tracker.record(0.001)
        # 10 completions over a 2 s lifetime -> 5/s, not 10/30.
        assert tracker.summary()["throughput_rps_window"] == \
            pytest.approx(5.0, rel=0.05)


class TestDrainAcceptRace:
    """A request that passed the draining check must be visible to
    await_idle() — the check and the inflight bump are atomic."""

    def test_accepted_request_never_invisible_to_await_idle(
            self, monkeypatch, tiny_trained_lenet, small_dataset):
        _, _, x_test, _ = small_dataset
        image = to_bipolar(x_test)[0].reshape(-1)
        service = InferenceService(tiny_trained_lenet, backend="float",
                                   length=32, max_wait_ms=1.0, warm=False)
        blocked = threading.Event()
        release = threading.Event()
        outcome = {}
        real_monotonic = time.monotonic
        victim_holder = {}

        def shim_monotonic():
            # Park the victim thread in the race window (its first
            # monotonic call inside predict) while the main thread
            # drains; everything else passes through.
            if (threading.current_thread() is victim_holder.get("t")
                    and not blocked.is_set()):
                blocked.set()
                release.wait(10.0)
            return real_monotonic()

        monkeypatch.setattr(
            service_mod, "time",
            types.SimpleNamespace(monotonic=shim_monotonic))

        def victim():
            try:
                outcome["result"] = service.predict(image)
            except BaseException as exc:  # noqa: BLE001 - recorded
                outcome["error"] = exc

        victim_holder["t"] = thread = threading.Thread(target=victim)
        try:
            thread.start()
            assert blocked.wait(10.0)
            service.drain()
            idle = service.await_idle(timeout=1.0)
            release.set()
            thread.join(30.0)
            assert not thread.is_alive()
            if idle:
                # If the drain path already reported idle, the racing
                # request must have been refused — an accepted request
                # served *after* await_idle returned is a dropped-reply
                # hazard on SIGTERM.
                assert isinstance(outcome.get("error"), ServiceDraining), (
                    "await_idle() reported idle while an accepted "
                    f"request was still in flight (outcome: {outcome})")
            else:
                assert service.await_idle(timeout=30.0)
                assert "result" in outcome
        finally:
            release.set()
            thread.join(5.0)
            service.close()


class TestDrainAcceptRaceAcrossExecutors:
    """The shared accept path closes the drain race for both executors.

    Pre-fix the multi-process frontend checked ``_draining``, released
    its lock and only registered the request inside the relay, so a
    request parked between the two was accepted yet invisible to
    ``await_idle()``.  Parking it in request resolution (right after
    admission) must leave the frontend busy, and the request must still
    be served after the drain.
    """

    def test_parked_request_keeps_await_idle_busy(
            self, make_service, tiny_trained_lenet, small_dataset):
        _, _, x_test, _ = small_dataset
        image = to_bipolar(x_test)[0].reshape(-1)
        service = make_service(tiny_trained_lenet, backend="float",
                               length=32, max_wait_ms=1.0, warm=False)
        parked, release = threading.Event(), threading.Event()
        resolve = service.resolver.resolve
        outcome = {}

        def parked_resolve(overrides):
            parked.set()
            release.wait(10.0)
            return resolve(overrides)

        def victim():
            try:
                outcome["result"] = service.predict(image)
            except BaseException as exc:  # noqa: BLE001 - recorded
                outcome["error"] = exc

        service.resolver.resolve = parked_resolve
        thread = threading.Thread(target=victim)
        try:
            thread.start()
            assert parked.wait(10.0)
            service.drain()
            assert service.await_idle(timeout=0.2) is False, (
                "await_idle() reported idle while an accepted request "
                "was still in flight")
            release.set()
            thread.join(30.0)
            assert not thread.is_alive()
            assert "result" in outcome, outcome
            assert service.await_idle(timeout=1.0)
        finally:
            release.set()
            thread.join(5.0)
            service.close()


def _cfg(length, kinds=("APC", "APC", "APC")):
    return NetworkConfig.from_kinds(PoolKind.MAX, length, kinds)


class TestSiblingPlanLRUTouch:
    """Re-deriving from a sibling plan must refresh its LRU position."""

    def test_retarget_source_survives_eviction(self, tiny_trained_lenet):
        pool = EnginePool(tiny_trained_lenet, max_engines=8, max_plans=2)
        canonical = pool.get(_cfg(256), backend="float").plan
        pool.get(_cfg(32, kinds=("MUX", "APC", "APC")), backend="float")
        # Re-derive a length variant: the canonical max-length plan is
        # the re-target source and must become most-recently-used, so
        # the insertion of the derived plan evicts the *other* family.
        pool.get(_cfg(128), backend="float")
        assert pool.stats()["plans_rederived"] == 1
        # A fresh engine at the canonical length must find the plan
        # still resident (exact hit) — pre-fix it was evicted and had
        # to be gratuitously re-derived.
        engine = pool.get(_cfg(256), backend="float", seed=1)
        stats = pool.stats()
        assert stats["plans_rederived"] == 1, (
            "canonical max-length plan was evicted while it was the "
            "live re-target source")
        assert engine.plan is canonical

    def test_exact_hit_still_touches(self, tiny_trained_lenet):
        """Plain plan hits keep their existing LRU refresh."""
        pool = EnginePool(tiny_trained_lenet, max_engines=8, max_plans=2)
        keep = pool.get(_cfg(64), backend="float").plan
        pool.get(_cfg(64, kinds=("MUX", "APC", "APC")), backend="float")
        pool.get(_cfg(64), backend="float", seed=1)     # plan hit
        pool.get(_cfg(64, kinds=("MUX", "MUX", "APC")),
                 backend="float")                        # evicts the MUX
        assert pool.get(_cfg(64), backend="float", seed=2).plan is keep


class TestQuiescenceKeying:
    """A recycled head id must not inherit a stale gather timestamp."""

    def test_aliased_head_id_does_not_flush_early(self, monkeypatch):
        # Fake the CPython id-reuse that triggers the bug: tickets 5 and
        # 6 (a cancelled head and the next group's head) report the same
        # id, exactly as a freed-and-reallocated ticket would.
        fake_ids = iter([None, None, None, None, 0x7afe, 0x7afe, None])

        class AliasedTicket(batcher_mod.Ticket):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                fake = next(fake_ids, None)
                if fake is not None:
                    self._fake_id = fake

        real_id = id
        monkeypatch.setattr(batcher_mod, "Ticket", AliasedTicket)
        monkeypatch.setattr(
            batcher_mod, "id",
            lambda obj: getattr(obj, "_fake_id", real_id(obj)),
            raising=False)

        batches = []
        a_started = threading.Event()
        lock = threading.Lock()

        def runner(key, payloads):
            if key == "A":
                a_started.set()
                time.sleep(1.2)
            with lock:
                batches.append((key, list(payloads)))
            return payloads

        batcher = MicroBatcher(runner, max_batch=4, max_wait_ms=1600.0,
                               workers=2, max_queue=64)
        try:
            quantum = batcher.quantum          # 200 ms
            for i in range(4):                 # full batch -> flushes now
                batcher.submit("A", f"a{i}")
            assert a_started.wait(5.0)
            # The free worker now gathers this head; its (id, size)
            # state is observed at ~t1.
            stale_head = batcher.submit("A", "a4")
            time.sleep(0.70 * quantum)
            stale_head.cancel()                # shed on next wakeup
            time.sleep(0.05 * quantum)
            t_b = batcher.submit("B", "b0")    # aliased id, same size
            time.sleep(0.25 * quantum)         # stale quantum expires
            t_c = batcher.submit("B", "b1")    # must coalesce with b0
            assert t_b.result(10.0) == "b0"
            assert t_c.result(10.0) == "b1"
        finally:
            batcher.close()
        b_batches = [p for key, p in batches if key == "B"]
        assert b_batches and b_batches[0] == ["b0", "b1"], (
            f"aliased head flushed early, splitting the batch: "
            f"{b_batches}")
