"""MicroBatcher coalescing, flush policy, errors and lifecycle.

All tests use synthetic runners (no engines), so they exercise the
queueing policy in isolation and run in milliseconds.
"""

import threading
import time

import pytest

from repro.serve.batcher import MicroBatcher


class RecordingRunner:
    """Runner double: logs every (key, payloads) call; optional gate."""

    def __init__(self, gate: threading.Event = None, fail_on=None):
        self.calls = []
        self.gate = gate
        self.fail_on = fail_on
        self.entered = threading.Event()
        self.lock = threading.Lock()

    def __call__(self, key, payloads):
        self.entered.set()
        if self.gate is not None:
            self.gate.wait(timeout=10.0)
        if self.fail_on is not None and key == self.fail_on:
            raise RuntimeError(f"runner exploded on {key!r}")
        with self.lock:
            self.calls.append((key, list(payloads)))
        return [(key, p) for p in payloads]


class TestCoalescing:
    def test_requests_coalesce_into_one_batch(self):
        """Requests queued while the worker is busy form a single batch."""
        gate = threading.Event()
        runner = RecordingRunner(gate=gate)
        batcher = MicroBatcher(runner, max_batch=16, max_wait_ms=50)
        try:
            blocker = batcher.submit("w", "warm")  # occupies the worker
            tickets = [batcher.submit("g", i) for i in range(5)]
            gate.set()
            assert blocker.result(timeout=10.0) == ("w", "warm")
            assert [t.result(timeout=10.0) for t in tickets] == \
                [("g", i) for i in range(5)]
        finally:
            batcher.close()
        # first call is the lone blocker, second the coalesced five
        assert [len(p) for _, p in runner.calls] == [1, 5]
        assert batcher.stats()["batch_size_histogram"] == {"1": 1, "5": 1}

    def test_max_batch_caps_each_call(self):
        gate = threading.Event()
        runner = RecordingRunner(gate=gate)
        batcher = MicroBatcher(runner, max_batch=4, max_wait_ms=50)
        try:
            blocker = batcher.submit("w", "warm")
            tickets = [batcher.submit("g", i) for i in range(10)]
            gate.set()
            blocker.result(timeout=10.0)
            for ticket in tickets:
                ticket.result(timeout=10.0)
        finally:
            batcher.close()
        sizes = [len(p) for _, p in runner.calls[1:]]
        assert all(size <= 4 for size in sizes)
        assert sum(sizes) == 10

    def test_groups_never_mix(self):
        """A runner call only ever sees payloads of one group key."""
        gate = threading.Event()
        runner = RecordingRunner(gate=gate)
        batcher = MicroBatcher(runner, max_batch=16, max_wait_ms=20)
        try:
            blocker = batcher.submit("warm", 0)
            tickets = [batcher.submit(f"g{i % 3}", i) for i in range(9)]
            gate.set()
            blocker.result(timeout=10.0)
            for i, ticket in enumerate(tickets):
                assert ticket.result(timeout=10.0) == (f"g{i % 3}", i)
        finally:
            batcher.close()
        for key, payloads in runner.calls[1:]:
            assert all(i % 3 == int(key[1]) for i in payloads), \
                f"payloads {payloads} leaked into group {key}"
        grouped = [(key, len(p)) for key, p in runner.calls[1:]]
        assert sorted(grouped) == [("g0", 3), ("g1", 3), ("g2", 3)]

    def test_results_keep_submission_order_within_batch(self):
        gate = threading.Event()
        runner = RecordingRunner(gate=gate)
        batcher = MicroBatcher(runner, max_batch=8, max_wait_ms=50)
        try:
            blocker = batcher.submit("w", "warm")
            tickets = [batcher.submit("g", i) for i in range(6)]
            gate.set()
            blocker.result(timeout=10.0)
            assert [t.result(timeout=10.0)[1] for t in tickets] == \
                list(range(6))
        finally:
            batcher.close()


class TestFlushPolicy:
    def test_lone_request_flushes_on_quiescence_not_deadline(self):
        """A lone request is served after ~one quantum even when the
        deadline is far away (the dynamic part of the batcher)."""
        runner = RecordingRunner()
        batcher = MicroBatcher(runner, max_batch=16, max_wait_ms=5000)
        try:
            start = time.monotonic()
            assert batcher.submit("g", 1).result(10.0) == ("g", 1)
            elapsed = time.monotonic() - start
        finally:
            batcher.close()
        # quantum is max_wait/8 = 625ms; well under the 5s deadline
        assert elapsed < 2.5

    def test_full_batch_flushes_immediately(self):
        """max_batch queued requests launch without waiting a quantum."""
        gate = threading.Event()
        runner = RecordingRunner(gate=gate)
        batcher = MicroBatcher(runner, max_batch=3, max_wait_ms=5000)
        try:
            blocker = batcher.submit("w", "warm")
            tickets = [batcher.submit("g", i) for i in range(3)]
            gate.set()
            blocker.result(timeout=10.0)
            start = time.monotonic()
            for ticket in tickets:
                ticket.result(timeout=10.0)
            assert time.monotonic() - start < 2.5
        finally:
            batcher.close()
        assert runner.calls[1][1] == [0, 1, 2]

    def test_other_groups_traffic_does_not_defeat_quiescence(self):
        """A lone group-A request flushes after ~one quantum even while
        group-B requests keep arriving (quiescence is judged per group,
        not on global arrivals)."""
        gate = threading.Event()
        runner = RecordingRunner(gate=gate)
        batcher = MicroBatcher(runner, max_batch=16, max_wait_ms=4000)
        try:
            blocker = batcher.submit("w", "warm")
            lone = batcher.submit("a", 0)
            stop_feeding = threading.Event()

            def feed_b():
                while not stop_feeding.wait(0.03):
                    try:
                        batcher.submit("b", "noise")
                    except RuntimeError:  # closed during teardown
                        return

            feeder = threading.Thread(target=feed_b, daemon=True)
            feeder.start()
            gate.set()
            blocker.result(timeout=10.0)
            start = time.monotonic()
            assert lone.result(timeout=10.0) == ("a", 0)
            elapsed = time.monotonic() - start
            stop_feeding.set()
            feeder.join(timeout=2.0)
        finally:
            batcher.close()
        # quantum = 500ms; the old global-arrivals rule waited the
        # full 4s deadline whenever B traffic kept arriving
        assert elapsed < 2.0

    def test_zero_wait_serves_everything(self):
        runner = RecordingRunner()
        batcher = MicroBatcher(runner, max_batch=8, max_wait_ms=0)
        try:
            assert [batcher.submit("g", i).result(10.0)[1] for i in range(4)] \
                == list(range(4))
        finally:
            batcher.close()


class TestErrorsAndLifecycle:
    def test_runner_error_propagates_to_every_waiter(self):
        gate = threading.Event()
        runner = RecordingRunner(gate=gate, fail_on="bad")
        batcher = MicroBatcher(runner, max_batch=8, max_wait_ms=20)
        try:
            blocker = batcher.submit("ok", 0)
            doomed = [batcher.submit("bad", i) for i in range(3)]
            survivor = batcher.submit("ok", 1)
            gate.set()
            assert blocker.result(timeout=10.0) == ("ok", 0)
            assert survivor.result(timeout=10.0) == ("ok", 1)
            for ticket in doomed:
                with pytest.raises(RuntimeError, match="exploded"):
                    ticket.result(timeout=10.0)
        finally:
            batcher.close()

    def test_close_drains_pending_requests(self):
        gate = threading.Event()
        runner = RecordingRunner(gate=gate)
        batcher = MicroBatcher(runner, max_batch=8, max_wait_ms=5000)
        blocker = batcher.submit("g", "warm")
        pending = [batcher.submit("g", i) for i in range(3)]
        gate.set()
        batcher.close()
        assert blocker.result(timeout=1.0) == ("g", "warm")
        assert [t.result(timeout=1.0)[1] for t in pending] == [0, 1, 2]

    def test_submit_after_close_raises(self):
        batcher = MicroBatcher(RecordingRunner(), max_batch=4)
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit("g", 1)

    def test_result_timeout_cancels_ticket(self):
        """A timed-out wait cancels the ticket (the pre-fix leak kept it
        queued and computed a result nobody would read)."""
        gate = threading.Event()
        runner = RecordingRunner(gate=gate)
        batcher = MicroBatcher(runner, max_batch=4, max_wait_ms=10)
        try:
            ticket = batcher.submit("g", 1)
            with pytest.raises(TimeoutError):
                ticket.result(timeout=0.05)
            assert ticket.cancelled
            gate.set()
            # the batcher keeps serving; repeated waits on the dead
            # ticket keep raising instead of hanging or yielding a value
            assert batcher.submit("g", 2).result(10.0) == ("g", 2)
            with pytest.raises(TimeoutError):
                ticket.result(timeout=0.01)
        finally:
            batcher.close()

    def test_runner_result_count_mismatch_is_an_error(self):
        batcher = MicroBatcher(lambda key, payloads: [], max_batch=4,
                               max_wait_ms=5)
        try:
            with pytest.raises(RuntimeError, match="returned 0 results"):
                batcher.submit("g", 1).result(10.0)
        finally:
            batcher.close()

    def test_rejects_bad_policy(self):
        with pytest.raises(ValueError):
            MicroBatcher(RecordingRunner(), max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(RecordingRunner(), max_wait_ms=-1)
        with pytest.raises(ValueError):
            MicroBatcher(RecordingRunner(), workers=0)
        with pytest.raises(ValueError):
            MicroBatcher(RecordingRunner(), max_queue=0)

    def test_full_queue_rejects_with_backpressure(self):
        from repro.serve.batcher import QueueFull

        gate = threading.Event()
        runner = RecordingRunner(gate=gate)
        batcher = MicroBatcher(runner, max_batch=2, max_wait_ms=50,
                               max_queue=3)
        try:
            blocker = batcher.submit("w", "warm")
            assert runner.entered.wait(10.0)  # worker holds the blocker
            tickets = [batcher.submit("g", i) for i in range(3)]
            with pytest.raises(QueueFull, match="queue is full"):
                batcher.submit("g", 99)
            gate.set()
            blocker.result(timeout=10.0)
            assert [t.result(timeout=10.0)[1] for t in tickets] == [0, 1, 2]
            # capacity freed up once the backlog drained
            assert batcher.submit("g", 7).result(10.0) == ("g", 7)
        finally:
            batcher.close()

    def test_stats_shape(self):
        runner = RecordingRunner()
        batcher = MicroBatcher(runner, max_batch=4, max_wait_ms=7)
        try:
            batcher.submit("g", 1).result(10.0)
        finally:
            batcher.close()
        stats = batcher.stats()
        assert stats["batches"] == 1
        assert stats["batched_requests"] == 1
        assert stats["mean_batch_size"] == 1.0
        assert stats["max_batch"] == 4
        assert stats["max_wait_ms"] == 7.0
