"""Dynamic micro-batching: coalesce concurrent requests into one call.

The exact bit-level backend is faster per image when it simulates a
batch than when it runs images one at a time (perfbench's ``fwd-*``
workloads measure the batched forward), but service traffic arrives as
independent single-image requests.  The :class:`MicroBatcher` closes
that gap: requests enqueue with a *group key* (everything that must
match for two requests to share one engine call — backend, config,
seed), and worker threads drain the queue in group-keyed batches under a
``max_batch`` / ``max_wait_ms`` policy.  A batch launches when the
first of three conditions holds:

* **full** — ``max_batch`` same-group requests are queued (no pointless
  waiting once full);
* **deadline** — the oldest queued request has waited ``max_wait_ms``
  (the hard latency bound under sustained open-loop load);
* **quiescent** — no request joined the *oldest request's group* during
  the last wait quantum (``max_wait_ms / 8``).  This is what makes the
  batcher *dynamic*: a closed-loop client fleet smaller than
  ``max_batch`` flushes as soon as the in-flight wave has fully arrived
  instead of sleeping out the deadline, and a lone request pays roughly
  one quantum, not ``max_wait_ms``.  Quiescence is judged per group, so
  steady traffic on one group cannot starve another group's flush.

Batching is *transparent* by construction: the runner the service
installs uses :meth:`repro.engine.exact.ExactBackend.
forward_independent`, whose cached post-construction draws make every
coalesced response bit-identical to a dedicated single-request engine
call.  The batcher itself never inspects payloads.

Failure semantics
-----------------
Every ticket resolves *exactly once* — completed, shed, or refused,
never hung (the quiescent-consistency bar the drain path is held to):

* a ticket with a **deadline** that expires while queued is shed
  *before* compute (resolved with :class:`DeadlineExceeded`; the HTTP
  layer maps it to 504) instead of burning engine time on an answer
  nobody is waiting for;
* a ticket whose waiter **times out** is marked cancelled — workers
  drop it from batches instead of still computing it (the pre-fix leak:
  a timed-out request stayed queued and was evaluated anyway);
* a **failing batch is bisected**: the runner call is retried on each
  half, recursively, so one malformed request errors alone and its
  co-batched neighbours succeed transparently (at most ``2n - 1``
  runner calls for a batch of ``n``, and only when something failed).
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import Counter

from repro import obs

__all__ = ["MicroBatcher", "Ticket", "QueueFull", "DeadlineExceeded"]

#: Powers of two up to a generous ceiling — batch sizes are small ints,
#: so log-spaced time buckets would waste resolution where it matters.
_BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)
_SHED_TOTAL = "repro_serve_sheds_total"
_SHED_HELP = "Tickets shed before compute, by reason."


class QueueFull(RuntimeError):
    """Raised by :meth:`MicroBatcher.submit` when the queue is at its
    bound — the service's backpressure signal (HTTP maps it to 503)."""


class DeadlineExceeded(RuntimeError):
    """A ticket's deadline passed before compute: shed, not computed
    (the HTTP layer maps it to 504)."""


class Ticket:
    """A pending request: wait on it for the result.

    Returned by :meth:`MicroBatcher.submit`; :meth:`result` blocks until
    a worker has served the batch containing this request and either
    returns the per-request result or re-raises the batch's error.
    """

    __slots__ = ("key", "payload", "arrival", "deadline", "trace", "seq",
                 "_lock", "_done", "_result", "_error", "_cancelled")

    #: Process-wide monotonic ticket numbering.  The flush policy keys
    #: its gather state on this, never on ``id(ticket)``: CPython reuses
    #: a freed ticket's address, which would alias a brand-new head onto
    #: a stale gather timestamp and flush it before its quantum.
    _seq = itertools.count(1)

    def __init__(self, key, payload, arrival: float, deadline=None):
        self.key = key
        self.payload = payload
        self.arrival = arrival
        self.deadline = deadline  # monotonic instant, or None
        self.seq = next(Ticket._seq)
        # The submitting thread's open span (``serve.predict``): batcher
        # workers parent the queue/compute spans on it so the trace
        # stitches across the thread boundary.
        self.trace = obs.current()
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._result = None
        self._error = None
        self._cancelled = False

    def _resolve(self, result=None, error=None) -> bool:
        """Resolve exactly once; a cancelled/resolved ticket is a no-op."""
        with self._lock:
            if self._done.is_set() or self._cancelled:
                return False
            self._result = result
            self._error = error
            self._done.set()
            return True

    def cancel(self) -> bool:
        """Mark the ticket dead so workers skip it; False if already
        resolved (the result won the race and remains readable)."""
        with self._lock:
            if self._done.is_set():
                return False
            self._cancelled = True
            return True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def expired(self) -> bool:
        return self.deadline is not None and \
            time.monotonic() >= self.deadline

    def result(self, timeout: float = None):
        """Block until served; raises the batch's error if it failed.

        A timeout *cancels* the ticket: workers drop it from batches
        instead of computing a result nobody will read (the shed shows
        up in the batcher's ``shed_cancelled`` counter).
        """
        if not self._done.wait(timeout):
            if self.cancel():
                raise TimeoutError("request not served within timeout")
            # Resolved in the race window between wait and cancel —
            # fall through to the normal read path.
        if self._error is not None:
            raise self._error
        return self._result


class MicroBatcher:
    """Queue + worker threads coalescing requests into batched calls.

    Parameters
    ----------
    runner:
        ``runner(key, payloads) -> results`` — called with a list of
        payloads sharing one group key; must return one result per
        payload, in order.
    max_batch:
        Largest batch handed to ``runner``.
    max_wait_ms:
        Longest the oldest queued request may wait for co-batchable
        traffic before its batch is flushed anyway.
    workers:
        Worker-thread count.  One worker strictly serializes runner
        calls; more overlap distinct groups (numpy releases the GIL in
        the counting kernels, so overlap is real).
    max_queue:
        Backpressure bound: :meth:`submit` raises :class:`QueueFull`
        beyond this many pending requests instead of letting latency
        and memory grow without limit under overload.
    """

    def __init__(self, runner, max_batch: int = 16,
                 max_wait_ms: float = 2.0, workers: int = 1,
                 max_queue: int = 1024):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.max_queue = int(max_queue)
        self._runner = runner
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait_ms) / 1e3
        #: re-check interval while gathering a batch; arrivals during a
        #: quantum keep the gather open, a quiet quantum flushes it.
        self.quantum = max(self.max_wait / 8.0, 5e-4)
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._queue = []
        self._running = True
        self._batches = 0
        self._batch_sizes = Counter()
        self._shed_deadline = 0
        self._shed_cancelled = 0
        self._bisections = 0
        self._batch_failures = 0
        self._inflight = 0
        self._threads = [
            threading.Thread(target=self._worker, name=f"micro-batcher-{i}",
                             daemon=True)
            for i in range(int(workers))
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    def submit(self, key, payload, deadline: float = None) -> Ticket:
        """Enqueue one request; returns its :class:`Ticket`.

        ``deadline`` is an absolute ``time.monotonic()`` instant: a
        ticket still queued past it is shed with
        :class:`DeadlineExceeded` instead of being computed.
        """
        ticket = Ticket(key, payload, time.monotonic(), deadline=deadline)
        with self._work:
            if not self._running:
                raise RuntimeError("batcher is closed")
            if len(self._queue) >= self.max_queue:
                raise QueueFull(
                    f"batcher queue is full ({len(self._queue)} pending "
                    f"requests); retry later")
            self._queue.append(ticket)
            self._work.notify_all()
        return ticket

    def close(self, timeout: float = 10.0) -> None:
        """Stop accepting requests; drain the queue, join the workers."""
        with self._work:
            self._running = False
            self._work.notify_all()
        for thread in self._threads:
            thread.join(timeout)

    # ------------------------------------------------------------------
    def _take_batch(self):
        """Block until a batch is due; pop and return it (None = shut down).

        Runs under the queue lock.  The batch is the oldest request's
        group, capped at ``max_batch``; it launches when full, when the
        oldest request's ``max_wait`` expires, when a whole wait quantum
        passes with no new arrival (quiescence — see the module
        docstring), or immediately during drain.  Workers re-evaluate
        after every wakeup, so whichever worker observes a due batch
        first takes it and the rest keep waiting.
        """
        with self._work:
            gathering = None  # ((head.seq, len(same)), observed_at)
            while True:
                self._shed_dead_tickets()
                if not self._queue:
                    if not self._running:
                        return None
                    gathering = None
                    self._work.wait()
                    continue
                head = self._queue[0]
                same = [t for t in self._queue if t.key == head.key]
                deadline = head.arrival + self.max_wait
                now = time.monotonic()
                # Quiescent: the head group gained nothing for a full
                # quantum.  Judged per group (other groups' traffic must
                # not hold this one to its deadline) and against wall
                # time (Condition.wait wakes on *every* submit's notify,
                # so "woke with the group unchanged" alone is not a
                # quiet quantum).
                # Keyed on the ticket's monotonic sequence number, not
                # id(head): object ids are reused after a head is freed.
                state = (head.seq, len(same))
                if gathering is None or gathering[0] != state:
                    gathering = (state, now)
                quiet = now - gathering[1] >= self.quantum
                if (len(same) >= self.max_batch or now >= deadline
                        or quiet or not self._running):
                    batch = same[:self.max_batch]
                    taken = set(map(id, batch))
                    self._queue = [t for t in self._queue
                                   if id(t) not in taken]
                    self._batches += 1
                    self._batch_sizes[len(batch)] += 1
                    self._inflight += 1
                    obs.counter("repro_serve_batches_total",
                                "Batches dispatched to the runner.").inc()
                    obs.histogram(
                        "repro_serve_batch_size",
                        "Coalesced requests per dispatched batch.",
                        buckets=_BATCH_SIZE_BUCKETS).observe(len(batch))
                    return batch
                waits = [self.quantum - (now - gathering[1]),
                         deadline - now]
                # Wake in time to shed the earliest request deadline,
                # not just at the flush-policy instants.
                ticket_deadline = min(
                    (t.deadline for t in self._queue
                     if t.deadline is not None), default=None)
                if ticket_deadline is not None:
                    waits.append(max(ticket_deadline - now, 0.0))
                self._work.wait(min(waits))

    def _shed_dead_tickets(self) -> None:
        """Drop expired/cancelled tickets from the queue (lock held).

        Expired tickets resolve with :class:`DeadlineExceeded` — shed
        before compute; cancelled tickets were already abandoned by
        their waiter and resolve to nobody.
        """
        keep = []
        for ticket in self._queue:
            if ticket.cancelled:
                self._shed_cancelled += 1
                obs.counter(_SHED_TOTAL, _SHED_HELP,
                            reason="cancelled").inc()
            elif ticket.expired:
                self._shed_deadline += 1
                obs.counter(_SHED_TOTAL, _SHED_HELP,
                            reason="deadline").inc()
                ticket._resolve(error=DeadlineExceeded(
                    "deadline expired before compute; request shed"))
            else:
                keep.append(ticket)
        if len(keep) != len(self._queue):
            self._queue = keep

    def _run_group(self, key, group) -> None:
        """Run one taken batch, bisecting failures down to the culprit.

        Iterative halving: a failing runner call on ``n > 1`` requests
        is split and each half retried, so exactly the offending
        request(s) error and every healthy neighbour still gets its
        result — at most ``2n - 1`` runner calls, and only when
        something failed.  Tickets cancelled since the batch was taken
        are dropped just before compute.
        """
        stack = [group]
        while stack:
            sub = stack.pop()
            batch = [t for t in sub if not t.cancelled]
            if len(batch) != len(sub):
                dropped = len(sub) - len(batch)
                with self._lock:
                    self._shed_cancelled += dropped
                obs.counter(_SHED_TOTAL, _SHED_HELP,
                            reason="cancelled").inc(dropped)
            if not batch:
                continue
            try:
                with obs.span("serve.compute", parent=batch[0].trace,
                              batch=len(batch)):
                    results = self._runner(key, [t.payload for t in batch])
                if len(results) != len(batch):
                    raise RuntimeError(
                        f"runner returned {len(results)} results for a "
                        f"batch of {len(batch)}")
            except Exception as exc:
                with self._lock:
                    self._batch_failures += 1
                obs.counter("repro_serve_batch_failures_total",
                            "Runner calls that raised.").inc()
                if len(batch) == 1:
                    batch[0]._resolve(error=exc)
                    continue
                mid = len(batch) // 2
                with self._lock:
                    self._bisections += 1
                obs.counter("repro_serve_bisections_total",
                            "Failing batches split for retry.").inc()
                stack.append(batch[mid:])
                stack.append(batch[:mid])
                continue
            for ticket, result in zip(batch, results):
                ticket._resolve(result=result)

    def _worker(self):
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            if obs.trace.armed():
                # Retrospective spans for the gather the worker just
                # completed: each ticket's queue wait (arrival -> take)
                # plus one coalesce span describing the batch itself,
                # parented on the head request so a trace viewer sees
                # queue -> coalesce -> compute as one critical path.
                taken = time.monotonic()
                for ticket in batch:
                    obs.record_span("serve.queue", ticket.arrival, taken,
                                    parent=ticket.trace)
                obs.record_span("serve.coalesce", batch[0].arrival, taken,
                                parent=batch[0].trace, batch=len(batch))
            try:
                self._run_group(batch[0].key, batch)
            finally:
                with self._lock:
                    self._inflight -= 1

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Coalescing telemetry: batch count, size histogram, mean size."""
        with self._lock:
            sizes = dict(sorted(self._batch_sizes.items()))
            batches = self._batches
            queued = len(self._queue)
            shed_deadline = self._shed_deadline
            shed_cancelled = self._shed_cancelled
            bisections = self._bisections
            batch_failures = self._batch_failures
            inflight = self._inflight
        requests = sum(size * count for size, count in sizes.items())
        return {
            "batches": batches,
            "batched_requests": requests,
            "queued": queued,
            "inflight_batches": inflight,
            "batch_size_histogram": {str(k): v for k, v in sizes.items()},
            "mean_batch_size": round(requests / batches, 3) if batches
            else None,
            "max_batch": self.max_batch,
            "max_wait_ms": round(self.max_wait * 1e3, 3),
            "shed_deadline": shed_deadline,
            "shed_cancelled": shed_cancelled,
            "bisections": bisections,
            "batch_failures": batch_failures,
        }
