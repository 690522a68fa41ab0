"""Multi-process executor: worker processes behind the serving frontend.

One process computes under one GIL, so :class:`ProcExecutor` runs **N
worker processes**, each a bare
:class:`~repro.serve.service.LocalExecutor` (engine pool plus
micro-batcher).  The :class:`~repro.serve.service.ServeFrontend` in
front validates, admits, traces and accounts every request exactly
once; the executor routes the resolved request and relays its reply:

* **inherited plans** — each warm spec is compiled once in the parent,
  before any worker forks, and every worker's engine pool starts with
  those plan objects: ``fork`` shares their pages copy-on-write;
* **spec-affine routing** — a request's group key hashes to a worker,
  so same-spec traffic still coalesces in one micro-batcher;
* **admission control** — in-flight requests are bounded per model
  before crossing a process boundary (:class:`~repro.serve.batcher.
  QueueFull`, HTTP 503);
* **supervision** — a dead worker is respawned and its in-flight
  requests resubmitted (compute is deterministic and side-effect-free,
  so a request computed twice is harmless and the first reply wins);
* **shutdown** — :meth:`ProcExecutor.close` sends each worker an
  explicit ``("close", None)`` message.  Pipe EOF cannot be the signal:
  a fork-context child inherits the parent's copy of its own request
  pipe's send end, and later workers inherit earlier workers' send
  ends, so no request pipe's write side is ever closed everywhere.  The
  puller thread that receives the message closes the request pipe, its
  sibling pullers fall out on ``OSError``, and the worker closes its
  executor and exits 0.

A worker receives the group key, the validated payload (a scene
already tiled) and the request's absolute deadline: ``CLOCK_MONOTONIC``
is system-wide on Linux, so queue transit counts against the request
budget.  Workers are **fork**-context processes: the model set, the
compiled plans and an armed ``REPRO_FAULTS`` injector are inherited.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import threading
import time
import multiprocessing
from multiprocessing import connection

from repro import faults, obs
from repro.core.config import config_digest
from repro.engine import build_graph, compile_plan, get_backend
from repro.engine.exact import ExactBackend
from repro.nn.zoo import model_digest
from repro.serve.batcher import DeadlineExceeded, QueueFull
from repro.serve.pool import EnginePool, model_set
from repro.serve.service import (
    LocalExecutor,
    RequestResolver,
    ServeFrontend,
)
from repro.utils.blas import cap_blas_threads

__all__ = ["ProcExecutor", "ProcServeFacade"]

_RESTARTS_TOTAL = "repro_serve_worker_restarts_total"
_RESTARTS_HELP = "Serve worker processes respawned after dying."

#: extra seconds the frontend waits beyond a request's own timeout
#: before declaring the reply lost (covers queue + pickling transit)
REPLY_SLACK_S = 5.0

#: how long a stats scrape of one worker may take
SCRAPE_TIMEOUT_S = 10.0

#: how long close() waits for a worker to act on its close message
#: before terminating it
CLOSE_JOIN_S = 5.0

#: puller threads per worker — the largest micro-batch a worker can
#: gather from relayed traffic
WORKER_THREADS = 16

# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------

#: wire tags for worker-side exceptions, checked in order; anything
#: else travels as "internal" and is rebuilt as RuntimeError
_ERROR_KINDS = (("queue_full", QueueFull), ("deadline", DeadlineExceeded),
                ("timeout", TimeoutError), ("bad_request", ValueError))


def _error_kind(exc: BaseException) -> str:
    """Collapse a worker-side exception to a transportable kind tag."""
    return next((kind for kind, cls in _ERROR_KINDS
                 if isinstance(exc, cls)), "internal")


def _rebuild_error(kind: str, message: str) -> Exception:
    """Frontend-side inverse of :func:`_error_kind` (keeps HTTP mapping)."""
    return dict(_ERROR_KINDS).get(kind, RuntimeError)(message)


def _worker_main(worker_id: int, procs: int, models, plans: dict,
                 warm_key, max_engines: int, batcher: dict, req_conn,
                 rep_conn) -> None:
    """A worker process: a bare executor fed from its request pipe.

    Messages are ``(kind, req_id, *args)``; every kind but ``close`` is
    answered with ``(req_id, ok, payload)``.  A ``run`` message carries
    a request the frontend already admitted, resolved and validated, so
    the worker only executes it.  A pool of puller threads lets
    concurrent same-spec traffic coalesce in this worker's
    micro-batcher.  The pipe locks are **worker-local** on purpose: a
    cross-process lock (what ``mp.Queue`` uses) stays acquired forever
    when a chaos kill lands while a sibling thread holds it.
    """
    faults.maybe_install_from_env()
    cap_blas_threads(procs)
    # The frontend counts every request; counts it made before this
    # fork (or respawn) must not reach the merged scrape a second time.
    obs.set_registry(obs.MetricsRegistry())
    pool = EnginePool(models, max_engines=max_engines)
    pool._plans.update(plans)  # the parent's compiled plans, inherited
    executor = LocalExecutor(pool, **batcher)
    if warm_key is not None:
        # The warm engine is built here, not inherited: built in the
        # parent, its weight banks would also sit in the resident set of
        # a process that serves no request.
        executor.engine(warm_key)
    count_lock = threading.Lock()
    served = 0

    def run(kind, key, payload, deadline):
        nonlocal served
        try:
            with obs.span(f"serve.{kind}", model=key[0], backend=key[1]):
                # the SceneResult dataclass pickles over the pipe whole
                return executor.run(kind, key, payload, deadline)
        finally:
            with count_lock:
                served += 1

    def stats():
        executor.export_gauges()
        with count_lock:
            requests = served
        return {"worker": worker_id, "pid": os.getpid(),
                "stats": {"service": {"requests": requests},
                          **executor.stats()},
                "metrics": obs.get_registry().snapshot()}

    handlers = {"run": run, "stats": stats}
    recv_lock = threading.Lock()
    send_lock = threading.Lock()

    def reply(item) -> None:
        try:
            with send_lock:
                rep_conn.send(item)
        except OSError:
            pass  # frontend is gone; nothing left to answer to

    def pull() -> None:
        while True:
            try:
                with recv_lock:
                    kind, req_id, *args = req_conn.recv()
                    if kind == "close":
                        req_conn.close()
                        return
            except (EOFError, OSError):
                return  # a sibling took the close message
            try:
                reply((req_id, True, handlers[kind](*args)))
            except Exception as exc:  # noqa: BLE001 - relay, don't die
                reply((req_id, False, (_error_kind(exc), str(exc))))

    pullers = [threading.Thread(target=pull, name=f"pull-{i}",
                                daemon=True)
               for i in range(WORKER_THREADS)]
    for thread in pullers:
        thread.start()
    for thread in pullers:
        thread.join()
    executor.close()
    rep_conn.close()


# ---------------------------------------------------------------------------
# executor
# ---------------------------------------------------------------------------

class _Pending:
    """One relayed message awaiting its worker reply."""

    __slots__ = ("event", "result", "error", "worker", "msg")

    def __init__(self, worker: int, msg):
        self.event = threading.Event()
        self.result = None
        self.error = None
        self.worker = worker
        self.msg = msg


class _WorkerLink:
    """One worker incarnation: process + its pipe ends + reply pump."""

    __slots__ = ("proc", "req_send", "rep_recv", "send_lock", "reader")

    def __init__(self, proc, req_send, rep_recv, reader):
        self.proc = proc
        self.req_send = req_send
        self.rep_recv = rep_recv
        self.send_lock = threading.Lock()
        self.reader = reader

    def close(self) -> None:
        """Close the frontend-side pipe ends."""
        self.req_send.close()
        self.rep_recv.close()


class ProcExecutor:
    """Executor relaying requests to ``procs`` worker processes, each a
    :class:`LocalExecutor` over an :class:`EnginePool` of
    ``max_engines`` with ``batcher`` (its micro-batcher policy).  With
    ``warm``, ``resolver`` names the specs whose plans are compiled here
    once and whose default engine every worker builds at startup.
    Admission allows ``2 * batcher["max_queue"]`` requests in flight per
    model."""

    def __init__(self, models: dict, resolver: RequestResolver, *,
                 procs: int, batcher: dict, max_engines: int, warm: bool):
        self.models = models
        self.procs = int(procs)
        self.admission_limit = 2 * int(batcher["max_queue"])
        self._batcher = batcher
        self._max_engines = int(max_engines)

        # Every warm plan, keyed like EnginePool's plan tier; compiled
        # before the first fork so all workers share one copy.
        self.plans = {}
        self._warm_key = None
        if warm:
            for name, model in models.items():
                key, config, _ = resolver.resolve({"model": name})
                bits = key[3]
                plan = compile_plan(build_graph(model, config),
                                    weight_bits=bits)
                if issubclass(get_backend(key[1]), ExactBackend):
                    # A spec the warm engine cannot carry fails here,
                    # before any fork, not in a respawning worker.
                    ExactBackend._checked_segment(plan)
                self.plans[(model_digest(model), config_digest(config),
                            bits, config.length)] = plan
            self._warm_key = resolver.resolve({})[0]

        self._ctx = multiprocessing.get_context("fork")
        self._links = [None] * self.procs
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._pending = {}          # req_id -> _Pending
        self._inflight_by_model = {}
        self._closing = threading.Event()
        self._restarts = 0

        for i in range(self.procs):
            self._spawn(i)
        self._monitor = threading.Thread(target=self._watch_workers,
                                         name="serve-monitor", daemon=True)
        self._monitor.start()

    def _spawn(self, index: int) -> None:
        """Start (or restart) worker ``index`` with a fresh pipe pair."""
        req_recv, req_send = self._ctx.Pipe(duplex=False)
        rep_recv, rep_send = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(index, self.procs, self.models, self.plans,
                  self._warm_key, self._max_engines, self._batcher,
                  req_recv, rep_send),
            name=f"serve-worker-{index}", daemon=True)
        proc.start()
        # The parent's copies of the worker-side ends must close right
        # away — before any later fork can inherit them — or reply-pipe
        # EOF would never fire when this worker dies.
        req_recv.close()
        rep_send.close()
        reader = threading.Thread(
            target=self._read_replies, args=(rep_recv,),
            name=f"serve-replies-{index}", daemon=True)
        reader.start()
        self._links[index] = _WorkerLink(proc, req_send, rep_recv, reader)

    def _send(self, index: int, msg) -> bool:
        """Send to one worker; False if its pipe is already broken."""
        link = self._links[index]
        try:
            with link.send_lock:
                link.req_send.send(msg)
            return True
        except OSError:
            # Worker died before the monitor noticed; the respawn path
            # resubmits everything registered as pending on it.
            return False

    def _watch_workers(self) -> None:
        """Respawn dead workers; resubmit their in-flight requests."""
        while not self._closing.is_set():
            # A dead worker's sentinel is ready at once, so one that
            # died since the last pass is still seen.
            sentinels = {link.proc.sentinel: i
                         for i, link in enumerate(self._links)}
            dead = connection.wait(list(sentinels), timeout=0.5)
            if self._closing.is_set():
                return
            for sentinel in dead:
                index = sentinels[sentinel]
                link = self._links[index]
                link.proc.join(timeout=1.0)
                link.reader.join(timeout=1.0)
                link.close()
                self._restarts += 1
                obs.counter(_RESTARTS_TOTAL, _RESTARTS_HELP,
                            worker=str(index)).inc()
                # Back off on repeated instant deaths so a worker that
                # cannot even start does not become a respawn hot loop.
                if self._closing.wait(min(0.1 * self._restarts, 2.0)):
                    return
                # Re-run everything the dead incarnation owed a reply
                # for — read or still in its pipe, we cannot tell, and
                # it does not matter: computing a request twice is safe
                # (deterministic, side-effect-free) and the first reply
                # wins; dropping one is not.  Under the lock, so close()
                # never races a respawn.
                with self._lock:
                    if self._closing.is_set():
                        return
                    self._spawn(index)
                    owed = [p.msg for p in self._pending.values()
                            if p.worker == index]
                for msg in owed:
                    self._send(index, msg)

    def _read_replies(self, rep_recv) -> None:
        """Per-incarnation reply pump; exits on the worker's EOF."""
        while True:
            try:
                req_id, ok, payload = rep_recv.recv()
            except (EOFError, OSError):
                return
            with self._lock:
                pending = self._pending.pop(req_id, None)
            if pending is None:
                # duplicate reply after a respawn resubmission, or a
                # reply for a request the frontend already timed out
                continue
            if ok:
                pending.result = payload
            else:
                pending.error = _rebuild_error(*payload)
            pending.event.set()

    def _route(self, key) -> int:
        """Worker index for a group key: same spec, same worker, so
        coalescing survives the process split."""
        model, backend, config, bits, seed = key
        basis = repr((model, backend, config_digest(config),
                      config.length, bits, seed))
        digest = hashlib.sha1(basis.encode("utf8")).hexdigest()
        return int(digest[:8], 16) % self.procs

    def _call(self, index: int, kind: str, args, wait):
        """Relay one message to worker ``index``; its reply or raise."""
        with self._lock:
            req_id = next(self._ids)
            msg = (kind, req_id, *args)
            pending = self._pending[req_id] = _Pending(index, msg)
        try:
            # A failed send means the worker just died: leave the
            # message pending — the monitor's respawn resubmits it.
            self._send(index, msg)
            if not pending.event.wait(wait):
                raise TimeoutError(
                    f"no reply from worker {index} within {wait:.1f}s")
            if pending.error is not None:
                raise pending.error
            return pending.result
        finally:
            with self._lock:
                self._pending.pop(req_id, None)

    def run(self, kind, key, payload, deadline):
        """Relay a resolved request to its spec-affine worker.  A scene
        travels already tiled, so all its windows land in one worker's
        micro-batcher and coalesce there."""
        model = key[0]
        with self._lock:
            inflight = self._inflight_by_model.get(model, 0)
            if inflight >= self.admission_limit:
                obs.counter("repro_serve_admission_rejects_total",
                            "Requests refused by frontend admission "
                            "control, by model.", model=model).inc()
                raise QueueFull(
                    f"model {model!r} has {inflight} requests in "
                    f"flight (admission limit "
                    f"{self.admission_limit}); retry shortly")
            self._inflight_by_model[model] = inflight + 1
        wait = (None if deadline is None
                else max(deadline - time.monotonic(), 0.0) + REPLY_SLACK_S)
        try:
            return self._call(self._route(key), "run",
                              (kind, key, payload, deadline), wait)
        finally:
            with self._lock:
                self._inflight_by_model[model] -= 1

    def _live(self) -> list:
        return [i for i, link in enumerate(self._links)
                if link.proc.is_alive()]

    def _scrape_workers(self) -> list:
        """Every live worker's stats report; one that does not answer in
        time (wedged, or dying mid-scrape) is left out."""
        replies = []
        for index in self._live():
            try:
                replies.append(self._call(index, "stats", (),
                                          SCRAPE_TIMEOUT_S))
            except TimeoutError:
                pass
        return replies

    def stats(self) -> dict:
        """Process-tier telemetry plus every worker's own ``stats()``."""
        workers = self._scrape_workers()
        pool = {field: sum(r["stats"]["pool"].get(field, 0)
                           for r in workers)
                for field in ("engines", "plans", "hits", "misses",
                              "plans_compiled", "plans_rederived")}
        return {
            "procs": {
                "workers": self.procs,
                "alive": len(self._live()),
                "restarts": self._restarts,
                "admission_limit_per_model": self.admission_limit,
            },
            "pool": pool,
            "workers": [{"worker": r["worker"], "pid": r["pid"],
                         **r["stats"]} for r in workers],
        }

    def export_gauges(self) -> None:
        """Executor gauges (worker gauges publish worker-side)."""
        obs.gauge("repro_serve_procs",
                  "Serve worker processes configured.").set(self.procs)
        obs.gauge("repro_serve_procs_alive",
                  "Serve worker processes currently alive.").set(
                      len(self._live()))
        obs.gauge("repro_serve_frontend_pending",
                  "Relayed requests awaiting a worker reply.").set(
                      len(self._pending))

    def metric_snapshots(self) -> list:
        """Every live worker's registry snapshot."""
        return [reply["metrics"] for reply in self._scrape_workers()]

    def close(self) -> None:
        """Stop every worker; release callers still awaiting a reply."""
        with self._lock:
            self._closing.set()  # no respawn starts after this
        for index in range(self.procs):
            self._send(index, ("close", None))
        # Exiting workers wake the monitor, which then sees _closing;
        # once it is gone the links are this thread's alone.
        self._monitor.join()
        for link in self._links:
            link.proc.join(timeout=CLOSE_JOIN_S)
            if link.proc.is_alive():
                # Safety net, not the shutdown path: only a worker
                # wedged inside a request ignores its close message.
                link.proc.terminate()
                link.proc.join(timeout=1.0)
            link.reader.join(timeout=1.0)
            link.close()
        # Whatever still awaits a reply will never get one.
        with self._lock:
            orphans, self._pending = list(self._pending.values()), {}
        for pending in orphans:
            pending.error = RuntimeError("service is closed")
            pending.event.set()


class ProcServeFacade(ServeFrontend):
    """The frontend bound to a :class:`ProcExecutor`.

    Parameters mirror :class:`InferenceService`, plus ``procs`` (worker
    process count).  Each worker pulls relayed traffic on
    :data:`WORKER_THREADS` threads, and admission bounds each model to
    ``2 * max_queue`` requests in flight.  ``/stats`` reports ``procs``,
    the summed ``pool`` and each worker's own report under ``workers``.
    """

    def __init__(self, model, *, procs: int = 2, backend: str = "exact",
                 length: int = 64, kinds=None, pooling="max",
                 weight_bits=None, seed: int = 0, max_batch: int = 16,
                 max_wait_ms: float = 2.0, workers: int = 1,
                 max_queue: int = 1024, max_engines: int = 8,
                 warm: bool = True):
        if procs < 1:
            raise ValueError("procs must be >= 1")
        models = model_set(model)
        resolver = RequestResolver(
            models, default_model=next(iter(models)), backend=backend,
            length=length, kinds=kinds, pooling=pooling,
            weight_bits=weight_bits, seed=seed)
        super().__init__(resolver, ProcExecutor(
            models, resolver, procs=procs, max_engines=max_engines,
            warm=warm,
            batcher=dict(max_batch=max_batch, max_wait_ms=max_wait_ms,
                         workers=workers, max_queue=max_queue)))
