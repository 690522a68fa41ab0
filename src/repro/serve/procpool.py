"""Multi-process executor: worker processes behind the serving frontend.

One process computes under one GIL, so :class:`ProcExecutor` runs **N
worker processes**, each a full
:class:`~repro.serve.service.InferenceService`.  The
:class:`~repro.serve.service.ServeFrontend` in front validates, admits,
traces and accounts every request exactly as in process; the executor
routes and relays it:

* **shared plans** — each warm spec is compiled once, packed into a
  :class:`multiprocessing.shared_memory` segment (:class:`PlanArena`)
  and rehydrated by every worker as zero-copy views;
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
  service and exits 0.  The arena's segments are unlinked last.

Workers are **fork**-context processes: the model set, the arena's
segments and an armed ``REPRO_FAULTS`` injector are inherited, and the
parent is the only process that ever unlinks a segment.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import threading
import time
import multiprocessing
from multiprocessing import connection, shared_memory

from repro import faults, obs
from repro.core.config import config_digest
from repro.engine import build_graph, compile_plan
from repro.engine.plan import pack_plan, unpack_plan
from repro.nn.zoo import model_digest
from repro.serve.batcher import DeadlineExceeded, QueueFull
from repro.serve.pool import model_set
from repro.serve.service import (
    InferenceService,
    RequestResolver,
    ServeFrontend,
)

__all__ = ["PlanArena", "ProcExecutor", "ProcServeFacade"]

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

_arena_ids = itertools.count()


class PlanArena:
    """Packed compiled plans in shared memory, keyed by digests.

    The parent compiles and packs; workers (forked afterwards) inherit
    the segments and seed their engine pools with zero-copy plans.  The
    parent is the sole owner of every segment's lifetime: workers never
    unlink, and :meth:`close` with ``unlink=True`` (the facade's
    shutdown path) removes them from the system.
    """

    def __init__(self):
        self.tag = f"{os.getpid()}-{next(_arena_ids)}"
        self._segments = []
        self._entries = []
        self._closed = False

    def add(self, name: str, model, config, bits) -> str:
        """Compile, pack and publish one plan; returns the segment name."""
        plan = compile_plan(build_graph(model, config), weight_bits=bits)
        payload = pack_plan(plan)
        segment = f"repro-plan-{self.tag}-{len(self._segments)}"
        shm = shared_memory.SharedMemory(name=segment, create=True,
                                         size=len(payload))
        shm.buf[:len(payload)] = payload
        self._segments.append(shm)
        self._entries.append({
            "model": name,
            "mdigest": model_digest(model),
            "cdigest": config_digest(config),
            "bits": bits,
            "length": config.length,
            "config": config,
            "segment": segment,
        })
        return segment

    def segment_names(self) -> list:
        return [entry["segment"] for entry in self._entries]

    def seed_pool(self, pool) -> int:
        """Hydrate every arena plan into an engine pool's plan tier.

        Called inside a forked worker: the inherited segments back every
        rehydrated array, so seeding costs page-table entries, not
        copies.  Returns how many plans were seeded.
        """
        seeded = 0
        for shm, entry in zip(self._segments, self._entries):
            # arena entries and the worker's pool come from one model
            # set, so every entry names a hosted model
            graph = build_graph(pool.models[entry["model"]],
                                entry["config"])
            plan = unpack_plan(graph, shm.buf)
            key = (entry["mdigest"], entry["cdigest"], entry["bits"],
                   entry["length"])
            with pool._lock:
                pool._plans[key] = plan
            seeded += 1
        return seeded

    def close(self, unlink: bool = False) -> None:
        """Detach (and, for the owning parent, unlink) every segment."""
        if self._closed:
            return
        self._closed = True
        for shm in self._segments:
            # Unlink before close: removing the name from the system
            # must not be blocked by live zero-copy views (a rehydrated
            # plan still referencing the mapping raises BufferError on
            # close; the pages stay valid until those views die).
            if unlink:
                try:
                    shm.unlink()
                except FileNotFoundError:
                    pass  # someone else already removed the name
            try:
                shm.close()
            except (BufferError, OSError):
                pass


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


def _worker_main(worker_id: int, models, service_kwargs: dict,
                 arena: PlanArena, req_conn, rep_conn,
                 threads: int) -> None:
    """A worker process: one full service fed from its request pipe.

    Messages are ``(kind, req_id, *args)``; every kind but ``close`` is
    answered with ``(req_id, ok, payload)``.  A pool of puller threads
    lets concurrent same-spec traffic coalesce in this worker's
    micro-batcher.  The pipe locks are **worker-local** on purpose: a
    cross-process lock (what ``mp.Queue`` uses) stays acquired forever
    when a chaos kill lands while a sibling thread holds it.
    """
    faults.maybe_install_from_env()
    kwargs = dict(service_kwargs)
    warm = kwargs.pop("warm")
    service = InferenceService(models, warm=False, **kwargs)
    arena.seed_pool(service.pool)
    if warm:
        # Engines still need their weight streams drawn per process;
        # the plan underneath comes from the arena, so warming here
        # never re-quantizes.
        service.executor.engine(service.resolver.resolve({})[0])

    def timeout(deadline):
        # CLOCK_MONOTONIC is system-wide on Linux, so the frontend's
        # absolute deadline is meaningful here — queue transit counts
        # against the request budget.
        return (None if deadline is None
                else max(deadline - time.monotonic(), 1e-3))

    def stats():
        service.export_gauges()
        return {"worker": worker_id, "pid": os.getpid(),
                "stats": service.stats(),
                "metrics": obs.render(obs.get_registry())}

    handlers = {
        "predict": lambda images, deadline, spec: service.predict(
            images, timeout=timeout(deadline), **spec),
        # the SceneResult dataclass pickles over the pipe whole
        "scene": lambda job, deadline, spec: service.predict_scene(
            job[0], stride=job[1], timeout=timeout(deadline), **spec),
        "stats": stats,
    }
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
               for i in range(max(1, int(threads)))]
    for thread in pullers:
        thread.start()
    for thread in pullers:
        thread.join()
    service.close()
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
    """Executor relaying requests to ``procs`` worker processes built
    with ``service_kwargs``; ``resolver`` resolves the warm specs whose
    plans go into the shared arena."""

    def __init__(self, models: dict, resolver: RequestResolver, *,
                 procs: int, service_kwargs: dict, worker_threads: int,
                 max_inflight_per_model: int):
        self.models = models
        self.procs = int(procs)
        self.max_inflight_per_model = int(max_inflight_per_model)
        self._service_kwargs = service_kwargs
        self._worker_threads = int(worker_threads)

        # one copy of every warm plan, shared by all workers
        self.arena = PlanArena()
        if service_kwargs["warm"]:
            for name, model in models.items():
                key, config, _ = resolver.resolve({"model": name})
                self.arena.add(name, model, config, key[3])

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
            args=(index, self.models, self._service_kwargs, self.arena,
                  req_recv, rep_send, self._worker_threads),
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

    def run(self, kind, key, spec, payload, deadline):
        """Relay a request to its spec-affine worker, which re-resolves
        ``spec`` and serves it through its own frontend.  A scene
        travels whole (``(scene, stride)``), so all its windows land in
        one worker's micro-batcher and coalesce there."""
        model = key[0]
        with self._lock:
            inflight = self._inflight_by_model.get(model, 0)
            if inflight >= self.max_inflight_per_model:
                obs.counter("repro_serve_admission_rejects_total",
                            "Requests refused by frontend admission "
                            "control, by model.", model=model).inc()
                raise QueueFull(
                    f"model {model!r} has {inflight} requests in "
                    f"flight (admission limit "
                    f"{self.max_inflight_per_model}); retry shortly")
            self._inflight_by_model[model] = inflight + 1
        if kind == "scene":
            payload = payload[:2]  # (scene, stride): the worker re-tiles
        wait = (None if deadline is None
                else max(deadline - time.monotonic(), 0.0) + REPLY_SLACK_S)
        try:
            return self._call(self._route(key), kind,
                              (payload, deadline, spec), wait)
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
                "shared_plan_segments": len(self.arena.segment_names()),
                "admission_limit_per_model": self.max_inflight_per_model,
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

    def metric_texts(self) -> list:
        """Every live worker's rendered registry."""
        return [reply["metrics"] for reply in self._scrape_workers()]

    def close(self) -> None:
        """Stop every worker, then reclaim shared memory."""
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
        self.arena.close(unlink=True)


class ProcServeFacade(ServeFrontend):
    """The frontend bound to a :class:`ProcExecutor`.

    Parameters mirror :class:`InferenceService`, plus ``procs`` (worker
    process count), ``worker_threads`` (puller threads per worker — the
    largest micro-batch a worker can gather from relayed traffic) and
    ``max_inflight_per_model`` (admission bound, default
    ``2 * max_queue``).  ``/stats`` reports ``procs``, the summed
    ``pool`` and each worker's own report under ``workers``.
    """

    def __init__(self, model, *, procs: int = 2, backend: str = "exact",
                 length: int = 64, kinds=None, pooling="max",
                 weight_bits=None, seed: int = 0, max_batch: int = 16,
                 max_wait_ms: float = 2.0, workers: int = 1,
                 max_queue: int = 1024, max_engines: int = 8,
                 warm: bool = True, worker_threads: int = 16,
                 max_inflight_per_model: int = None):
        if procs < 1:
            raise ValueError("procs must be >= 1")
        models = model_set(model)
        resolver = RequestResolver(
            models, default_model=next(iter(models)), backend=backend,
            length=length, kinds=kinds, pooling=pooling,
            weight_bits=weight_bits, seed=seed)
        super().__init__(resolver, ProcExecutor(
            models, resolver, procs=procs, worker_threads=worker_threads,
            max_inflight_per_model=(2 * int(max_queue)
                                    if max_inflight_per_model is None
                                    else max_inflight_per_model),
            service_kwargs=dict(
                backend=backend, length=length, kinds=kinds,
                pooling=pooling, weight_bits=weight_bits, seed=seed,
                max_batch=max_batch, max_wait_ms=max_wait_ms,
                workers=workers, max_queue=max_queue,
                max_engines=max_engines, warm=warm)))
