"""``repro.serve`` — micro-batched inference serving.

One **frontend** over two **executors**.
:class:`~repro.serve.service.ServeFrontend` owns the request lifecycle:
validation (:class:`RequestResolver`), admission and drain, the root
``serve.predict``/``serve.scene`` spans, :class:`LatencyTracker`
accounting, ``/stats`` and ``/metrics``.  Its executor runs the work:

* :class:`~repro.serve.service.LocalExecutor` — in process: the
  :class:`EnginePool` LRU cache of compiled plans and engines behind
  the :class:`MicroBatcher`, which coalesces concurrent same-spec
  requests under a ``max_batch``/``max_wait_ms`` policy;
* :class:`~repro.serve.procpool.ProcExecutor` — N worker processes,
  each a bare :class:`LocalExecutor` fed by spec-affine routing, with
  the parent's compiled plans inherited through ``fork`` and an
  explicit close message per worker at shutdown (``--procs N``).  The
  frontend counts every request once; workers only execute.

:class:`InferenceService` and :class:`ProcServeFacade` are the frontend
bound to each executor; :mod:`repro.serve.server` puts either behind a
``ThreadingHTTPServer`` JSON API (``POST /predict``, ``GET /healthz``,
``/stats``, ``/metrics``).

Exact-backend responses are *bit-identical* to dedicated single-request
``Engine.predict`` calls with the same per-request seed, however
requests are coalesced or routed — the guarantee rests on
:meth:`repro.engine.exact.ExactBackend.forward_independent` (see
DESIGN.md, "Serving layer").

Start a server from the shell::

    python -m repro serve --port 8100 --backend exact --length 64

or embed the service::

    from repro.serve import InferenceService
    service = InferenceService(trained_model, length=64)
    pred = service.predict_one(image)
"""

from repro.serve.batcher import (
    DeadlineExceeded,
    MicroBatcher,
    QueueFull,
    Ticket,
)
from repro.serve.pool import EnginePool
from repro.serve.procpool import ProcExecutor, ProcServeFacade
from repro.serve.server import ServeHTTPServer, create_server, run_server
from repro.serve.service import (
    InferenceService,
    LocalExecutor,
    RequestResolver,
    ServeFrontend,
    ServiceDraining,
    payload_fingerprint,
)
from repro.serve.stats import LatencyTracker

__all__ = [
    "DeadlineExceeded", "EnginePool", "InferenceService", "LatencyTracker",
    "LocalExecutor", "MicroBatcher", "ProcExecutor",
    "ProcServeFacade", "QueueFull", "RequestResolver", "ServeFrontend",
    "ServeHTTPServer", "ServiceDraining", "Ticket", "create_server",
    "payload_fingerprint", "run_server",
]
