"""Thread-safe engine pool: hot compiled plans shared across workers.

Serving traffic must not pay per-request compilation: quantizing the
stored-weight variants and drawing every layer's weight streams costs
orders of magnitude more than one micro-batched inference.  The pool
therefore caches two tiers behind one lock:

* **plans** — :class:`repro.engine.plan.CompiledPlan` keyed by
  ``(model digest, config digest, weight_bits)`` per stream length.  A
  request for a new length first tries :meth:`CompiledPlan.with_length`
  on a cached sibling, so length variants of one design point share
  quantized weights (all-APC configurations even share whole layer
  plans);
* **engines** — constructed :class:`repro.engine.engine.Engine`
  instances keyed by ``(backend, model digest, config digest, stream
  length, weight_bits, seed, opts)``, with LRU eviction bounded by
  ``max_engines`` (an exact engine's weight streams dominate the pool's
  memory; the plan tier underneath stays warm so a re-admitted engine
  only re-draws streams, never re-quantizes).

Every key includes the **model digest** (structure + trained parameter
fingerprint, :func:`repro.nn.zoo.model_digest`): a pool may hold several
zoo models, and two models with identical configs-ex-length must never
share quantized weights or weight streams.

The pool holds the lock across misses: constructing an engine twice
because two workers raced would cost more than briefly serializing them,
and the batcher in front of the pool keeps the hot path to lookups.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro import obs
from repro.core.config import NetworkConfig, config_digest
from repro.engine import Engine, build_graph, compile_plan
from repro.engine.plan import normalize_weight_bits
from repro.nn.zoo import model_digest, weight_layer_count

__all__ = ["EnginePool", "model_set"]

DEFAULT_MODEL = "default"

_LOOKUPS_TOTAL = "repro_pool_lookups_total"
_LOOKUPS_HELP = "Engine-pool lookups, by outcome."
_PLANS_TOTAL = "repro_pool_plan_builds_total"
_PLANS_HELP = "Plan-tier builds, by how the plan was obtained."


def model_set(model) -> dict:
    """A served model set as ``{name: model}``: a bare model is
    registered as ``"default"``; a mapping must not be empty."""
    if not isinstance(model, dict):
        return {DEFAULT_MODEL: model}
    if not model:
        raise ValueError("the model mapping must not be empty")
    return dict(model)


class EnginePool:
    """LRU cache of compiled plans and constructed engines over a model set.

    Parameters
    ----------
    model:
        A trained :class:`repro.nn.module.Sequential` (registered under
        the name ``"default"``) or a ``{name: model}`` mapping for
        multi-model serving.
    max_engines:
        Engine-tier capacity; least-recently-used engines are evicted
        beyond it.
    max_plans:
        Plan-tier capacity.  Plans are small next to engines (no weight
        streams), so the default keeps more of them.
    """

    def __init__(self, model, max_engines: int = 8, max_plans: int = 32):
        if max_engines < 1 or max_plans < 1:
            raise ValueError("max_engines and max_plans must be >= 1")
        self.models = model_set(model)
        self.default_model = next(iter(self.models))
        self._digests = {name: model_digest(m)
                         for name, m in self.models.items()}
        self.max_engines = int(max_engines)
        self.max_plans = int(max_plans)
        self._lock = threading.RLock()
        self._plans = OrderedDict()    # (mdigest, cdigest, bits, length)
        self._engines = OrderedDict()  # engine key -> Engine
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._plans_compiled = 0
        self._plans_rederived = 0

    # ------------------------------------------------------------------
    def _resolve_model(self, model):
        """Map a model spec (``None`` / registered name) to (name, model)."""
        if model is None:
            model = self.default_model
        if model not in self.models:
            raise ValueError(
                f"unknown model {model!r}; this pool serves: "
                f"{', '.join(sorted(self.models))}")
        return model, self.models[model]

    def _bits(self, model_obj, weight_bits):
        return normalize_weight_bits(
            weight_bits, n_layers=weight_layer_count(model_obj))

    def engine_key(self, config: NetworkConfig, backend: str = "exact",
                   weight_bits=None, seed: int = 0, model=None,
                   **backend_opts):
        """The pool key an engine for this request would live under."""
        name, model_obj = self._resolve_model(model)
        return (backend, self._digests[name], config_digest(config),
                config.length, self._bits(model_obj, weight_bits),
                int(seed), tuple(sorted(backend_opts.items())))

    def _plan_for(self, name: str, config: NetworkConfig, bits):
        """Cached plan for (model, digest, bits, length); compiles on miss.

        Misses prefer re-targeting a cached sibling length via
        ``with_length`` (shares raw-quantized weights, and whole layer
        plans when no state number changes) over compiling from scratch.
        """
        mdigest = self._digests[name]
        digest = config_digest(config)
        key = (mdigest, digest, bits, config.length)
        plan = self._plans.get(key)
        if plan is not None:
            self._plans.move_to_end(key)
            return plan
        sibling_key, sibling = next(
            ((k, p) for k, p in reversed(self._plans.items())
             if k[:3] == (mdigest, digest, bits)), (None, None))
        if sibling is not None:
            # Using a sibling as the re-target source is a use: refresh
            # its LRU position so the family's canonical plan is not
            # evicted while it is still what new lengths derive from.
            self._plans.move_to_end(sibling_key)
            plan = sibling.with_length(config.length, name=config.name)
            self._plans_rederived += 1
            obs.counter(_PLANS_TOTAL, _PLANS_HELP, how="rederived").inc()
        else:
            plan = compile_plan(build_graph(self.models[name], config),
                                weight_bits=bits)
            self._plans_compiled += 1
            obs.counter(_PLANS_TOTAL, _PLANS_HELP, how="compiled").inc()
        self._plans[key] = plan
        while len(self._plans) > self.max_plans:
            self._plans.popitem(last=False)
        return plan

    def get(self, config: NetworkConfig, backend: str = "exact",
            weight_bits=None, seed: int = 0, model=None,
            **backend_opts) -> Engine:
        """The pooled engine for a request spec (constructed on miss).

        ``model`` selects a registered model by name (``None`` = the
        pool's default).
        """
        name, model_obj = self._resolve_model(model)
        bits = self._bits(model_obj, weight_bits)
        key = self.engine_key(config, backend, bits, seed, model=name,
                              **backend_opts)
        with self._lock:
            engine = self._engines.get(key)
            if engine is not None:
                self._engines.move_to_end(key)
                self._hits += 1
                obs.counter(_LOOKUPS_TOTAL, _LOOKUPS_HELP,
                            outcome="hit").inc()
                return engine
            self._misses += 1
            obs.counter(_LOOKUPS_TOTAL, _LOOKUPS_HELP,
                        outcome="miss").inc()
            plan = self._plan_for(name, config, bits)
            engine = Engine(backend=backend, seed=seed, plan=plan,
                            **backend_opts)
            self._engines[key] = engine
            while len(self._engines) > self.max_engines:
                self._engines.popitem(last=False)
                self._evictions += 1
                obs.counter("repro_pool_evictions_total",
                            "Engines evicted from the pool (LRU).").inc()
            return engine

    def stats(self) -> dict:
        """Counters snapshot, including the ``/stats`` hit rate."""
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "models": sorted(self.models),
                "engines": len(self._engines),
                "plans": len(self._plans),
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "hit_rate": round(self._hits / lookups, 4) if lookups else None,
                "plans_compiled": self._plans_compiled,
                "plans_rederived": self._plans_rederived,
            }
