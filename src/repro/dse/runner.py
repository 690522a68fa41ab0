"""Parallel, resumable execution of the Section 6.3 halving search.

``ParallelRunner`` walks a :class:`repro.dse.space.SearchSpace` with the
paper's procedure — evaluate every surviving candidate at the current
stream length, keep those within the accuracy budget, halve, repeat —
and fans each round's evaluations across a ``ProcessPoolExecutor``.

Determinism under parallelism
-----------------------------
Every evaluation is a *pure function* of ``(model, config, weight_bits,
seed, evaluator)``: each point constructs a fresh engine whose RNG is
spawned from the per-point seed, and every point is seeded with the
search seed itself, so ``workers=N`` produces results bit-identical to
``workers=1``.  Results are gathered in submission order, not completion
order, and the passing list is assembled in (round, scenario, combo)
order before the final stable energy sort, so even tie-breaking is
reproduced.  ``tests/test_dse/golden_search.json`` pins whole searches
as digests, and a property test pins the halving contract over stubbed
evaluations.

Plan reuse
----------
Each process (the parent at ``workers=1``, every worker otherwise)
compiles one plan per (kinds, pooling, weight_bits) at the schedule's
``max_length`` and re-targets it per evaluation with
:meth:`repro.engine.plan.CompiledPlan.with_length` — the max-length plan
stays the canonical cache entry, so length variants share quantized
weights and never recompile (all-APC combos share whole layer plans).

Screening and the store
-----------------------
With a :class:`repro.dse.screen.ScreenPolicy`, every candidate first
runs the cheap deterministic screen; only candidates within the policy's
margin of the threshold are promoted to the full evaluation (a
screened-out candidate prunes its combo exactly like a failed full
evaluation).  With a :class:`repro.dse.store.ResultStore`, every
result is appended as soon as it is known and already-stored points are
never re-evaluated — killing and resuming a search converges to the
same store contents and the same frontier as an uninterrupted run.

Failure model
-------------
Evaluations are pure functions, so every failure is recoverable by
re-dispatch — and because re-dispatch recomputes the same pure
function, every *recovered* point is bit-identical to the no-fault run.
The runner survives three failure classes (all injectable through
:mod:`repro.faults` for tests):

* **worker death** (kill -9, OOM, segfault) — the pool turns
  ``BrokenProcessPool``; the runner terminates the carcass, respawns
  the pool, and re-dispatches every lost point;
* **in-band exceptions** — a raising evaluation is retried with
  bounded exponential backoff (``retries`` re-dispatches, ``backoff_s``
  base); a point that keeps failing is *quarantined*: recorded in the
  store as poisoned (skipped on resume), pruned from its combo's
  schedule, and excluded from ``passing`` — the rest of the search
  proceeds;
* **hangs** — with ``eval_timeout_s`` set (pool mode only), a future
  that exceeds the bound counts as a failure: the stuck worker is
  terminated with the pool and the point re-dispatched.

Store writes get the same treatment: an ``OSError`` from the append
path is retried briefly, then the store is dropped for the rest of the
run (``stats["store_errors"]`` says so) — a failing disk costs
resumability, never the search.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from concurrent.futures.process import BrokenProcessPool

from repro import faults, obs

from repro.core.config import NetworkConfig, config_digest
from repro.dse.frontier import halving_trajectories, pareto_front
from repro.dse.screen import ScreenPolicy
from repro.dse.space import Candidate, SearchSpace
from repro.dse.store import ResultStore, make_key
from repro.engine.engine import Engine
from repro.engine.graph import build_graph
from repro.engine.plan import compile_plan
from repro.hw.network_cost import NetworkCost, graph_network_cost
from repro.nn.zoo import model_digest
from repro.utils.blas import cap_blas_threads

__all__ = ["EVALUATOR_SPECS", "DesignPoint", "EvalTask", "DSERecord",
           "DSEResult", "ParallelRunner"]

#: Full-fidelity evaluator -> (engine backend, backend options): 96
#: bit-level samples per noise sigma, 240 per surrogate transfer curve.
#: ``exact`` runs the bit-level simulator itself: far costlier, which is
#: where screening pays off most.  The options enter every store key, so
#: changing them orphans stored results (pinned by a test).
EVALUATOR_SPECS = {
    "noise": ("noise", {"samples": 96}),
    "surrogate": ("surrogate", {"samples": 240}),
    "exact": ("exact", {}),
}

#: Evaluation batch size.  The noise backend draws fresh noise per
#: forward call, so this chunking is part of every noise-evaluated result.
EVAL_BATCH = 256


@dataclasses.dataclass
class DesignPoint:
    """One evaluated (configuration, stream length) point."""

    config: NetworkConfig
    error_pct: float
    degradation_pct: float
    cost: NetworkCost

    def summary(self) -> str:
        return (f"{self.config.describe():34s} err={self.error_pct:5.2f}% "
                f"area={self.cost.area_mm2:6.2f}mm² "
                f"power={self.cost.power_w:5.2f}W "
                f"energy={self.cost.energy_uj:6.2f}µJ")


@dataclasses.dataclass(frozen=True)
class EvalTask:
    """One evaluation to dispatch (pickled to worker processes): a
    :class:`repro.dse.space.Candidate` plus the evaluation ``stage``."""

    candidate: Candidate
    stage: str  # "full" | "screen"


class _EvalContext:
    """Per-process evaluation state: model, eval split, plan cache.

    One instance lives in the parent (``workers=1``) or in each worker
    process (constructed once by the pool initializer).  ``stages`` maps
    a stage to its (engine backend, backend options, images).  Plans are
    cached per (kinds, pooling, weight_bits) at ``max_length`` and
    re-targeted per task, so the max-length compile stays the canonical
    cache entry and no evaluation derives from a shorter re-target.
    """

    def __init__(self, model, x_eval, y_eval, max_length, stages):
        self.model = model
        self.x = x_eval
        self.y = y_eval
        self.max_length = int(max_length)
        self.stages = stages
        self._plans = {}

    def _base_plan(self, cand: Candidate):
        key = (cand.kinds, cand.pooling, cand.weight_bits)
        plan = self._plans.get(key)
        if plan is None:
            config = dataclasses.replace(cand, length=self.max_length,
                                         seed=0).config()
            plan = compile_plan(self.model, config,
                                weight_bits=cand.weight_bits)
            self._plans[key] = plan
        return plan

    def evaluate(self, task: EvalTask) -> float:
        """Error rate (%) of one task — a pure function of the task."""
        cand = task.candidate
        faults.fire("dse.evaluate",
                    label=f"{cand.combo_label}@{cand.length}:{task.stage}")
        with obs.span("dse.evaluate", combo=cand.combo_label,
                      length=cand.length, stage=task.stage):
            plan = self._base_plan(cand).with_length(
                cand.length, name=cand.config().name)
            backend, opts, images = self.stages[task.stage]
            engine = Engine(plan=plan, backend=backend, seed=cand.seed,
                            **opts)
            return engine.error_rate(self.x[:images], self.y[:images],
                                     batch_size=EVAL_BATCH)


def _bump(stats: dict, key: str, n: int = 1) -> None:
    """Increment a runner stat and mirror it into the metrics registry.

    Chaos tests (and ``/metrics`` on a co-resident server) read the
    mirrored ``repro_dse_<key>_total`` counters instead of reaching into
    the runner's private stats dict.
    """
    stats[key] += n
    if n:
        obs.counter(f"repro_dse_{key}_total",
                    "Design-space-exploration runner events.").inc(n)


#: Worker-global context, set once per process by the pool initializer.
_WORKER_CTX = None

def _init_worker(payload: dict, workers: int) -> None:
    global _WORKER_CTX
    cap_blas_threads(workers)
    _WORKER_CTX = _EvalContext(**payload)
    # Re-arm tracing from the environment: a spawn-started
    # worker reimports everything, and a fork-started one inherits a
    # recorder whose pid guard reopens the JSONL file on first emit.
    obs.trace.maybe_enable_from_env()


def _worker_evaluate(task: EvalTask) -> float:
    return _WORKER_CTX.evaluate(task)


@dataclasses.dataclass(frozen=True)
class DSERecord:
    """One evaluated (or store-reused) point of a search."""

    kinds: tuple
    pooling: str
    weight_bits: tuple
    length: int
    stage: str          # "full" | "screen"
    error_pct: float    # None when poisoned (no number was produced)
    degradation_pct: float
    passed: bool        # full: met the threshold; screen: promoted
    reused: bool        # satisfied from the result store
    poisoned: bool = False  # quarantined after exhausting retries
    point: object = None  # DesignPoint (full-stage records only)

    @property
    def combo_label(self) -> str:
        return "-".join(self.kinds)

    @property
    def scenario_label(self) -> str:
        bits = ",".join("f" if b is None else str(b)
                        for b in self.weight_bits)
        return f"{self.combo_label}|{self.pooling}/w{bits}"


@dataclasses.dataclass
class DSEResult:
    """Outcome of one search.

    ``passing`` holds every (configuration, length) :class:`DesignPoint`
    that met the accuracy budget, sorted by energy (ties keep (round,
    scenario, combo) order).  ``records`` is the full evaluation log
    (screen results included), ``frontier`` the generalized Pareto
    frontier of ``passing`` on (error, area, power, energy).
    """

    passing: list
    records: list
    frontier: list
    stats: dict

    def trajectories(self) -> dict:
        """Per-combo halving trajectories (see :mod:`repro.dse.frontier`)."""
        return halving_trajectories(self.records)


class ParallelRunner:
    """Parallel, resumable design-space exploration over one model.

    Parameters
    ----------
    trained:
        A :class:`repro.data.cache.TrainedModel`.
    space:
        The :class:`SearchSpace` to walk (default:
        :meth:`SearchSpace.from_trained` — the model's pooling, 8-bit
        weights, lengths 1024 → 64).
    threshold_pct:
        Accuracy budget: maximum error-rate degradation over the
        software baseline (the paper uses 1.5).
    eval_images:
        Test images per full evaluation (at least 1).
    seed:
        Search seed; every point is evaluated with it.
    evaluator:
        ``"noise"`` (the paper's methodology, default), ``"surrogate"``
        (calibrated transfer curves) or ``"exact"`` (bit-level
        simulation — costly; combine with screening).
    workers:
        Process count; ``1`` evaluates in-process (no pool).
    screen:
        ``None``/``False`` (off), ``True`` (default policy) or a
        :class:`ScreenPolicy`.
    store:
        A :class:`ResultStore` for resumable/incremental searches.
    retries:
        Re-dispatches granted to a failing evaluation before it is
        quarantined (worker crashes, injected faults and timeouts all
        count as failures; a retried point recomputes the same pure
        function, so recovery never changes results).
    backoff_s:
        Base of the bounded exponential backoff between retry rounds
        (``backoff_s * 2**round``, capped at 2 s).
    eval_timeout_s:
        Wall-clock bound on one evaluation (pool mode only — an
        in-process evaluation cannot be preempted).  A future past the
        bound fails: the pool is torn down (terminating the stuck
        worker) and the point re-dispatched.
    """

    def __init__(self, trained, space: SearchSpace | None = None, *,
                 threshold_pct: float = 1.5, eval_images: int = 400,
                 seed: int = 0, evaluator: str = "noise",
                 workers: int = 1, screen=None,
                 store: ResultStore | None = None, verbose: bool = False,
                 retries: int = 2, backoff_s: float = 0.05,
                 eval_timeout_s: float | None = None):
        self.check_settings(evaluator, workers, eval_images, retries,
                            backoff_s, eval_timeout_s)
        self.trained = trained
        self.space = space if space is not None else \
            SearchSpace.from_trained(trained)
        self.threshold_pct = float(threshold_pct)
        self.seed = int(seed)
        self.evaluator = evaluator
        self.workers = int(workers)
        if screen is True:
            screen = ScreenPolicy()
        elif screen is False:
            screen = None
        self.screen = screen
        self.store = store
        self.verbose = verbose
        self.retries = int(retries)
        self.backoff_s = float(backoff_s)
        self.eval_timeout_s = (None if eval_timeout_s is None
                               else float(eval_timeout_s))
        self._store_disabled = False
        self.digest = model_digest(trained.model)
        if store is not None and store.model_digest and \
                store.model_digest != self.digest:
            raise ValueError(
                "result store belongs to a different model "
                f"({store.model_digest} != {self.digest})")
        self._x = trained.bipolar_test_images()[:eval_images]
        self._y = trained.y_test[:eval_images]
        self.eval_images = len(self._x)
        # stage -> (engine backend, backend options, images): what the
        # evaluation runs and what the store key pins, in one place.
        backend, opts = EVALUATOR_SPECS[evaluator]
        self._stages = {"full": (backend, opts, self.eval_images)}
        if self.screen is not None:
            self._stages["screen"] = (
                self.screen.backend, self.screen.backend_opts(),
                self.screen.resolve_images(self.eval_images))

    @staticmethod
    def check_settings(evaluator: str, workers: int, eval_images: int,
                       retries: int, backoff_s: float = 0.05,
                       eval_timeout_s: float | None = None) -> None:
        """Reject bad run settings (needs no model: callable first)."""
        if evaluator not in EVALUATOR_SPECS:
            raise ValueError(
                f"evaluator must be one of {sorted(EVALUATOR_SPECS)}, "
                f"got {evaluator!r}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if eval_images < 1:
            raise ValueError(f"eval_images must be >= 1, got {eval_images}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {backoff_s}")
        if eval_timeout_s is not None and eval_timeout_s <= 0:
            raise ValueError(
                f"eval_timeout_s must be > 0, got {eval_timeout_s}")

    # ------------------------------------------------------------------
    def _context_payload(self) -> dict:
        return dict(model=self.trained.model, x_eval=self._x,
                    y_eval=self._y, max_length=self.space.max_length,
                    stages=self._stages)

    def _task(self, scenario, kinds, length: int, stage: str) -> EvalTask:
        return EvalTask(
            candidate=Candidate(tuple(kinds), scenario.pooling,
                                scenario.weight_bits, length, self.seed),
            stage=stage)

    def _store_key(self, task: EvalTask) -> str:
        backend, opts, images = self._stages[task.stage]
        sig = backend + "".join(f";{k}={v}" for k, v in sorted(opts.items()))
        cand = task.candidate
        return make_key(self.digest, config_digest(cand.config()),
                        cand.weight_bits, cand.length, cand.seed,
                        task.stage, sig, images)

    def _store_record(self, task: EvalTask, error, degradation,
                      passed: bool, cost, stats: dict,
                      poisoned: bool = False) -> None:
        if self.store is None or self._store_disabled:
            return
        cand = task.candidate
        payload = {
            "model": getattr(self.trained, "model_name", ""),
            "combo": cand.combo_label, "pooling": cand.pooling,
            "weight_bits": list(cand.weight_bits), "length": cand.length,
            "seed": cand.seed, "stage": task.stage,
            "error_pct": None if error is None else float(error),
            "degradation_pct": (None if degradation is None
                                else float(degradation)),
            "passed": bool(passed),
        }
        if poisoned:
            payload["poisoned"] = True
        if cost is not None:
            payload["cost"] = {"area_mm2": cost.area_mm2,
                               "power_w": cost.power_w,
                               "delay_ns": cost.delay_ns,
                               "energy_uj": cost.energy_uj}
        # A failing disk must never fail the search: retry the append
        # briefly, then run the rest of the search store-less (the
        # in-memory index keeps serving resume hits; unpersisted points
        # simply re-evaluate on the next resume).
        for attempt in range(3):
            try:
                self.store.record(self._store_key(task), payload)
                return
            except OSError:
                _bump(stats, "store_errors")
                time.sleep(self.backoff_s * (2 ** attempt))
        self._store_disabled = True
        if self.verbose:  # pragma: no cover - console output
            print("result store disabled after repeated write failures; "
                  "the search continues without persistence")

    def _executor(self, state: dict):
        """The lazily-created evaluation executor (pool or in-process).

        Created on the first store *miss* — a fully-resumed search never
        forks a worker (or even builds the in-process plan cache).
        """
        if self.workers == 1:
            if state.get("ctx") is None:
                state["ctx"] = _EvalContext(**self._context_payload())
            return None, state["ctx"]
        if state.get("pool") is None:
            methods = multiprocessing.get_all_start_methods()
            mp_ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else None)
            state["pool"] = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=mp_ctx,
                initializer=_init_worker,
                initargs=(self._context_payload(), self.workers))
        return state["pool"], None

    def _kill_pool(self, state: dict, stats: dict) -> None:
        """Tear down a broken/stuck pool so the next round respawns it."""
        pool = state["pool"]
        if pool is None:
            return
        state["pool"] = None
        _bump(stats, "respawns")
        # Terminate before shutdown: a hung worker would never drain its
        # work queue, and shutdown(wait=False) alone leaves it running.
        for proc in list(getattr(pool, "_processes", {}).values()):
            proc.terminate()
        pool.shutdown(wait=False, cancel_futures=True)

    def _evaluate_batch(self, tasks, state: dict, stats: dict):
        """Evaluate ``tasks``; returns (errors, reused, poisoned) in order.

        Store hits short-circuit (a stored poisoned point stays
        quarantined); misses dispatch to the pool (or run in-process)
        and are *gathered in submission order* — completion order never
        influences results.  Failed dispatches (worker death, in-band
        exception, timeout) are re-dispatched with bounded exponential
        backoff; a point that exhausts ``retries`` is marked poisoned.
        """
        errors = [None] * len(tasks)
        reused = [False] * len(tasks)
        poisoned = [False] * len(tasks)
        pending = []
        for i, task in enumerate(tasks):
            record = (self.store.get(self._store_key(task))
                      if self.store is not None else None)
            if record is not None:
                reused[i] = True
                if record.get("poisoned"):
                    poisoned[i] = True
                else:
                    errors[i] = float(record["error_pct"])
            else:
                pending.append(i)
        attempts = dict.fromkeys(pending, 0)
        retry_round = 0
        while pending:
            failed = []
            pool, ctx = self._executor(state)
            if pool is not None:
                futures = [(i, pool.submit(_worker_evaluate, tasks[i]))
                           for i in pending]
                broken = False
                for i, future in futures:
                    try:
                        # After a timeout/pool-break, drain the rest on
                        # a short fuse: finished results still come
                        # through, in-flight ones fail and re-dispatch
                        # (recomputing is cheap next to waiting out a
                        # full timeout per future on a dead pool).
                        errors[i] = future.result(
                            0.25 if broken else self.eval_timeout_s)
                    except _FutureTimeout:
                        failed.append(i)
                        broken = True
                        _bump(stats, "timeouts")
                    except BrokenProcessPool:
                        failed.append(i)
                        broken = True
                    except Exception:
                        failed.append(i)  # in-band raise in the worker
                if broken:
                    self._kill_pool(state, stats)
            else:
                for i in pending:
                    try:
                        errors[i] = ctx.evaluate(tasks[i])
                    except Exception:
                        failed.append(i)
            pending = []
            for i in failed:
                attempts[i] += 1
                if attempts[i] > self.retries:
                    poisoned[i] = True
                    errors[i] = None
                    _bump(stats, "poisoned")
                else:
                    pending.append(i)
            if pending:
                _bump(stats, "retries", len(pending))
                time.sleep(min(self.backoff_s * (2 ** retry_round), 2.0))
                retry_round += 1
        return errors, reused, poisoned

    def _settle(self, task: EvalTask, error, reused: bool, poisoned: bool,
                records: list, stats: dict) -> bool:
        """Record one evaluated task; returns whether it passed.

        A full-stage task passes when its degradation meets the
        threshold, a screen-stage task when the policy promotes it.  A
        quarantined task fails either way, so its combo is pruned.
        """
        cand = task.candidate
        _bump(stats, "reused", 1 if reused else 0)
        if poisoned:
            records.append(DSERecord(
                kinds=cand.kinds, pooling=cand.pooling,
                weight_bits=cand.weight_bits, length=cand.length,
                stage=task.stage, error_pct=None, degradation_pct=None,
                passed=False, reused=reused, poisoned=True))
            self._store_record(task, None, None, False, None, stats,
                               poisoned=True)
            if self.verbose:  # pragma: no cover - console output
                print(f"{cand.config().describe():34s} {task.stage} "
                      "POISONED (quarantined)")
            return False
        degradation = error - self.trained.software_error_pct
        point = cost = None
        if task.stage == "full":
            ok = degradation <= self.threshold_pct
            config = cand.config()
            cost = graph_network_cost(
                build_graph(self.trained.model, config),
                weight_bits=cand.weight_bits)
            point = DesignPoint(config=config, error_pct=error,
                                degradation_pct=degradation, cost=cost)
            _bump(stats, "full_evals", 0 if reused else 1)
            _bump(stats, "points")
            if self.verbose:  # pragma: no cover - console output
                print(f"{point.summary()}  {'PASS' if ok else 'FAIL'}")
        else:
            ok = self.screen.promotes(degradation, self.threshold_pct)
            _bump(stats, "screen_evals", 0 if reused else 1)
            if not ok:
                _bump(stats, "screened_out")
                if self.verbose:  # pragma: no cover - console output
                    print(f"{cand.config().describe():34s} "
                          f"screen={degradation:+.2f}% SCREENED-OUT")
        records.append(DSERecord(
            kinds=cand.kinds, pooling=cand.pooling,
            weight_bits=cand.weight_bits, length=cand.length,
            stage=task.stage, error_pct=error, degradation_pct=degradation,
            passed=ok, reused=reused, point=point))
        self._store_record(task, error, degradation, ok, cost, stats)
        return ok

    def _run_stage(self, cells, length: int, stage: str, state: dict,
                   records: list, stats: dict) -> list:
        """Evaluate ``cells`` at ``length``; returns the passing cells."""
        tasks = [self._task(scenario, combo, length, stage)
                 for scenario, combo in cells]
        outcomes = zip(*self._evaluate_batch(tasks, state, stats))
        return [cell for cell, task, outcome in zip(cells, tasks, outcomes)
                if self._settle(task, *outcome, records, stats)]

    # ------------------------------------------------------------------
    def run(self) -> DSEResult:
        """Run the halving search; returns the :class:`DSEResult`."""
        start = time.perf_counter()
        space = self.space
        scenarios = space.scenarios()
        survivors = [(scenario, combo) for scenario in scenarios
                     for combo in space.combos()]
        records = []
        stats = {"full_evals": 0, "screen_evals": 0, "screened_out": 0,
                 "reused": 0, "points": 0, "retries": 0, "respawns": 0,
                 "timeouts": 0, "poisoned": 0, "store_errors": 0}
        state = {"pool": None, "ctx": None}
        try:
            for length in space.lengths():
                if not survivors:
                    break
                if self.screen is not None:
                    survivors = self._run_stage(survivors, length, "screen",
                                                state, records, stats)
                survivors = self._run_stage(survivors, length, "full",
                                            state, records, stats)
        finally:
            if state["pool"] is not None:
                state["pool"].shutdown(wait=True, cancel_futures=True)
        passing = [r.point for r in records if r.point is not None
                   and r.passed]
        passing.sort(key=lambda p: p.cost.energy_uj)
        stats.update(
            wall_s=round(time.perf_counter() - start, 4),
            workers=self.workers, evaluator=self.evaluator,
            eval_images=self.eval_images,
            threshold_pct=self.threshold_pct, space=space.describe(),
            screen=(dataclasses.asdict(self.screen)
                    if self.screen is not None else None),
            screen_images=(self._stages["screen"][2]
                           if self.screen is not None else None),
        )
        return DSEResult(passing=passing, records=records,
                         frontier=pareto_front(passing), stats=stats)
