"""DSE throughput benchmark: parallel runner + screening.

Two scenarios, each honest about what it measures:

* **parallel** — ``ParallelRunner`` at ``workers=1`` vs ``workers=4``
  over the LeNet-5 kind-combo space (noise evaluator, the paper's
  methodology).  The accuracy budget is disabled so both modes perform
  the *identical* evaluation workload (4 combos × every halving round),
  and both are asserted bit-identical.  A warm-up lap runs first so the
  disk-cached calibration artifacts (measured sigmas) are equally warm
  on both sides — the timed comparison isolates evaluation throughput.

  Acceptance: ≥ 2.5x at 4 workers over 1 worker — asserted only on
  machines with at least 4 CPU cores and only in full mode.  The
  evaluations are CPU-bound NumPy, and each pool worker caps its BLAS
  threads at its share of the cores; on a 2-core box the ratio is
  ~1.6x, and the JSON records ``cpu_count`` alongside it so the number
  can be read in context.

* **screening** — unscreened vs screened search with the **exact**
  bit-level evaluator (where a full evaluation costs seconds and the
  deterministic surrogate screen costs milliseconds).  Reports
  full-evaluation counts, wall clocks, the screened-out tally and the
  never-drop check (both passing sets must be identical — screening may
  only skip points the full evaluation would have failed).

Run directly (``PYTHONPATH=src python benchmarks/bench_dse.py
[--quick]``) or via ``benchmarks/run_all.py --dse``, which records the
result in ``benchmarks/BENCH_dse.json``.  ``--quick`` shrinks both
scenarios to a CI-smoke size (and skips the acceptance gate).
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

from repro.data.cache import TrainedModel
from repro.data.synthetic_mnist import generate_dataset, to_bipolar
from repro.dse import ParallelRunner, ScreenPolicy, SearchSpace
from repro.nn.lenet import build_lenet5
from repro.nn.trainer import Trainer, evaluate_error_rate

WORKERS = 4
ACCEPT_SPEEDUP = 2.5
MIN_CORES_FOR_ACCEPTANCE = 4


def _trained_model() -> TrainedModel:
    """The deterministic quick-trained LeNet-5 every scenario searches."""
    x_train, y_train, x_test, y_test = generate_dataset(
        n_train=600, n_test=400, seed=123)
    model = build_lenet5("max", seed=0)
    Trainer(model, lr=0.06, batch_size=64, seed=0).fit(
        to_bipolar(x_train), y_train, epochs=2)
    err = evaluate_error_rate(model, to_bipolar(x_test), y_test)
    return TrainedModel(model=model, pooling="max", x_test=x_test,
                        y_test=y_test, software_error_pct=err)


def _space(trained, max_length, min_length):
    return SearchSpace.from_trained(trained, max_length=max_length,
                                    min_length=min_length)


def _points_fingerprint(points):
    return [(p.config.name, p.error_pct, p.cost.energy_uj)
            for p in points]


def _measure_parallel(trained, quick: bool) -> dict:
    max_length, min_length = (128, 64) if quick else (1024, 64)
    eval_images = 60 if quick else 400
    threshold = 1e9  # budget off: identical workload on every side

    def runner(workers):
        t0 = time.perf_counter()
        points = ParallelRunner(
            trained, _space(trained, max_length, min_length),
            threshold_pct=threshold, eval_images=eval_images, seed=0,
            workers=workers).run().passing
        return points, time.perf_counter() - t0

    # Warm-up: one untimed lap populates the calibration disk cache
    # (measured sigmas per (kind, n, L)) for both sides.
    runner(1)
    serial, t_serial = runner(1)
    parallel, t_parallel = runner(WORKERS)

    if _points_fingerprint(serial) != _points_fingerprint(parallel):
        raise AssertionError(
            f"DSE modes diverged: workers=1 and workers={WORKERS} must "
            "be bit-identical")
    return {
        "max_length": max_length, "min_length": min_length,
        "eval_images": eval_images, "evaluator": "noise",
        "points_evaluated": len(serial),
        "runner_workers1_s": round(t_serial, 4),
        f"runner_workers{WORKERS}_s": round(t_parallel, 4),
        "speedup_vs_workers1": round(t_serial / t_parallel, 2),
        "bit_identical": True,
    }


def _measure_screening(trained, quick: bool) -> dict:
    max_length, min_length = (64, 64) if quick else (256, 64)
    eval_images = 16 if quick else 48
    if quick:
        # CI smoke: an unreachable budget with no margin screens out
        # every candidate — a platform-independent exercise of the
        # screen → skip-full-eval → prune path.
        margin, threshold = 0.0, -1000.0
    else:
        # A budget midway through the screen-degradation spread at the
        # top length, so the screen genuinely separates candidates
        # (derived from the data rather than pinned — the quick-trained
        # model's absolute errors vary across platforms).
        margin = 10.0
        # threshold -1e9 + margin 0: every candidate is screened out, so
        # the probe records each combo's screen degradation without ever
        # paying a (expensive, discarded) full exact evaluation.
        probe = ParallelRunner(
            trained, _space(trained, max_length, max_length),
            threshold_pct=-1e9, eval_images=eval_images, seed=0,
            screen=ScreenPolicy(margin_pct=0.0)).run()
        screen_degs = sorted(r.degradation_pct for r in probe.records
                             if r.stage == "screen")
        threshold = (screen_degs[0] + screen_degs[-1]) / 2.0 - margin / 2.0

    def search(screen):
        t0 = time.perf_counter()
        result = ParallelRunner(
            trained, _space(trained, max_length, min_length),
            threshold_pct=threshold, eval_images=eval_images, seed=0,
            evaluator="exact", workers=1, screen=screen).run()
        return result, time.perf_counter() - t0

    plain, t_plain = search(None)
    screened, t_screened = search(ScreenPolicy(margin_pct=margin))
    if _points_fingerprint(screened.passing) != \
            _points_fingerprint(plain.passing):
        raise AssertionError(
            "screening dropped (or invented) a passing point — the "
            "screened and unscreened passing sets must be identical")
    return {
        "max_length": max_length, "min_length": min_length,
        "eval_images": eval_images, "evaluator": "exact",
        "screen_margin_pct": margin,
        "threshold_pct": round(threshold, 4),
        "full_evals_unscreened": plain.stats["full_evals"],
        "full_evals_screened": screened.stats["full_evals"],
        "screen_evals": screened.stats["screen_evals"],
        "screened_out": screened.stats["screened_out"],
        "unscreened_s": round(t_plain, 4),
        "screened_s": round(t_screened, 4),
        "wall_savings_pct": round(100.0 * (1.0 - t_screened
                                           / max(t_plain, 1e-9)), 1),
        "never_dropped_passing_point": True,
    }


def measure_dse(quick: bool = False) -> dict:
    trained = _trained_model()
    results = {
        "cpu_count": os.cpu_count(),
        "workers": WORKERS,
        "quick_mode": quick,
        "parallel": _measure_parallel(trained, quick),
        "screening": _measure_screening(trained, quick),
    }
    speedup = results["parallel"]["speedup_vs_workers1"]
    results["speedup_workers4_vs_workers1"] = speedup
    cores = os.cpu_count() or 1
    results["acceptance_gate_active"] = (not quick
                                         and cores
                                         >= MIN_CORES_FOR_ACCEPTANCE)
    if results["acceptance_gate_active"] and speedup < ACCEPT_SPEEDUP:
        raise AssertionError(
            f"parallel DSE is only {speedup}x workers=1 "
            f"at {WORKERS} workers on a {cores}-core machine; "
            f"acceptance requires >= {ACCEPT_SPEEDUP}x")
    return results


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI-smoke sizing (skips the acceptance gate)")
    parser.add_argument("--output", type=Path, default=None,
                        help="also write the results JSON here")
    args = parser.parse_args(argv)
    results = measure_dse(quick=args.quick)
    par, scr = results["parallel"], results["screening"]
    print(f"parallel: workers=1 {par['runner_workers1_s']}s, "
          f"workers={WORKERS} {par[f'runner_workers{WORKERS}_s']}s "
          f"({par['speedup_vs_workers1']}x on "
          f"{results['cpu_count']} core(s))")
    print(f"screening: {scr['full_evals_unscreened']} -> "
          f"{scr['full_evals_screened']} exact evaluations "
          f"({scr['screened_out']} screened out), wall "
          f"{scr['unscreened_s']}s -> {scr['screened_s']}s "
          f"({scr['wall_savings_pct']}% saved)")
    if args.output is not None:
        args.output.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
