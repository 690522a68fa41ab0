"""Run the benchmark suites and record the perf trajectory.

Four suites, each versioned as a JSON file under ``benchmarks/`` so
regressions show up in review diffs (machine-to-machine variance means
only same-machine ratios are meaningful):

* ``--kernels`` — ``bench_kernels.py`` under pytest-benchmark →
  ``benchmarks/BENCH_kernels.json`` (median ns per kernel call);
* ``--serve`` — ``bench_serve.py`` →
  ``benchmarks/BENCH_serve.json`` (closed-loop multi-client serving
  throughput: micro-batched service vs per-request sequential baseline,
  with a pooled-unbatched ablation and bit-identity checks);
* ``--dse`` — ``bench_dse.py`` → ``benchmarks/BENCH_dse.json``
  (parallel design-space exploration vs the legacy sequential loop,
  plus exact-evaluator screening savings; records ``cpu_count`` so the
  parallel ratio reads in context);
* ``--scenes`` — ``bench_scenes.py`` →
  ``benchmarks/BENCH_scenes.json`` (composite-scene serving: one
  scene request fanned into a coalesced window batch vs naive
  per-window requests, with bit-identity and one-compile-per-run
  asserted).

With no flags all suites run.  The batched exact forward is measured by
perfbench's ``fwd-*`` workloads.  Usage::

    PYTHONPATH=src python benchmarks/run_all.py [--kernels] [--serve]
                                                [--dse] [--scenes]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_OUTPUT = BENCH_DIR / "BENCH_kernels.json"
SERVE_OUTPUT = BENCH_DIR / "BENCH_serve.json"
DSE_OUTPUT = BENCH_DIR / "BENCH_dse.json"
SCENES_OUTPUT = BENCH_DIR / "BENCH_scenes.json"

#: numpy-vs-native benchmark twins (see bench_kernels.py) folded into
#: the ``native`` speedup column of BENCH_kernels.json.
_NATIVE_PAIRS = {
    "fused_transpose_popcount_sum": ("test_kernel_fused_count_numpy",
                                     "test_kernel_fused_count_native"),
    "apc_column_counts": ("test_kernel_apc_counts_numpy",
                          "test_kernel_apc_counts_native"),
    "apc_inner_product": ("test_kernel_apc_inner_numpy",
                          "test_kernel_apc_inner_native"),
    "stanh_fsm": ("test_kernel_stanh_numpy", "test_kernel_stanh_native"),
    "saturating_counter": ("test_kernel_btanh_numpy",
                           "test_kernel_btanh_native"),
}


def _native_column(medians: dict) -> dict:
    """The numpy-vs-native speedup column (empty when native is absent —
    the ``*_native`` twins skip, so their medians never appear)."""
    column = {}
    for label, (np_name, nat_name) in _NATIVE_PAIRS.items():
        if medians.get(np_name) and medians.get(nat_name):
            column[label] = {
                "numpy_ns": medians[np_name],
                "native_ns": medians[nat_name],
                "speedup": round(medians[np_name] / medians[nat_name], 2),
            }
    return column


def run_kernel_benchmarks(output: Path = DEFAULT_OUTPUT) -> dict:
    """Run bench_kernels.py; write and return {kernel: median_ns}."""
    repo_root = BENCH_DIR.parent
    env = dict(os.environ)
    src = str(repo_root / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    with tempfile.TemporaryDirectory() as tmp:
        raw = Path(tmp) / "bench.json"
        proc = subprocess.run(
            [sys.executable, "-m", "pytest",
             str(BENCH_DIR / "bench_kernels.py"), "-q",
             "--benchmark-json", str(raw)],
            env=env, cwd=str(repo_root),
        )
        if proc.returncode:
            raise SystemExit(proc.returncode)
        data = json.loads(raw.read_text())
    medians = {
        bench["name"]: round(bench["stats"]["median"] * 1e9)
        for bench in data["benchmarks"]
    }
    native = _native_column(medians)
    payload = {
        "unit": "median ns per call",
        "machine": data.get("machine_info", {}).get("cpu", {}).get(
            "brand_raw", "unknown"),
        "native_tier": bool(native),
        "kernels": dict(sorted(medians.items())),
        "native": native,
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    for name, ns in sorted(medians.items()):
        print(f"  {name:32s} {ns / 1e3:12.1f} us")
    for label, row in native.items():
        print(f"  native {label:30s} {row['speedup']:6.2f}x")
    return medians


def run_serve_benchmarks(output: Path = SERVE_OUTPUT) -> dict:
    """Run bench_serve.py in-process; write and return the payload."""
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    try:
        from bench_serve import measure_serve
        results = measure_serve()
    finally:
        sys.path.pop(0)
        sys.path.pop(0)
    payload = {
        "unit": "closed-loop requests per second per mode",
        "note": "multi-threaded closed-loop clients against the "
                "micro-batching InferenceService; per_request_sequential "
                "is the pre-serve status quo (fresh Engine per request, "
                "batch size 1), pooled_sequential isolates the engine "
                "pool (max_batch=1), micro_batched is the full service; "
                "bit_identical asserts every exact response equals a "
                "dedicated single-request Engine.predict with the same "
                "per-request seed",
        **results,
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    print(f"  micro-batched vs per-request sequential (exact, L=64, "
          f"8 clients): {results['speedup_exact_L64_8_clients']}x")
    return payload


def run_dse_benchmarks(output: Path = DSE_OUTPUT,
                       quick: bool = False) -> dict:
    """Run bench_dse.py in-process; write and return the payload."""
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    try:
        from bench_dse import measure_dse
        results = measure_dse(quick=quick)
    finally:
        sys.path.pop(0)
        sys.path.pop(0)
    payload = {
        "unit": "seconds per search / evaluation counts",
        "note": "parallel DSE runner vs the legacy sequential "
                "HolisticOptimizer loop over the LeNet-5 combo space "
                "(identical workload, asserted bit-identical), plus "
                "exact-evaluator screening savings; the >= 2.5x "
                "acceptance gate applies on machines with >= 4 cores "
                "(the evaluations are CPU-bound NumPy — read "
                "speedup_workers4_vs_sequential against cpu_count)",
        **results,
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    print(f"  parallel DSE vs sequential at 4 workers "
          f"({results['cpu_count']} core(s)): "
          f"{results['speedup_workers4_vs_sequential']}x; screening "
          f"saved {results['screening']['wall_savings_pct']}% wall")
    return payload


def run_scenes_benchmarks(output: Path = SCENES_OUTPUT,
                          quick: bool = False) -> dict:
    """Run bench_scenes.py in-process; write and return the payload."""
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    try:
        from bench_scenes import measure_scenes
        results = measure_scenes(quick=quick)
    finally:
        sys.path.pop(0)
        sys.path.pop(0)
    payload = {
        "unit": "scenes per second per mode",
        "note": "composite grid scenes through the serving tier: "
                "per_window_requests is the naive client (extract the "
                "windows yourself, one blocking predict per window), "
                "scene_requests sends the whole canvas in one request "
                "which the service fans into a coalesced window batch; "
                "bit_identical asserts every scene reply equals a "
                "dedicated single-engine TiledInference run and that "
                "the whole run compiled exactly one plan",
        **results,
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    print(f"  scene requests vs naive per-window "
          f"({results['scenes']} scenes, exact L={results['length']}): "
          f"{results['speedup_scene_vs_per_window']}x")
    return payload


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kernels", action="store_true",
                        help="run only the kernel microbenchmarks")
    parser.add_argument("--serve", action="store_true",
                        help="run only the serving throughput benchmark")
    parser.add_argument("--dse", action="store_true",
                        help="run only the DSE throughput benchmark")
    parser.add_argument("--dse-quick", action="store_true",
                        help="CI-smoke sizing for the DSE benchmark")
    parser.add_argument("--scenes", action="store_true",
                        help="run only the composite-scene serving "
                             "benchmark")
    parser.add_argument("--scenes-quick", action="store_true",
                        help="CI-smoke sizing for the scenes benchmark")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="where to write the kernel medians JSON")
    parser.add_argument("--serve-output", type=Path, default=SERVE_OUTPUT,
                        help="where to write the serving benchmark JSON")
    parser.add_argument("--dse-output", type=Path, default=DSE_OUTPUT,
                        help="where to write the DSE benchmark JSON")
    parser.add_argument("--scenes-output", type=Path,
                        default=SCENES_OUTPUT,
                        help="where to write the scenes benchmark JSON")
    args = parser.parse_args(argv)
    dse = args.dse or args.dse_quick
    scenes = args.scenes or args.scenes_quick
    run_all = not (args.kernels or args.serve or dse or scenes)
    if args.kernels or run_all:
        run_kernel_benchmarks(args.output)
    if args.serve or run_all:
        run_serve_benchmarks(args.serve_output)
    if dse or run_all:
        run_dse_benchmarks(args.dse_output, quick=args.dse_quick)
    if scenes or run_all:
        run_scenes_benchmarks(args.scenes_output,
                              quick=args.scenes_quick)


if __name__ == "__main__":
    main()
