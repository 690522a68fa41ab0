"""Run the benchmark suites and record the perf trajectory.

Two suites, each versioned as a JSON file under ``benchmarks/`` so
regressions show up in review diffs (machine-to-machine variance means
only same-machine ratios are meaningful):

* ``--kernels`` — ``bench_kernels.py`` under pytest-benchmark →
  ``benchmarks/BENCH_kernels.json`` (median ns per kernel call, the
  interquartile range across rounds, and the machine fingerprint:
  CPU, ``cpu_count``, NumPy version, kernel tier);
* ``--dse`` — ``bench_dse.py`` → ``benchmarks/BENCH_dse.json``
  (the design-space exploration runner at 4 workers vs 1, plus
  exact-evaluator screening savings; records ``cpu_count`` so the
  parallel ratio reads in context).

With no flags both suites run.  The batched exact forward and serving
are measured by perfbench's workloads.  Usage::

    PYTHONPATH=src python benchmarks/run_all.py [--kernels] [--dse]
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
DSE_OUTPUT = BENCH_DIR / "BENCH_dse.json"

#: numpy-vs-native benchmark twins (see bench_kernels.py) folded into
#: the ``native`` speedup column of BENCH_kernels.json.
_NATIVE_PAIRS = {
    "stanh_fsm": ("test_kernel_stanh_numpy", "test_kernel_stanh_native"),
    **{f"apc_conv_stage_{layer}_{pool}": (
        f"test_kernel_conv_stage_numpy[{layer}-{pool}]",
        f"test_kernel_conv_stage_native[{layer}-{pool}]")
       for layer in ("layer0", "layer1") for pool in ("max", "avg")},
    "apc_fc_stage": ("test_kernel_fc_stage_numpy",
                     "test_kernel_fc_stage_native"),
}


def _native_column(medians: dict, iqrs: dict) -> dict:
    """The numpy-vs-native speedup column (empty when native is absent —
    the ``*_native`` twins skip, so their medians never appear)."""
    column = {}
    for label, (np_name, nat_name) in _NATIVE_PAIRS.items():
        if medians.get(np_name) and medians.get(nat_name):
            column[label] = {
                "numpy_ns": medians[np_name],
                "numpy_iqr_ns": iqrs[np_name],
                "native_ns": medians[nat_name],
                "native_iqr_ns": iqrs[nat_name],
                "speedup": round(medians[np_name] / medians[nat_name], 2),
            }
    return column


def _fingerprint(cpu: str) -> dict:
    """What a speedup is read against: CPU, core count, NumPy version
    and the kernel tier the unsuffixed benchmarks dispatched to."""
    import numpy
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    try:
        import repro.native as native
    finally:
        sys.path.pop(0)
    return {"cpu": cpu, "cpu_count": os.cpu_count(),
            "numpy": numpy.__version__,
            "kernel_tier": "native" if native.enabled() else "numpy"}


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
    stats = {bench["name"]: bench["stats"] for bench in data["benchmarks"]}
    medians = {name: round(st["median"] * 1e9) for name, st in stats.items()}
    iqrs = {name: round(st["iqr"] * 1e9) for name, st in stats.items()}
    native = _native_column(medians, iqrs)
    payload = {
        "unit": "median ns per call; iqr_ns is the interquartile range "
                "across rounds",
        "machine": _fingerprint(data.get("machine_info", {}).get(
            "cpu", {}).get("brand_raw", "unknown")),
        "native_tier": bool(native),
        "kernels": dict(sorted(medians.items())),
        "iqr_ns": dict(sorted(iqrs.items())),
        "native": native,
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    for name, ns in sorted(medians.items()):
        print(f"  {name:40s} {ns / 1e3:12.1f} us  (iqr "
              f"{iqrs[name] / 1e3:.1f})")
    for label, row in native.items():
        print(f"  native {label:30s} {row['speedup']:6.2f}x")
    return medians


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
        "note": "DSE ParallelRunner at workers=4 vs workers=1 over "
                "the LeNet-5 combo space (identical workload, asserted "
                "bit-identical), plus exact-evaluator screening "
                "savings; the >= 2.5x acceptance gate applies on "
                "machines with >= 4 cores (the evaluations are "
                "CPU-bound NumPy — read speedup_workers4_vs_workers1 "
                "against cpu_count)",
        **results,
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    print(f"  parallel DSE at 4 workers vs 1 "
          f"({results['cpu_count']} core(s)): "
          f"{results['speedup_workers4_vs_workers1']}x; screening "
          f"saved {results['screening']['wall_savings_pct']}% wall")
    return payload


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kernels", action="store_true",
                        help="run only the kernel microbenchmarks")
    parser.add_argument("--dse", action="store_true",
                        help="run only the DSE throughput benchmark")
    parser.add_argument("--dse-quick", action="store_true",
                        help="CI-smoke sizing for the DSE benchmark")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="where to write the kernel medians JSON")
    parser.add_argument("--dse-output", type=Path, default=DSE_OUTPUT,
                        help="where to write the DSE benchmark JSON")
    args = parser.parse_args(argv)
    dse = args.dse or args.dse_quick
    run_all = not (args.kernels or dse)
    if args.kernels or run_all:
        run_kernel_benchmarks(args.output)
    if dse or run_all:
        run_dse_benchmarks(args.dse_output, quick=args.dse_quick)


if __name__ == "__main__":
    main()
