"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest perfbench/selftest.py -q

Kept out of the tier-1 collection (the file name does not match
``test_*.py``): the smoke runs spawn real servers and take a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from common import BENCH_DIR, ROOT, reply_digest, tail  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, cwd=ROOT, seconds="2"):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=400)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1][:1] == "{" else None
    context = (json.loads(lines[-2].split(" ", 1)[1])
               if len(lines) > 1 else None)
    return proc.returncode, result, context


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tail(range(1, 101)) == (90, 90.0, 10)
    assert tail(range(1, 21)) == (10, 50.0, 10)
    # too short for ten beyond: fall back to as many as there are
    assert tail([3.0, 1.0, 2.0]) == (1.0, 100.0 * 1 / 3, 2)


def test_reply_digest_ignores_only_the_timing():
    reply = {"backend": "exact", "latency_ms": 12.5, "kind": "grid",
             "cell_predictions": [3, 1, 4]}
    assert reply_digest(reply) == reply_digest({**reply, "latency_ms": 99})
    assert reply_digest(reply) != reply_digest(
        {**reply, "cell_predictions": [3, 1, 5]})


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_metric_with_its_unit(workload, trace):
    code, result, context = run(workload, trace)
    assert code == 0, result
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for metric in named:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    for key in ("steal_s", "speed_probe_start", "speed_probe_end",
                "cpu_count", "numpy", "tier"):
        assert key in context
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        table = context["table"]
        rows = sum(table[row] for row in table["trace.rows"])
        assert rows == pytest.approx(table["trace.wall.ms"], rel=1e-6)
        assert table["trace.unattributed.ms"] >= 0
        if workload == "fwd-apc-max":
            assert metrics["blocks.pooling.apc_max_pool.calls"] > 0
            assert metrics["sc.ops.mux_select.calls"] == 0
        if workload == "fwd-mux-avg":
            assert metrics["blocks.pooling.apc_max_pool.calls"] == 0
            assert metrics["sc.ops.mux_select.calls"] > 0
    else:
        assert context["tail"]["beyond"] >= 1


def _checkout(tmp_path, with_program=True):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    if with_program:
        shutil.copytree(ROOT / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    return tmp_path


def test_corrupted_output_fails_the_run(tmp_path):
    checkout = _checkout(tmp_path)
    digests = json.loads((checkout / "perfbench/digests.json").read_text())
    # every batch but the warm-up one now expects other logits
    digests["fwd-apc-max"][1:] = ["0" * 64] * (len(digests["fwd-apc-max"])
                                               - 1)
    (checkout / "perfbench/digests.json").write_text(json.dumps(digests))
    code, result, _ = run("fwd-apc-max", 0, cwd=checkout)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    code, result, _ = run("fwd-apc-max", 0, cwd=_checkout(
        tmp_path, with_program=False))
    assert code != 0 and result is None
