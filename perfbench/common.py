"""Shared pieces of the benchmark: specs, seeded inputs, the correctness
gate, statistics and host context.

Inputs are drawn from fixed pools (a fixed pool seed, independent of the
run's ``--seed``) so that every reply can be checked against a committed
SHA-256 digest; the run seed chooses the order, the arrival times and
the per-request scene seeds.  Nothing here imports ``repro``: the
orchestrator (``run.py``) stays out of the program under test.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: build outputs and scratch files of a run (ignored by git)
STATE_DIR = ROOT / ".perfbench"
DIGESTS = BENCH_DIR / "digests.json"

MODEL = "lenet5"
LENGTH = 64
BATCH = 16
SPECS = {
    "apc-max": {"kinds": ("APC", "APC", "APC"), "pooling": "max"},
    "mux-avg": {"kinds": ("MUX", "MUX", "APC"), "pooling": "avg"},
}

POOL_SEED = 20170408
IMAGE_POOL = 128           # 8 batches of 16
SCENE_POOL = 16
SCENE_GRID = (3, 3)        # 84x84 canvas, 9 non-overlapping 28x28 windows
WINDOWS = SCENE_GRID[0] * SCENE_GRID[1]
PROCS = 2
#: scene request seeds tried in order until two route to different
#: workers (0 and 2 split across two workers at the time of writing)
SCENE_SEEDS = (0, 2, 1, 3)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def image_pool() -> np.ndarray:
    """``(IMAGE_POOL, 784)`` bipolar images quantized to 8-bit pixels."""
    rng = np.random.default_rng([POOL_SEED, 1])
    return rng.integers(0, 256, (IMAGE_POOL, 784)) / 127.5 - 1.0


def fwd_batches() -> list:
    """The forward workloads' input batches (consecutive pool slices)."""
    images = image_pool()
    return [images[i:i + BATCH] for i in range(0, IMAGE_POOL, BATCH)]


def scene_pool() -> list:
    """3x3 grid scene payloads (``Scene.to_payload`` form)."""
    rng = np.random.default_rng([POOL_SEED, 2])
    rows, cols = SCENE_GRID
    scenes = []
    for _ in range(SCENE_POOL):
        canvas = rng.integers(0, 256, (28 * rows, 28 * cols)) / 255.0
        labels = rng.integers(0, 10, rows * cols)
        cells = [{"label": int(labels[r * cols + c]),
                  "box": [28 * r, 28 * c, 28, 28]}
                 for r in range(rows) for c in range(cols)]
        scenes.append({"kind": "grid", "canvas": canvas.tolist(),
                       "cells": cells})
    return scenes


def poisson_schedule(seed: int, rate: float, seconds: float) -> list:
    """Arrival offsets (s) of a Poisson process conditioned on its count.

    Exactly ``round(rate * seconds)`` arrivals, uniformly placed: the
    offered load is the same on every seed, so the run-to-run spread of
    throughput comes from the system, not from the arrival count.
    """
    rng = np.random.default_rng([seed, 3])
    count = max(1, int(round(rate * seconds)))
    return sorted(float(t) for t in rng.uniform(0.0, seconds, count))


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def logits_digest(logits) -> str:
    data = np.ascontiguousarray(np.asarray(logits, dtype="<f8"))
    return hashlib.sha256(data.tobytes()).hexdigest()


def reply_digest(reply: dict) -> str:
    """Digest of an HTTP reply without its timing field."""
    body = {k: v for k, v in reply.items() if k != "latency_ms"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf8")).hexdigest()


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

TAIL_BEYOND = 10


def tail(values) -> tuple:
    """``(value, percentile, beyond)``: the highest percentile that still
    has ``TAIL_BEYOND`` samples strictly above it.

    With ``n`` samples that is the ``(n - 10)``-th smallest, i.e. the
    ``100 * (n - 10) / n`` percentile; runs too short for ten samples
    beyond fall back to fewer (``beyond`` says how many).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    beyond = min(TAIL_BEYOND, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def median(values) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# host context and per-process accounting (Linux /proc)
# ---------------------------------------------------------------------------

_TICK = os.sysconf("SC_CLK_TCK")


def steal_seconds() -> float:
    """Host steal time since boot, summed over CPUs."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / _TICK


def speed_probe() -> dict:
    """Medians of three timings of fixed work that does not use ``repro``:
    an interpreter loop (``cpu_ms``) and 64 MiB array copies
    (``memory_ms``), so a drifting host shows in the run context."""
    cpu, memory = [], []
    block = np.ones(8 << 20)
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        cpu.append(1e3 * (time.perf_counter() - start))
        start = time.perf_counter()
        for _ in range(4):
            block = block.copy()
        memory.append(1e3 * (time.perf_counter() - start))
    return {"cpu_ms": median(cpu), "memory_ms": median(memory)}


def cpu_seconds(pid: int) -> float:
    """User + system CPU of a live process (all its threads)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
