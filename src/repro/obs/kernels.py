"""Kernel-tier profiling hooks: wall time per kernel per dispatch tier.

The word engine dispatches each kernel (popcount, transpose_pack,
popcount_sum, mux_select, stanh, apc_counts, apc_conv_max_btanh_pack,
apc_fc_btanh_pack) to one of two tiers:

* ``native`` — the compiled C library (``repro.native``),
* ``numpy``  — vectorized NumPy (popcounts through ``bitwise_count``).

Profiling attributes wall time and call counts to ``(kernel, tier)``
pairs in the current metrics registry, so ``/metrics`` and
``python -m repro list`` can show where inference time actually goes —
the data you need before trusting a tier-dispatch heuristic change.

Armed by ``REPRO_PROFILE=1`` (or :func:`arm`); **disarmed by default**
because these hooks sit on hot per-call paths: a disarmed
:func:`tick` is one global load + branch returning ``None``, and
:func:`tock` returns immediately on a ``None`` start.  Like the rest of
``repro.obs``, profiling only reads clocks — arming it cannot change a
single output bit.
"""

from __future__ import annotations

import os
import time

from .registry import get_registry

__all__ = [
    "arm",
    "armed",
    "tick",
    "tock",
    "summary",
    "maybe_enable_from_env",
]

_ARMED = False

_SECONDS_HELP = "Wall time spent inside each kernel, by dispatch tier."
_CALLS_HELP = "Kernel invocations, by dispatch tier."


def arm(on: bool = True) -> None:
    """Turn kernel profiling on/off process-wide."""
    global _ARMED
    _ARMED = bool(on)


def armed() -> bool:
    return _ARMED


def maybe_enable_from_env(var: str = "REPRO_PROFILE") -> bool:
    """Arm profiling when ``$REPRO_PROFILE`` is truthy. Returns armed()."""
    value = os.environ.get(var, "").strip().lower()
    if value not in ("", "0", "false", "no", "off"):
        arm(True)
    return _ARMED


def tick():
    """Start a kernel timing; ``None`` when profiling is disarmed.

    Call sites pair it with :func:`tock`::

        t0 = kernels.tick()
        result = ...  # the kernel
        kernels.tock(t0, "popcount", tier)
    """
    if not _ARMED:
        return None
    return time.perf_counter()


def tock(t0, kernel: str, tier: str) -> None:
    """Close a timing opened by :func:`tick` (no-op on ``None``)."""
    if t0 is None:
        return
    elapsed = time.perf_counter() - t0
    reg = get_registry()
    reg.counter("repro_kernel_seconds_total", _SECONDS_HELP,
                labelnames=("kernel", "tier")).labels(
                    kernel=kernel, tier=tier).inc(elapsed)
    reg.counter("repro_kernel_calls_total", _CALLS_HELP,
                labelnames=("kernel", "tier")).labels(
                    kernel=kernel, tier=tier).inc()


def summary() -> list:
    """Per-(kernel, tier) totals from the current registry, sorted by
    descending wall time: ``[{kernel, tier, seconds, calls}, ...]``."""
    reg = get_registry()
    seconds = reg.counter("repro_kernel_seconds_total", _SECONDS_HELP,
                          labelnames=("kernel", "tier")).samples()
    calls = reg.counter("repro_kernel_calls_total", _CALLS_HELP,
                        labelnames=("kernel", "tier")).samples()
    rows = []
    for (kernel, tier), secs in seconds.items():
        rows.append({
            "kernel": kernel,
            "tier": tier,
            "seconds": secs,
            "calls": int(calls.get((kernel, tier), 0)),
        })
    rows.sort(key=lambda r: -r["seconds"])
    return rows
