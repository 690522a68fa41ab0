"""Native fused-kernel tier: capability layer and ctypes bindings.

This package arms an optional compiled tier below the NumPy word engine
(DESIGN.md, "Native kernel tier").  The five loops it owns — the fused
transpose+popcount column counter, the exact-backend inner product, the
Stanh byte-LUT walk, the saturating-counter FSM scan and the fused APC
conv stage (count → max pool → Btanh → pack per pool window) — are
bit-identical re-implementations of their NumPy counterparts; the pure NumPy paths
remain the conformance oracle and the fallback.

Capability protocol
-------------------
``available()``
    True when the shared library is built and loaded.
``enabled()``
    True when calls should dispatch natively right now: available, not
    disabled by ``REPRO_NATIVE=0``, and not overridden by
    :func:`override` (the hook the test suite and benchmarks use to
    pin a pure-NumPy path).
``status()``
    A dict for humans: availability, the fallback reason when absent,
    and whether a ``REPRO_NATIVE`` override is in effect (surfaced by
    ``python -m repro list``).

``REPRO_NATIVE`` environment override (read at import):

* ``0`` — never build or load; the tier reports "disabled by override".
* ``1`` — require the tier: a build/load failure raises at import
  instead of falling back (catches silently-slow CI misconfiguration).
* unset — best effort: build/load if a toolchain exists, else record
  the reason and fall back to NumPy.

All wrappers take the same logical arguments as the NumPy kernels they
shadow and return freshly-allocated arrays; the dispatchers in
``repro.sc`` and ``repro.engine.exact`` call them only when
``enabled()`` is true.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
from ctypes import POINTER, c_int, c_int64, c_uint8

import numpy as np

from repro.utils.validation import check_positive_int

__all__ = [
    "available",
    "enabled",
    "status",
    "override",
    "transpose_pack",
    "popcount_rows",
    "column_counts",
    "apc_inner_counts",
    "stanh_lut",
    "saturating_counter",
    "apc_conv_max_btanh_pack",
]

_ENV = "REPRO_NATIVE"

_lib = None
_lib_path = None
_reason = None
_override = None
_env_setting = os.environ.get(_ENV)

_u8p = POINTER(c_uint8)
_i16p = POINTER(ctypes.c_int16)
_i32p = POINTER(ctypes.c_int32)
_i64p = POINTER(c_int64)


def _configure(lib) -> None:
    lib.repro_transpose_pack.argtypes = [
        _u8p, c_int64, c_int64, c_int64, c_int64, c_int64, _u8p]
    lib.repro_transpose_pack.restype = c_int
    lib.repro_popcount_rows.argtypes = [_u8p, c_int64, c_int64, _i64p]
    lib.repro_popcount_rows.restype = c_int
    lib.repro_column_counts.argtypes = [
        _u8p, c_int64, c_int64, c_int64, c_int64, c_int, _i16p]
    lib.repro_column_counts.restype = c_int
    lib.repro_apc_inner_counts.argtypes = [
        _u8p, _u8p, c_int64, c_int64, c_int64, c_int64, c_int64, c_int64,
        c_int, _i16p]
    lib.repro_apc_inner_counts.restype = c_int
    lib.repro_stanh_lut.argtypes = [
        _u8p, c_int64, c_int64, _u8p, _u8p, c_int64, c_uint8, _u8p]
    lib.repro_stanh_lut.restype = c_int
    lib.repro_saturating_counter_i64.argtypes = [
        _i64p, c_int64, c_int64, c_int64, c_int64, c_int64, _u8p]
    lib.repro_saturating_counter_i64.restype = c_int
    lib.repro_saturating_counter_i32.argtypes = [
        _i32p, c_int64, c_int64, c_int64, c_int64, c_int64, _u8p]
    lib.repro_saturating_counter_i32.restype = c_int
    lib.repro_apc_conv_max_btanh_pack.argtypes = [
        _u8p, c_int64, c_int64, c_int64, _i64p, c_int64, _u8p, c_int64,
        c_int64, c_int64, _i64p, c_int64, c_int64, c_int64, _u8p]
    lib.repro_apc_conv_max_btanh_pack.restype = c_int


def _try_load() -> None:
    global _lib, _lib_path, _reason
    if _env_setting == "0":
        _reason = "disabled by REPRO_NATIVE=0"
        return
    try:
        from repro.native.build import load_library
        lib, path = load_library()
        _configure(lib)
        _lib, _lib_path = lib, path
    except Exception as exc:
        _reason = str(exc)
        _lib = None
        if _env_setting == "1":
            raise RuntimeError(
                f"REPRO_NATIVE=1 requires the native kernel tier, but it "
                f"is unavailable: {exc}") from exc


_try_load()


def available() -> bool:
    """True when the native library is loaded."""
    return _lib is not None


def enabled() -> bool:
    """True when kernel calls should dispatch to the native tier now."""
    if _override is not None:
        return _override
    return _lib is not None


def status() -> dict:
    """Human-facing capability report (``python -m repro list``)."""
    return {
        "available": _lib is not None,
        "enabled": enabled(),
        "reason": _reason,
        "override": _env_setting,
        "lib": str(_lib_path) if _lib_path else None,
    }


@contextlib.contextmanager
def override(enabled_: bool | None):
    """Force the dispatch decision within a block (tests/benchmarks).

    ``override(False)`` pins the pure-NumPy oracle paths even when the
    native tier is loaded; ``override(True)`` requires it to be
    available; ``override(None)`` restores automatic dispatch.
    """
    global _override
    if enabled_ and _lib is None:
        raise RuntimeError("cannot force the native tier on: library "
                           f"unavailable ({_reason})")
    previous = _override
    _override = enabled_
    try:
        yield
    finally:
        _override = previous


def _ptr(arr: np.ndarray, ctype):
    return arr.ctypes.data_as(ctype)


def _check(rc: int) -> None:
    if rc != 0:
        raise MemoryError("native kernel scratch allocation failed")


# ----------------------------------------------------------------------
# kernel wrappers
# ----------------------------------------------------------------------

def transpose_pack(data: np.ndarray, length: int, align: int = 4) -> np.ndarray:
    """Native ``ops.transpose_pack``: ``(..., n, nbytes)`` → ``(..., L, W)``."""
    data = np.ascontiguousarray(data, dtype=np.uint8)
    batch = data.shape[:-2]
    n, nbytes = data.shape[-2], data.shape[-1]
    width = (n + 7) // 8
    width += (-width) % align
    R = int(np.prod(batch, dtype=np.int64)) if batch else 1
    out = np.empty(batch + (length, width), dtype=np.uint8)
    _check(_lib.repro_transpose_pack(
        _ptr(data, _u8p), R, n, nbytes, length, width, _ptr(out, _u8p)))
    return out


def popcount_rows(data: np.ndarray) -> np.ndarray:
    """Native per-row popcount over the last axis: ``(..., nbytes)`` → int64."""
    data = np.ascontiguousarray(data, dtype=np.uint8)
    nbytes = data.shape[-1] if data.ndim else 1
    shape = data.shape[:-1]
    rows = int(np.prod(shape, dtype=np.int64)) if shape else 1
    out = np.empty(shape, dtype=np.int64)
    if data.size:
        _check(_lib.repro_popcount_rows(
            _ptr(data, _u8p), rows, nbytes, _ptr(out, _i64p)))
    else:
        out[...] = 0
    return out


def column_counts(streams: np.ndarray, length: int,
                  approximate: bool) -> np.ndarray:
    """Fused transpose+popcount column counts: ``(..., n, nbytes)`` →
    ``(..., length)`` int16 (the ``parallel_counter``/``apc_count``
    kernel)."""
    streams = np.ascontiguousarray(streams, dtype=np.uint8)
    batch = streams.shape[:-2]
    n, nbytes = streams.shape[-2], streams.shape[-1]
    R = int(np.prod(batch, dtype=np.int64)) if batch else 1
    out = np.empty(batch + (length,), dtype=np.int16)
    _check(_lib.repro_column_counts(
        _ptr(streams, _u8p), R, n, nbytes, length,
        1 if approximate else 0, _ptr(out, _i16p)))
    return out


def apc_inner_counts(x: np.ndarray, wT: np.ndarray, n: int, length: int,
                     approximate: bool = True) -> np.ndarray:
    """Fused exact-backend inner product: packed bank ``(R, n, nbytes)``
    against a transposed weight bank ``(C, L, W)`` → ``(C, R, L)`` int16
    counts, transposition and XOR-popcount fused in cache tiles."""
    x = np.ascontiguousarray(x, dtype=np.uint8)
    wT = np.ascontiguousarray(wT, dtype=np.uint8)
    if x.ndim != 3 or wT.ndim != 3:
        raise ValueError("expected x (R, n, nbytes) and wT (C, L, W)")
    R, nbytes = x.shape[0], x.shape[2]
    C, L, W = wT.shape
    if x.shape[1] != n or L != length or W * 8 < n:
        raise ValueError(
            f"bank mismatch: x {x.shape} wT {wT.shape} n={n} L={length}")
    out = np.empty((C, R, L), dtype=np.int16)
    _check(_lib.repro_apc_inner_counts(
        _ptr(x, _u8p), _ptr(wT, _u8p), R, C, n, nbytes, L, W,
        1 if approximate else 0, _ptr(out, _i16p)))
    return out


def stanh_lut(data: np.ndarray, length: int, nxt: np.ndarray,
              outb: np.ndarray, init: int) -> np.ndarray:
    """Stanh byte-LUT walk over packed streams ``(..., nbytes)`` using
    the cached transition tables of ``activation._stanh_tables``."""
    data = np.ascontiguousarray(data, dtype=np.uint8)
    if data.size == 0 or data.shape[-1] == 0:
        return np.empty_like(data)
    nbytes = data.shape[-1]
    rows = int(np.prod(data.shape[:-1], dtype=np.int64)) \
        if data.shape[:-1] else 1
    nxt = np.ascontiguousarray(nxt, dtype=np.uint8)
    outb = np.ascontiguousarray(outb, dtype=np.uint8)
    rem = length % 8
    last_mask = (0xFF << (8 - rem)) & 0xFF if rem else 0xFF
    out = np.empty_like(data)
    _check(_lib.repro_stanh_lut(
        _ptr(data, _u8p), rows, nbytes, _ptr(nxt, _u8p), _ptr(outb, _u8p),
        int(init), last_mask, _ptr(out, _u8p)))
    return out


def saturating_counter(increments: np.ndarray, n_states: int, init: int,
                       threshold: int) -> np.ndarray:
    """Saturating-counter FSM scan: ``(..., T)`` integer increments →
    boolean output bits, clamped into ``[0, n_states - 1]``."""
    inc = np.asarray(increments)
    if inc.dtype == np.int32:
        inc = np.ascontiguousarray(inc)
        fn = _lib.repro_saturating_counter_i32
        ptr_t = _i32p
    else:
        inc = np.ascontiguousarray(inc, dtype=np.int64)
        fn = _lib.repro_saturating_counter_i64
        ptr_t = _i64p
    T = inc.shape[-1]
    rows = int(np.prod(inc.shape[:-1], dtype=np.int64)) \
        if inc.shape[:-1] else 1
    out = np.empty(inc.shape, dtype=np.uint8)
    if inc.size:
        _check(fn(_ptr(inc, ptr_t), rows, T, n_states - 1, int(init),
                  int(threshold), _ptr(out, _u8p)))
    return out.view(bool)


def _int_table(name: str, table, cols: int | None, bound: int) -> np.ndarray:
    """An integer ``(rows, cols)`` index table with entries in
    ``[0, bound)``, as contiguous int64 for C."""
    table = np.asarray(table)
    if (not np.issubdtype(table.dtype, np.integer) or table.ndim != 2
            or (cols is not None and table.shape[1] != cols)):
        shape = f"(rows, {cols})" if cols is not None else "(rows, n)"
        raise ValueError(f"expected integer {name} {shape}, got "
                         f"{table.dtype} {table.shape}")
    if table.size and (table.min() < 0 or table.max() >= bound):
        raise ValueError(f"{name} index outside [0, {bound})")
    return np.ascontiguousarray(table, dtype=np.int64)


def apc_conv_max_btanh_pack(x: np.ndarray, table: np.ndarray,
                            wT: np.ndarray, windows: np.ndarray,
                            segment: int, n_states: int) -> np.ndarray:
    """One APC conv stage with max pooling: packed input banks
    ``(B, S, nbytes)`` (bias row included), the conv patch table
    ``(P, n)`` indexing ``[0, S)``, the transposed weight bank
    ``(C, L, W)`` and 2×2 pool windows ``(Wn, 4)`` indexing ``[0, P)``
    → packed Btanh output streams ``(C, B, Wn, nbytes)``.

    Bit-identical to ``pack_bits(btanh_counts(apc_max_pool(
    counts[:, :, windows], segment), n, n_states))`` over the APC counts
    ``(C, B, P, L)`` of ``x[:, table]`` against the weights, without
    building the patch bank, the counts or any later intermediate.
    Every argument is checked here, before a pointer reaches C.
    """
    x = np.asarray(x)
    wT = np.asarray(wT)
    if x.dtype != np.uint8 or x.ndim != 3:
        raise ValueError(f"expected uint8 x (B, S, nbytes), got "
                         f"{x.dtype} {x.shape}")
    if wT.dtype != np.uint8 or wT.ndim != 3:
        raise ValueError(f"expected uint8 wT (C, L, W), got "
                         f"{wT.dtype} {wT.shape}")
    B, S, nbytes = x.shape
    C, L, W = wT.shape
    table = _int_table("table", table, None, S)
    P, n = table.shape
    windows = _int_table("windows", windows, 4, P)
    if n == 0 or W * 8 < n or nbytes != (L + 7) // 8:
        raise ValueError(f"bank mismatch: x {x.shape} wT {wT.shape} n={n}")
    segment = check_positive_int(segment, "segment")
    n_states = check_positive_int(n_states, "n_states")
    if L % segment:
        raise ValueError(f"stream length {L} must be a multiple of "
                         f"segment {segment}")
    x = np.ascontiguousarray(x)
    wT = np.ascontiguousarray(wT)
    Wn = windows.shape[0]
    out = np.empty((C, B, Wn, nbytes), dtype=np.uint8)
    _check(_lib.repro_apc_conv_max_btanh_pack(
        _ptr(x, _u8p), B, S, nbytes, _ptr(table, _i64p), n, _ptr(wT, _u8p),
        C, L, W, _ptr(windows, _i64p), Wn, segment, n_states,
        _ptr(out, _u8p)))
    return out
