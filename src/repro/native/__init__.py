"""Native fused-kernel tier: capability layer and ctypes bindings.

This package arms an optional compiled tier below the NumPy word engine
(DESIGN.md, "Native kernel tier").  The five loops it owns — the fused
transpose+popcount column counter, the exact-backend inner product, the
Stanh byte-LUT walk, the saturating-counter FSM scan and the fused APC
conv stage (count → max pool → Btanh → pack per pool window), plus the
fused APC FC layer (count → Btanh → pack, or the output layer's count
sums) — are bit-identical re-implementations of their NumPy
counterparts; the pure NumPy paths remain the conformance oracle and the
fallback.

The counting kernels read weights laid out once (the exact backend does
it at construction), so no call copies weights: the inner-product and
FC kernels a :class:`WeightBank` from :func:`weight_bank`, the conv
stage a channel-minor :class:`ConvBank` from :func:`conv_bank`, which
also holds the stage's gather plan, so no call re-derives it.  Each
refuses any other bank by type — a plain array would be the row-major
``transpose_pack`` bank.

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

All wrappers return freshly-allocated arrays.  The dispatchers in
``repro.sc`` call them only when ``enabled()`` is true; the exact
backend checks ``enabled()`` once, when it is built.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
from ctypes import POINTER, c_int, c_int64, c_uint8
from dataclasses import dataclass

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
    "WeightBank",
    "weight_bank",
    "ConvBank",
    "conv_bank",
    "apc_inner_counts",
    "apc_fc_btanh_pack",
    "apc_fc_sums",
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
    lib.repro_layout_bank.argtypes = [
        _u8p, c_int64, c_int64, c_int64, c_int64, c_int64, _u8p]
    lib.repro_layout_bank.restype = c_int
    lib.repro_layout_conv_bank.argtypes = [
        _u8p, c_int64, c_int64, c_int64, c_int64, c_int64, _u8p]
    lib.repro_layout_conv_bank.restype = c_int
    lib.repro_apc_fc_btanh_pack.argtypes = [
        _u8p, c_int64, c_int64, c_int64, _u8p, c_int64, c_int64, c_int64,
        c_int64, _u8p, _i64p]
    lib.repro_apc_fc_btanh_pack.restype = c_int
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
        _u8p, c_int64, c_int64, c_int64, _i64p, _i64p, c_int64, _i64p,
        c_int64, _u8p, c_int64, c_int64, c_int64, _i64p, c_int64, c_int64,
        c_int64, _u8p]
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


def _row_width(n: int) -> int:
    """Bytes per transposed cycle row of ``n`` inputs (4-byte aligned,
    as ``ops.transpose_pack`` pads them)."""
    width = (n + 7) // 8
    return width + (-width) % 4


@dataclass(frozen=True)
class WeightBank:
    """A packed weight bank laid out for the inner-product and FC kernels.

    ``data`` holds ``channels`` blocks of ``length × width`` bytes: each
    channel's ``n`` weight streams bit-transposed into one ``width``-byte
    row per cycle, word-major when ``width % 8 == 0`` (the counting
    layout of ``kernels.c``).  :func:`weight_bank` builds one; the type
    is what tells it from a row-major array or a :class:`ConvBank`, and
    its sizes are checked here so no bank can overrun the kernels' reads.
    """

    data: np.ndarray
    n: int
    length: int

    def __post_init__(self):
        data = self.data
        if (not isinstance(data, np.ndarray) or data.dtype != np.uint8
                or data.ndim != 2 or not data.flags.c_contiguous
                or self.n < 1 or self.length < 1
                or data.shape[1] != self.length * _row_width(self.n)):
            shape = getattr(data, "shape", data)
            raise ValueError(f"not a laid-out bank of n={self.n} "
                             f"L={self.length}: {shape}")

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return _row_width(self.n)


#: channels per SIMD lane group of the conv stage (``LANES`` in
#: ``kernels.c``); a :class:`ConvBank` pads its channel axis to it
LANES = 16


def _lane_layout(n: int, channels: int) -> tuple[type, int, int]:
    """A conv lane bank's word type, words per cycle row and padded
    channel count (``lane_word``/``lane_pad`` in ``kernels.c``)."""
    width = _row_width(n)
    word = np.uint64 if width % 8 == 0 else np.uint32
    cp = -(-channels // LANES) * LANES
    return word, width // np.dtype(word).itemsize, cp


@dataclass(frozen=True)
class ConvBank:
    """A packed weight bank laid out for the APC conv stage, one SIMD
    lane per output channel, with the stage's gather plan.

    ``data`` is ``(words, length, Cp)``: each channel's ``n`` weight
    streams, in tile order, bit-transposed into one ``width``-byte row
    per cycle, split into MSB-first words — uint64 when
    ``width % 8 == 0``, else uint32 — and stored channel-minor, with
    ``Cp`` the ``channels`` rounded up to :data:`LANES` (the padding
    channels zero).

    The gather plan cuts each conv position's ``n`` inputs out of one
    transposed image, run by run:

    * ``image`` ``(S,)`` — the input row at each image position (a
      permutation of the ``S`` rows of the biased input bank);
    * ``runs`` ``(R,)`` — the bit length of each run of tile inputs, in
      tile order, summing to ``n``;
    * ``sources`` ``(P, R)`` — the image position of run ``r``'s first
      input at conv position ``p``; the run reads ``runs[r]``
      consecutive positions from there.

    :func:`conv_bank` builds one; its sizes and plan are checked here so
    no bank can overrun the kernel's reads.
    """

    data: np.ndarray
    n: int
    channels: int
    image: np.ndarray
    runs: np.ndarray
    sources: np.ndarray

    def __post_init__(self):
        data = self.data
        ok = (isinstance(data, np.ndarray) and data.ndim == 3
              and data.flags.c_contiguous and self.n >= 1
              and self.channels >= 1)
        if ok:
            word, words, cp = _lane_layout(self.n, self.channels)
            ok = (data.dtype == word and data.shape[1] >= 1
                  and data.shape[::2] == (words, cp))
        if not ok:
            shape = getattr(data, "shape", data)
            raise ValueError(f"not a conv lane bank of n={self.n} "
                             f"channels={self.channels}: {shape}")
        image, runs, sources = self.image, self.runs, self.sources
        ok = all(isinstance(a, np.ndarray) and a.dtype == np.int64
                 and a.flags.c_contiguous for a in (image, runs, sources))
        if ok:
            S = image.shape[0] if image.ndim == 1 else 0
            ok = (S >= 1 and runs.ndim == 1 and runs.size >= 1
                  and sources.ndim == 2 and sources.shape[0] >= 1
                  and sources.shape[1] == runs.size
                  and _is_permutation(image)
                  and runs.min() >= 1 and int(runs.sum()) == self.n
                  and sources.min() >= 0
                  and (sources + runs).max() <= S)
        if not ok:
            raise ValueError(f"not a gather plan of n={self.n}: image "
                             f"{getattr(image, 'shape', image)}, runs "
                             f"{getattr(runs, 'shape', runs)}, sources "
                             f"{getattr(sources, 'shape', sources)}")

    @property
    def length(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return _row_width(self.n)

    @property
    def rows(self) -> int:
        """Rows ``S`` of the biased input bank the plan gathers from."""
        return self.image.shape[0]


def _checked_weights(w, length: int) -> tuple[np.ndarray, int]:
    """A packed weight bank ``(C, n, nbytes)`` carrying ``length``."""
    w = np.asarray(w)
    if w.dtype != np.uint8 or w.ndim != 3 or 0 in w.shape[:2]:
        raise ValueError(f"expected a uint8 weight bank (C, n, nbytes), "
                         f"got {w.dtype} {w.shape}")
    length = check_positive_int(length, "length")
    if w.shape[2] != (length + 7) // 8:
        raise ValueError(f"weight bank of {w.shape[2]} bytes per stream "
                         f"does not carry length {length}")
    return np.ascontiguousarray(w), length


def weight_bank(w: np.ndarray, length: int) -> WeightBank:
    """Lay a packed weight bank ``(C, n, nbytes)`` out for counting.

    One pass per bank, no transient: the result replaces the row-major
    ``transpose_pack`` bank and its last-input plane, which only the
    NumPy counting path reads.
    """
    w, length = _checked_weights(w, length)
    C, n, nbytes = w.shape
    width = _row_width(n)
    data = np.empty((C, length * width), dtype=np.uint8)
    _check(_lib.repro_layout_bank(_ptr(w, _u8p), C, n, nbytes, length,
                                  width, _ptr(data, _u8p)))
    data.flags.writeable = False
    return WeightBank(data, n, length)


def _is_permutation(a: np.ndarray) -> bool:
    """Whether the integer vector ``a`` holds each of ``0 .. len(a) - 1``
    once.  (Counted, not sorted: NumPy's sort kernels would page in
    ~0.5 MB of code per process for vectors this short.)"""
    return bool(a.size and a.min() >= 0 and a.max() < a.size
                and (np.bincount(a, minlength=a.size) == 1).all())


def _int_table(name: str, table, cols: int, bound: int) -> np.ndarray:
    """An integer ``(rows, cols)`` index table with entries in
    ``[0, bound)``, as contiguous int64 for C."""
    table = np.asarray(table)
    if (not np.issubdtype(table.dtype, np.integer) or table.ndim != 2
            or table.shape[1] != cols):
        raise ValueError(f"expected integer {name} (rows, {cols}), got "
                         f"{table.dtype} {table.shape}")
    if table.size and (table.min() < 0 or table.max() >= bound):
        raise ValueError(f"{name} index outside [0, {bound})")
    return np.ascontiguousarray(table, dtype=np.int64)


def _gather_plan(table: np.ndarray, order: np.ndarray):
    """Tile order, runs and run sources of a conv stage's gather.

    ``order[s]`` is the image position of input row ``s``.  Each
    position's inputs are permuted by image position (as the first
    position's sort them; the last column, the one the APC LSB patch
    reads, stays last), then maximal runs are merged: tile inputs whose
    sources are consecutive image positions at *every* conv position.
    Any table gives a correct plan; the geometry only decides how long
    the runs are.  Returns the column permutation ``(n,)``, the run
    lengths ``(R,)`` and the sources ``(P, R)``.
    """
    pos = order[table]                                  # (P, n)
    n = table.shape[1]
    first = pos[0, :-1].tolist()
    perm = sorted(range(n - 1), key=first.__getitem__) + [n - 1]
    pos = pos[:, perm]
    joined = np.all(np.diff(pos, axis=1) == 1, axis=0)  # (n - 1,)
    starts = np.flatnonzero(np.concatenate([[True], ~joined]))
    runs = np.diff(np.append(starts, n))
    return perm, runs, np.ascontiguousarray(pos[:, starts])


def conv_bank(w: np.ndarray, length: int, table: np.ndarray,
              order: np.ndarray) -> ConvBank:
    """Lay a packed weight bank ``(C, n, nbytes)`` out for the APC conv
    stage, with its gather plan: channel-minor words, one SIMD lane per
    output channel.

    ``table`` ``(P, n)`` names the input row feeding input ``j`` of conv
    position ``p``, and ``order`` ``(S,)`` the image position of each of
    the ``S`` input rows (a permutation).  The weights are permuted into
    the plan's tile order (see :func:`_gather_plan`) before they are
    laid out.
    """
    w, length = _checked_weights(w, length)
    C, n, nbytes = w.shape
    order = np.asarray(order)
    if np.issubdtype(order.dtype, np.integer):
        order = order.astype(np.int64)
    if (order.dtype != np.int64 or order.ndim != 1
            or not _is_permutation(order)):
        raise ValueError(f"order must be a permutation of the input rows, "
                         f"got {order.dtype} {order.shape}")
    S = order.shape[0]
    table = _int_table("table", table, n, S)
    if table.shape[0] < 1:
        raise ValueError("table has no conv position")
    perm, runs, sources = _gather_plan(table, order)
    w = np.ascontiguousarray(w[:, perm])
    word, words, cp = _lane_layout(n, C)
    data = np.empty((words, length, cp), dtype=word)
    _check(_lib.repro_layout_conv_bank(_ptr(w, _u8p), C, n, nbytes, length,
                                       _row_width(n), _ptr(data, _u8p)))
    image = np.empty(S, dtype=np.int64)
    image[order] = np.arange(S)
    for array in (data, image, runs, sources):
        array.flags.writeable = False
    return ConvBank(data, n, C, image, runs, sources)


def _checked_bank(bank, kind=WeightBank):
    if not isinstance(bank, kind):
        raise TypeError(f"expected a {kind.__name__}, got "
                        f"{type(bank).__name__}")
    return bank


def _checked_rows(x, bank: WeightBank) -> np.ndarray:
    """A packed input bank ``(R, n, nbytes)`` matching ``bank``."""
    x = np.asarray(x)
    if x.dtype != np.uint8 or x.ndim != 3:
        raise ValueError(f"expected uint8 x (R, n, nbytes), got "
                         f"{x.dtype} {x.shape}")
    if x.shape[1] != bank.n or x.shape[2] != (bank.length + 7) // 8:
        raise ValueError(f"bank mismatch: x {x.shape} against n={bank.n} "
                         f"L={bank.length}")
    return np.ascontiguousarray(x)


def apc_inner_counts(x: np.ndarray, bank: WeightBank,
                     approximate: bool = True) -> np.ndarray:
    """Fused exact-backend inner product: packed bank ``(R, n, nbytes)``
    against a :class:`WeightBank` of ``C`` channels → ``(C, R, L)``
    int16 counts, transposition and XOR-popcount fused in cache tiles."""
    bank = _checked_bank(bank)
    x = _checked_rows(x, bank)
    R, C, L = x.shape[0], bank.channels, bank.length
    out = np.empty((C, R, L), dtype=np.int16)
    _check(_lib.repro_apc_inner_counts(
        _ptr(x, _u8p), _ptr(bank.data, _u8p), R, C, bank.n, x.shape[2], L,
        bank.width, 1 if approximate else 0, _ptr(out, _i16p)))
    return out


def _apc_fc(x, bank, n_states: int, bits, sums) -> None:
    _check(_lib.repro_apc_fc_btanh_pack(
        _ptr(x, _u8p), x.shape[0], bank.n, x.shape[2],
        _ptr(bank.data, _u8p), bank.channels, bank.length, bank.width,
        n_states, None if bits is None else _ptr(bits, _u8p),
        None if sums is None else _ptr(sums, _i64p)))


def apc_fc_btanh_pack(x: np.ndarray, bank: WeightBank,
                      n_states: int) -> np.ndarray:
    """One APC fully-connected layer: packed input bank ``(R, n, nbytes)``
    (bias row included) against a :class:`WeightBank` of ``C`` channels →
    packed Btanh output streams ``(R, C, nbytes)``.

    Bit-identical to ``pack_bits(btanh_counts(counts, n, n_states))``
    over the APC counts, transposed to ``(R, C, nbytes)``, without
    building the counts or any later intermediate.
    """
    bank = _checked_bank(bank)
    x = _checked_rows(x, bank)
    n_states = check_positive_int(n_states, "n_states")
    out = np.empty((x.shape[0], bank.channels, x.shape[2]), dtype=np.uint8)
    _apc_fc(x, bank, n_states, out, None)
    return out


def apc_fc_sums(x: np.ndarray, bank: WeightBank) -> np.ndarray:
    """The decoded output layer's counting: packed input bank
    ``(R, n, nbytes)`` against a :class:`WeightBank` of ``C`` channels →
    ``(R, C)`` int64 APC counts summed over the ``L`` cycles."""
    bank = _checked_bank(bank)
    x = _checked_rows(x, bank)
    out = np.empty((x.shape[0], bank.channels), dtype=np.int64)
    _apc_fc(x, bank, 1, None, out)
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


def apc_conv_max_btanh_pack(x: np.ndarray, bank: ConvBank,
                            windows: np.ndarray, segment: int,
                            n_states: int) -> np.ndarray:
    """One APC conv stage with max pooling: packed input banks
    ``(B, S, nbytes)`` (bias row included), a :class:`ConvBank` of ``C``
    channels whose gather plan reads those ``S`` rows at ``P`` conv
    positions, and 2×2 pool windows ``(Wn, 4)`` indexing ``[0, P)``
    → packed Btanh output streams ``(B, C, Wn, nbytes)``, image-major.

    Bit-identical to ``pack_bits(btanh_counts(apc_max_pool(
    counts[:, :, windows], segment), n, n_states))`` over the APC counts
    ``(C, B, P, L)`` of ``x[:, table]`` against the weights (``table``
    as given to :func:`conv_bank`), transposed to image-major, without
    building the patch bank, the counts or any later intermediate.
    Every argument is checked here, before a pointer reaches C.
    """
    bank = _checked_bank(bank, ConvBank)
    x = np.asarray(x)
    if x.dtype != np.uint8 or x.ndim != 3:
        raise ValueError(f"expected uint8 x (B, S, nbytes), got "
                         f"{x.dtype} {x.shape}")
    B, S, nbytes = x.shape
    L = bank.length
    if S != bank.rows or nbytes != (L + 7) // 8:
        raise ValueError(f"bank mismatch: x {x.shape} against S={bank.rows} "
                         f"L={L}")
    windows = _int_table("windows", windows, 4, bank.sources.shape[0])
    segment = check_positive_int(segment, "segment")
    n_states = check_positive_int(n_states, "n_states")
    if L % segment:
        raise ValueError(f"stream length {L} must be a multiple of "
                         f"segment {segment}")
    x = np.ascontiguousarray(x)
    C, Wn = bank.channels, windows.shape[0]
    out = np.empty((B, C, Wn, nbytes), dtype=np.uint8)
    _check(_lib.repro_apc_conv_max_btanh_pack(
        _ptr(x, _u8p), B, S, nbytes, _ptr(bank.image, _i64p),
        _ptr(bank.runs, _i64p), bank.runs.size, _ptr(bank.sources, _i64p),
        bank.n, _ptr(bank.data, _u8p), C, L, bank.width,
        _ptr(windows, _i64p), Wn, segment, n_states, _ptr(out, _u8p)))
    return out
