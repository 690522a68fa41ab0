"""Native fused-kernel tier: capability layer and ctypes bindings.

This package arms an optional compiled tier below the NumPy word engine
(DESIGN.md, "Native kernel tier").  It holds one fused call per APC
layer of the exact backend — the pooled APC conv stage (count → max or
average pool → Btanh → pack per pool window) and the APC FC layer
(count → Btanh → pack, or the output layer's count sums), which also
runs an unpooled APC conv over its patch rows — plus the Stanh byte-LUT
walk and the ideal SNG's PCG64 draw → compare → pack.  Each is a
bit-identical re-implementation of its NumPy composition; the pure
NumPy paths remain the conformance oracle and the fallback.

The counting kernels read weights laid out once (the exact backend does
it at construction), so no call copies weights: the FC kernel a
:class:`WeightBank` from :func:`weight_bank`, the conv stage a
channel-minor :class:`ConvBank` from :func:`conv_bank`, which also holds
the stage's gather plan, so no call re-derives it.  Each refuses any
other bank by type — a plain array would be the row-major
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

All wrappers return freshly-allocated arrays.  In ``repro.sc``
``activation.stanh_packed`` and ``rng.IdealSNG.generate`` dispatch here,
per call, when ``enabled()`` is true; the exact backend checks
``enabled()`` once, when it is built.
"""

from __future__ import annotations

import contextlib
import os
from ctypes import POINTER, c_int, c_int64, c_uint8, c_uint64
from dataclasses import dataclass

import numpy as np

from repro.sc.ops import transposed_width
from repro.utils.validation import check_positive_int

__all__ = [
    "available",
    "enabled",
    "status",
    "override",
    "WeightBank",
    "weight_bank",
    "ConvBank",
    "conv_bank",
    "apc_fc_btanh_pack",
    "apc_fc_sums",
    "stanh_lut",
    "apc_conv_pool_btanh_pack",
    "sng_pcg64_pack",
]

_ENV = "REPRO_NATIVE"

_lib = None
_lib_path = None
_reason = None
_override = None
_env_setting = os.environ.get(_ENV)

_u8p = POINTER(c_uint8)
_i64p = POINTER(c_int64)
_u64p = POINTER(c_uint64)


def _configure(lib) -> None:
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
    lib.repro_apc_conv_pool_btanh_pack.argtypes = [
        _u8p, c_int64, c_int64, c_int64, _i64p, _i64p, c_int64, _i64p,
        c_int64, _u8p, c_int64, c_int64, c_int64, _i64p, c_int64, c_int,
        c_int64, c_int64, _u8p]
    lib.repro_apc_conv_pool_btanh_pack.restype = c_int
    lib.repro_sng_pcg64_pack.argtypes = [
        _u64p, _u64p, c_int64, c_int64, _u8p]
    lib.repro_sng_pcg64_pack.restype = c_int


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

@dataclass(frozen=True)
class WeightBank:
    """A packed weight bank laid out for the FC kernel.

    ``data`` holds ``channels`` blocks of ``length × width`` bytes: each
    channel's ``n`` weight streams bit-transposed into one ``width``-byte
    row per cycle, word-major when ``width % 8 == 0`` (the counting
    layout of ``kernels.c``).  :func:`weight_bank` builds one; the type
    is what tells it from a row-major array or a :class:`ConvBank`, and
    its sizes are checked here so no bank can overrun the kernel's reads.
    """

    data: np.ndarray
    n: int
    length: int

    def __post_init__(self):
        data = self.data
        if (not isinstance(data, np.ndarray) or data.dtype != np.uint8
                or data.ndim != 2 or not data.flags.c_contiguous
                or self.n < 1 or self.length < 1
                or data.shape[1] != self.length * transposed_width(self.n)):
            shape = getattr(data, "shape", data)
            raise ValueError(f"not a laid-out bank of n={self.n} "
                             f"L={self.length}: {shape}")

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return transposed_width(self.n)


#: channels per SIMD lane group of the conv stage (``LANES`` in
#: ``kernels.c``); a :class:`ConvBank` pads its channel axis to it
LANES = 16


def _lane_layout(n: int, channels: int) -> tuple[type, int, int]:
    """A conv lane bank's word type, words per cycle row and padded
    channel count (``lane_word``/``lane_pad`` in ``kernels.c``)."""
    width = transposed_width(n)
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
        return transposed_width(self.n)

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
    width = transposed_width(n)
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
                                       transposed_width(n), _ptr(data, _u8p)))
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
    packed Btanh output streams ``(R, C, nbytes)``.  An unpooled APC conv
    is the same layer over its patch rows, one row per (image, position).

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


def apc_conv_pool_btanh_pack(x: np.ndarray, bank: ConvBank,
                             windows: np.ndarray, pool, segment: int,
                             n_states: int) -> np.ndarray:
    """One pooled APC conv stage: packed input banks ``(B, S, nbytes)``
    (bias row included), a :class:`ConvBank` of ``C`` channels whose
    gather plan reads those ``S`` rows at ``P`` conv positions, and 2×2
    pool windows ``(Wn, 4)`` indexing ``[0, P)`` → packed Btanh output
    streams ``(B, C, Wn, nbytes)``, image-major.

    ``pool`` is the plan's :class:`~repro.core.config.PoolKind`.
    Bit-identical to ``pack_bits(btanh_counts(pooled, n, n_states))``
    over the APC counts ``(C, B, P, L)`` of ``x[:, table]`` against the
    weights (``table`` as given to :func:`conv_bank`), with ``pooled``
    ``apc_max_pool(counts[:, :, windows], segment)`` under
    ``PoolKind.MAX`` or ``apc_average_pool(counts[:, :, windows])``
    under ``PoolKind.AVG`` (which reads no ``segment``), transposed to
    image-major, without building the patch bank, the counts or any
    later intermediate.  Every argument is checked here, before a
    pointer reaches C.
    """
    # repro.core imports this package (through repro.sc), so PoolKind
    # is looked up at call time.
    from repro.core.config import PoolKind

    bank = _checked_bank(bank, ConvBank)
    if not isinstance(pool, PoolKind):
        raise TypeError(f"expected a PoolKind, got {type(pool).__name__}")
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
    n_states = check_positive_int(n_states, "n_states")
    avg = pool is PoolKind.AVG              # POOL_AVG is 1 in kernels.c
    if avg:
        segment = L
    else:
        segment = check_positive_int(segment, "segment")
        if L % segment:
            raise ValueError(f"stream length {L} must be a multiple of "
                             f"segment {segment}")
    x = np.ascontiguousarray(x)
    C, Wn = bank.channels, windows.shape[0]
    out = np.empty((B, C, Wn, nbytes), dtype=np.uint8)
    _check(_lib.repro_apc_conv_pool_btanh_pack(
        _ptr(x, _u8p), B, S, nbytes, _ptr(bank.image, _i64p),
        _ptr(bank.runs, _i64p), bank.runs.size, _ptr(bank.sources, _i64p),
        bank.n, _ptr(bank.data, _u8p), C, L, bank.width,
        _ptr(windows, _i64p), Wn, int(avg), segment,
        n_states, _ptr(out, _u8p)))
    return out


_U64 = (1 << 64) - 1


def sng_pcg64_pack(bit_generator: np.random.PCG64, probs: np.ndarray,
                   length: int) -> np.ndarray:
    """Ideal-SNG streams in one pass: ``random((R, length)) < probs[:,
    None]`` over ``bit_generator``, packed → ``(R, ceil(length/8))``
    uint8, leaving the generator where that ``random()`` call would.

    The kernel compares 53-bit draws against ``ceil(p * 2**53)``,
    computed here (NaN and ``p <= 0`` give 0, ``p >= 1`` gives
    ``2**53``).  Runs under the generator's lock.
    """
    if type(bit_generator) is not np.random.PCG64:
        raise TypeError(f"expected a numpy PCG64 bit generator, got "
                        f"{type(bit_generator).__name__}")
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1:
        raise ValueError(f"expected probs (R,), got {probs.shape}")
    length = check_positive_int(length, "length")
    thresholds = np.where(probs > 0.0,
                          np.ceil(np.minimum(probs, 1.0) * 2.0 ** 53),
                          0.0).astype(np.uint64)
    out = np.empty((probs.shape[0], (length + 7) // 8), dtype=np.uint8)
    with bit_generator.lock:
        state = bit_generator.state
        s, inc = state["state"]["state"], state["state"]["inc"]
        words = np.array([s >> 64, s & _U64, inc >> 64, inc & _U64],
                         dtype=np.uint64)
        _check(_lib.repro_sng_pcg64_pack(
            _ptr(words, _u64p), _ptr(thresholds, _u64p), probs.shape[0],
            length, _ptr(out, _u8p)))
        state["state"]["state"] = (int(words[0]) << 64) | int(words[1])
        bit_generator.state = state
    return out
