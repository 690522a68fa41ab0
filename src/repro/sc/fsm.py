"""Saturating-counter finite-state-machine engine.

Both SC activation functions in the paper are saturating counters:

* **Stanh** (Figure 6) — a K-state FSM stepping ±1 per input bit;
* **Btanh** — a saturated up/down counter stepping by the (signed) binary
  output of the APC each cycle.

The engine runs a *blocked clamp-composition scan* instead of one Python
iteration per cycle.  The key fact is that saturating-add steps compose in
closed form: every composition of ``x -> clip(x + a, lo, hi)`` steps is a
function of the shape ``x -> min(max(x + S, U), V)``, and composing one
more step updates the triple by

    ``S += a``,  ``U = max(U + a, lo)``,  ``V = clip(V + a, lo, hi)``.

Within a block of ``B`` cycles, ``S`` is a cumulative sum, ``U`` unrolls to
``lo + S - running_min(S)`` (running extrema — no loop), and only ``V``
needs a scan of ``B`` vectorized steps.  Block entry states then propagate
across the ``T/B`` blocks through each block's final triple, and all
per-cycle states evaluate in one vectorized ``min(max(...))``.  Python-level
iterations drop from ``T`` to ``B + T/B ≈ 2√T`` (see DESIGN.md,
"word-level engine"); the per-cycle loop this replaces cost ``T``
iterations of O(batch) numpy work.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive_int

__all__ = ["saturating_counter"]

#: Dispatch-friendly ``(min, max)`` cycles per scan block.  Any block
#: length produces identical output (the composition is exact); this
#: only tunes how the ``B + T/B`` Python-level iterations split, while
#: the work arrays always span the full ``T`` cycles regardless.
BLOCK_RANGE = (8, 128)


def _block_size(n_cycles: int) -> int:
    """Block length: ≈√T bounded to :data:`BLOCK_RANGE` and to ``T``."""
    root = int(round(float(n_cycles) ** 0.5))
    lo, hi = BLOCK_RANGE
    return max(1, min(max(root, lo), hi, n_cycles))


def saturating_counter(
    increments: np.ndarray,
    n_states: int,
    init: int = None,
    threshold: int = None,
) -> np.ndarray:
    """Run a saturating up/down counter over per-cycle increments.

    Parameters
    ----------
    increments:
        Integer array of shape ``(..., T)``; the counter adds
        ``increments[..., t]`` at cycle ``t`` and saturates into
        ``[0, n_states - 1]``.
    n_states:
        Number of counter states (the paper's ``K``).
    init:
        Initial state; defaults to ``n_states // 2`` (the FSM's centre,
        so a zero-mean input yields a zero-mean bipolar output).
    threshold:
        Output is 1 whenever the *updated* state is ``>= threshold``.
        Defaults to ``n_states // 2`` — the right half of the Figure 6
        diagram.  The re-designed Stanh of Figure 11 passes
        ``round(n_states / 5)`` instead.

    Returns
    -------
    Boolean array of shape ``(..., T)`` — the output bit-stream(s).
    """
    n_states = check_positive_int(n_states, "n_states")
    inc = np.asarray(increments)
    if not np.issubdtype(inc.dtype, np.integer):
        raise ValueError(f"increments must be integers, got dtype {inc.dtype}")
    if init is None:
        init = n_states // 2
    if threshold is None:
        threshold = n_states // 2
    if not 0 <= init <= n_states - 1:
        raise ValueError(f"init state {init} outside [0, {n_states - 1}]")

    T = inc.shape[-1]
    hi = n_states - 1
    if T == 0:
        return np.empty(inc.shape, dtype=bool)
    if inc.dtype == np.uint64:
        # Count in int64.  An increment >= hi saturates from any state,
        # so capping at 2**63 - 1 is exact where a cast wraps.
        inc = np.minimum(inc, np.uint64(2**63 - 1)).astype(np.int64)
    B = _block_size(T)
    # int32 is ample unless a block's partial sums could overflow it; for
    # narrow increment dtypes the dtype bound settles it without a scan.
    if inc.dtype.itemsize <= 2:
        maxabs = 1 << (8 * inc.dtype.itemsize)
    else:
        maxabs = max(-int(inc.min()), int(inc.max())) if inc.size else 0
    bound = (maxabs + 1) * (B + 1) + n_states
    if bound >= 2**63:
        return _saturating_scan(inc, hi, init, threshold)
    work = np.int32 if bound < 2**31 else np.int64
    nblocks = -(-T // B)
    pad = nblocks * B - T
    if pad:
        # Zero increments are identity steps; the padded tail is discarded.
        inc = np.concatenate(
            [inc, np.zeros(inc.shape[:-1] + (pad,), dtype=inc.dtype)],
            axis=-1,
        )
    a = inc.reshape(inc.shape[:-1] + (nblocks, B)).astype(work)

    P = np.cumsum(a, axis=-1)                       # composed shifts S
    U = P - np.minimum.accumulate(P, axis=-1)       # lo = 0 closed form
    V = np.empty_like(P)
    V[..., 0] = hi
    v = np.full(a.shape[:-1], hi, dtype=work)
    for j in range(1, B):
        np.add(v, a[..., j], out=v)
        np.clip(v, 0, hi, out=v)
        V[..., j] = v

    entry = np.empty(a.shape[:-1], dtype=work)
    e = np.full(a.shape[:-2], init, dtype=work)
    Pe, Ue, Ve = P[..., -1], U[..., -1], V[..., -1]
    for b in range(nblocks):
        entry[..., b] = e
        e = np.minimum(np.maximum(e + Pe[..., b], Ue[..., b]), Ve[..., b])

    P += entry[..., None]
    np.maximum(P, U, out=P)
    np.minimum(P, V, out=P)
    out = P >= threshold
    return out.reshape(out.shape[:-2] + (nblocks * B,))[..., :T]


def _saturating_scan(inc: np.ndarray, hi: int, init: int,
                     threshold: int) -> np.ndarray:
    """Per-cycle scan for increments whose block sums could overflow
    int64: each add is capped at ``hi - state`` first, so it never wraps
    (the state is never negative, so a negative add cannot wrap either).
    """
    inc = inc.astype(np.int64, copy=False)
    state = np.full(inc.shape[:-1], init, dtype=np.int64)
    out = np.empty(inc.shape, dtype=bool)
    for t in range(inc.shape[-1]):
        state += np.minimum(inc[..., t], hi - state)
        np.maximum(state, 0, out=state)
        out[..., t] = state >= threshold
    return out
