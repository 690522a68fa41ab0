"""Property tests: word-level kernels match naive unpacked references.

The word-level engine (uint64 popcounts, packed-mask MUX, chunked column
counters, blocked clamp-composition FSM scan, cached LFSR orbits) must be
*bit-exact* with the obvious per-bit implementations — including the
awkward lengths the padding logic exists for: odd lengths, ``L % 8 != 0``
and ``L % 64 != 0``, and arbitrary batch shapes.

The one kernel here that still dispatches to the native tier,
``activation.stanh_packed``, runs once per tier via the ``kernel_tier``
fixture: the native compiled tier (skipped where not built) and the
NumPy byte-LUT path with native dispatch pinned off — so the pure path
stays exercised on boxes where the native tier would otherwise shadow
it.  Every other kernel here has one path.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.native as native
from repro.sc import activation, adders, fsm, ops
from repro.sc.fsm import saturating_counter
from repro.sc.lfsr import LFSR

# Lengths biased toward the hard cases: not multiples of 8 nor 64.
lengths = st.one_of(
    st.integers(min_value=1, max_value=200),
    st.sampled_from([63, 64, 65, 127, 128, 129, 191, 255, 256, 257]),
)
batch_shapes = st.sampled_from([(), (1,), (3,), (2, 3)])


@pytest.fixture(scope="module", params=["native", "numpy-simd"])
def kernel_tier(request):
    """Pin the kernel dispatch to one tier for the whole module pass.

    Module scope keeps hypothesis happy (no function-scoped fixture in
    ``@given`` tests) and groups the passes so each tier's state is
    entered once.
    """
    if request.param == "native":
        if not native.available():
            pytest.skip("native kernel tier not built")
        with native.override(True):
            yield request.param
    else:
        with native.override(False):
            yield request.param


def random_bits(data, shape, length):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    return (rng.random(shape + (length,)) < 0.5)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), length=lengths, shape=batch_shapes)
def test_popcount_matches_unpacked(data, length, shape):
    bits = random_bits(data, shape, length)
    packed = ops.pack_bits(bits)
    ref = bits.sum(axis=-1, dtype=np.int64)
    np.testing.assert_array_equal(ops.popcount(packed, length), ref)
    np.testing.assert_array_equal(ops.popcount(packed), ref)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), shape=batch_shapes,
       segment=st.integers(min_value=1, max_value=40),
       nseg=st.integers(min_value=1, max_value=12))
def test_segment_popcount_matches_unpacked(data, shape, segment, nseg):
    length = segment * nseg
    if length > (1 << 22):
        return
    bits = random_bits(data, shape, length)
    packed = ops.pack_bits(bits)
    ref = bits.reshape(shape + (nseg, segment)).sum(axis=-1, dtype=np.int64)
    out = ops.segment_popcount(packed, length, segment)
    np.testing.assert_array_equal(out, ref)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), length=lengths, shape=batch_shapes,
       n=st.integers(min_value=1, max_value=9))
def test_mux_select_matches_gather(data, length, shape, n):
    bits = random_bits(data, shape + (n,), length)
    packed = ops.pack_bits(bits)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    select = rng.integers(0, n, size=length)
    out = ops.mux_select(packed, select, length)
    taken = np.take_along_axis(
        bits.astype(np.uint8),
        select.reshape((1,) * len(shape) + (1, length)), axis=-2
    )[..., 0, :]
    np.testing.assert_array_equal(out, ops.pack_bits(taken))
    assert ops.padding_is_zero(out, length)


def _mux_reference(bits, select):
    """Per-row, per-cycle MUX over unpacked ``bits`` ``(..., n, L)``."""
    lead = np.broadcast_shapes(bits.shape[:-2], select.shape[:-1])
    bits = np.broadcast_to(bits, lead + bits.shape[-2:])
    select = np.broadcast_to(select, lead + select.shape[-1:])
    out = np.zeros(lead + bits.shape[-1:], dtype=np.uint8)
    for row in np.ndindex(*lead):
        for t in range(bits.shape[-1]):
            out[row + (t,)] = bits[row + (select[row + (t,)], t)]
    return out


# (streams leading axes, select leading axes): select only, streams
# only, both (including size-1 axes that broadcast either way)
broadcast_leads = st.sampled_from([
    ((), (3,)), ((), (2, 3)), ((2,), ()), ((2, 3), ()), ((3,), (3,)),
    ((2, 1), (1, 3)), ((1, 3), (2, 1)), ((4, 1, 2), (3, 1)),
])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), length=lengths, leads=broadcast_leads,
       n=st.integers(min_value=1, max_value=9),
       edge=st.sampled_from(["random", "first", "last"]))
def test_mux_select_broadcast_selects_match_reference(data, length, leads,
                                                      n, edge):
    stream_lead, select_lead = leads
    bits = random_bits(data, stream_lead + (n,), length)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    select = {"random": rng.integers(0, n, size=select_lead + (length,)),
              "first": np.zeros(select_lead + (length,), dtype=np.int64),
              "last": np.full(select_lead + (length,), n - 1)}[edge]
    out = ops.mux_select(ops.pack_bits(bits), select, length)
    ref = _mux_reference(bits.astype(np.uint8), select)
    np.testing.assert_array_equal(out, ops.pack_bits(ref))
    assert ops.padding_is_zero(out, length)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), length=lengths, shape=batch_shapes,
       n=st.integers(min_value=1, max_value=12),
       budget=st.sampled_from([1, 64, 1 << 20]))
def test_column_counters_match_unpacked(data, length, shape, n, budget):
    bits = random_bits(data, shape + (n,), length)
    packed = ops.pack_bits(bits)
    exact_ref = bits.sum(axis=-2, dtype=np.int16)
    lsb = (exact_ref - bits[..., -1, :]) & np.int16(1)
    approx_ref = (exact_ref & ~np.int16(1)) | lsb
    with mock.patch.object(adders, "CHUNK_BUDGET", budget):
        exact = adders.parallel_counter(packed, length)
        approx = adders.apc_count(packed, length)
    np.testing.assert_array_equal(exact, exact_ref)
    np.testing.assert_array_equal(approx, approx_ref)


def test_column_counters_wide_summand_axis():
    """n > 254 forces the int16 accumulator path."""
    rng = np.random.default_rng(0)
    bits = rng.random((300, 40)) < 0.5
    packed = ops.pack_bits(bits)
    np.testing.assert_array_equal(
        adders.parallel_counter(packed, 40),
        bits.sum(axis=-2, dtype=np.int16))
    exact = bits.sum(axis=-2, dtype=np.int16)
    lsb = (exact - bits[-1, :]) & np.int16(1)
    np.testing.assert_array_equal(
        adders.apc_count(packed, 40), (exact & ~np.int16(1)) | lsb)


def _counter_loop_reference(inc, n_states, init, threshold):
    state = np.full(inc.shape[:-1], init, dtype=np.int64)
    out = np.empty(inc.shape, dtype=bool)
    for t in range(inc.shape[-1]):
        state = np.clip(state + inc[..., t], 0, n_states - 1)
        out[..., t] = state >= threshold
    return out


@settings(max_examples=80, deadline=None)
@given(data=st.data(), shape=batch_shapes,
       T=st.integers(min_value=1, max_value=150),
       n_states=st.integers(min_value=1, max_value=24),
       block=st.one_of(st.none(), st.integers(min_value=1, max_value=20)))
def test_saturating_counter_matches_loop(data, shape, T, n_states, block):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    inc = rng.integers(-30, 31, size=shape + (T,))
    init = int(rng.integers(0, n_states))
    threshold = int(rng.integers(0, n_states + 2))
    # a fixed block pins BLOCK_RANGE to (block, block); None keeps ≈√T
    block_range = fsm.BLOCK_RANGE if block is None else (block, block)
    with mock.patch.object(fsm, "BLOCK_RANGE", block_range):
        out = saturating_counter(inc, n_states, init=init,
                                 threshold=threshold)
    ref = _counter_loop_reference(inc, n_states, init, threshold)
    np.testing.assert_array_equal(out, ref)


int64s = st.integers(min_value=-2**63, max_value=2**63 - 1)


uint64s = st.one_of(st.integers(min_value=0, max_value=2**64 - 1),
                   st.integers(min_value=2**63 - 2, max_value=2**63 + 1))


@settings(max_examples=80, deadline=None)
@given(data=st.data(),
       dtype=st.sampled_from([np.int64, np.uint64]),
       n_states=st.one_of(st.integers(min_value=1, max_value=2**63 - 1),
                          st.integers(min_value=2**63 - 4,
                                      max_value=2**63 - 1)))
def test_saturating_counter_never_wraps(data, dtype, n_states):
    # Full-range int64 and uint64 increments against a Python-int
    # reference: no add may wrap, however close the state sits to either
    # int64 bound, and no uint64 increment >= 2**63 may turn negative.
    incs = data.draw(st.lists(int64s if dtype is np.int64 else uint64s,
                              min_size=1, max_size=12))
    init = data.draw(st.one_of(
        st.none(), st.integers(min_value=0, max_value=n_states - 1)))
    threshold = data.draw(st.one_of(
        st.none(), st.integers(min_value=0, max_value=n_states)))
    out = saturating_counter(np.array(incs, dtype=dtype), n_states,
                             init=init, threshold=threshold)
    state = n_states // 2 if init is None else init
    threshold = n_states // 2 if threshold is None else threshold
    ref = []
    for a in incs:
        state = min(max(state + a, 0), n_states - 1)
        ref.append(state >= threshold)
    assert out.tolist() == ref


@settings(max_examples=40, deadline=None)
@given(data=st.data(), length=lengths, shape=batch_shapes,
       n_states=st.integers(min_value=2, max_value=32))
def test_stanh_packed_matches_bit_fsm(kernel_tier, data, length, shape,
                                      n_states):
    bits = random_bits(data, shape, length)
    packed = ops.pack_bits(bits)
    threshold = data.draw(st.one_of(
        st.none(), st.integers(min_value=1, max_value=n_states)))
    out = activation.stanh_packed(packed, length, n_states,
                                  threshold=threshold)
    inc = bits.astype(np.int64) * 2 - 1
    ref = _counter_loop_reference(
        inc, n_states, n_states // 2,
        n_states // 2 if threshold is None else threshold)
    np.testing.assert_array_equal(out, ops.pack_bits(ref))
    assert ops.padding_is_zero(out, length)


@settings(max_examples=25, deadline=None)
@given(width=st.sampled_from([3, 5, 8, 10, 13, 16]),
       seed=st.integers(min_value=1, max_value=2**16),
       n=st.integers(min_value=1, max_value=300))
def test_lfsr_sequence_matches_stepping(width, seed, n):
    table = LFSR(width, seed=seed)
    stepped = LFSR(width, seed=seed)
    got = table.sequence(n)
    ref = np.array([stepped.step() for _ in range(n)], dtype=np.uint32)
    np.testing.assert_array_equal(got, ref)
    assert table.state == stepped.state
    # Continuation from the advanced phase stays aligned.
    np.testing.assert_array_equal(
        table.sequence(7),
        np.array([stepped.step() for _ in range(7)], dtype=np.uint32))


def test_lfsr_wraps_past_period():
    a, b = LFSR(6, seed=11), LFSR(6, seed=11)
    n = a.period * 2 + 5
    np.testing.assert_array_equal(
        a.sequence(n), np.array([b.step() for _ in range(n)],
                                dtype=np.uint32))


@settings(max_examples=30, deadline=None)
@given(data=st.data(), length=lengths, shape=batch_shapes)
def test_padding_invariant_maintained(data, length, shape):
    bits = random_bits(data, shape, length)
    packed = ops.pack_bits(bits)
    assert ops.padding_is_zero(packed, length)
    assert ops.padding_is_zero(ops.not_(packed, length), length)
    assert ops.padding_is_zero(
        ops.xnor_(packed, ops.not_(packed, length), length), length)


def test_popcount_rejects_mismatched_width():
    packed = ops.pack_bits(np.ones(16, dtype=np.uint8))
    with pytest.raises(ValueError):
        ops.popcount(packed, 32)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), length=lengths, shape=batch_shapes,
       n=st.integers(min_value=1, max_value=40))
def test_transpose_pack_round_trips_bits(data, length, shape, n):
    """transpose_pack: row t of the result holds the n streams' bits at
    cycle t (zero-padded to ``transposed_width(n)`` bytes)."""
    bits = random_bits(data, shape + (n,), length)        # (..., n, L)
    packed = ops.pack_bits(bits)
    t = ops.transpose_pack(packed, length)                # (..., L, W)
    assert t.shape[:-2] == shape and t.shape[-2] == length
    assert t.shape[-1] == ops.transposed_width(n)
    assert t.shape[-1] % ops.ROW_ALIGN == 0 and t.shape[-1] * 8 >= n
    back = np.unpackbits(t, axis=-1)[..., :n]             # (..., L, n)
    np.testing.assert_array_equal(back, np.swapaxes(bits, -1, -2))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), nbytes=st.integers(min_value=1, max_value=20),
       shape=batch_shapes)
def test_popcount_sum_counts_all_bytes(data, nbytes, shape):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    packed = rng.integers(0, 256, shape + (nbytes,), dtype=np.uint8)
    ref = np.unpackbits(packed, axis=-1).sum(axis=-1, dtype=np.int64)
    np.testing.assert_array_equal(ops.popcount_sum(packed), ref)
    np.testing.assert_array_equal(
        ops.popcount_sum(packed, dtype=np.int16), ref.astype(np.int16))


@settings(max_examples=25, deadline=None)
@given(data=st.data(), length=lengths,
       n=st.integers(min_value=1, max_value=24),
       rows=st.integers(min_value=1, max_value=6))
def test_transposed_counting_matches_apc_count(data, length, n, rows):
    """The engine's transposed counting identity:
    count = n - popcount(xT ^ wT), LSB patched with the last product bit
    — must equal the word-level APC counter bit for bit."""
    xb = random_bits(data, (rows, n), length)
    wb = random_bits(data, (n,), length)
    x = ops.pack_bits(xb)
    w = ops.pack_bits(wb)
    ref = adders.apc_count(ops.xnor_(x, w[None], length), length)
    xT = ops.transpose_pack(x, length)
    wT = ops.transpose_pack(w[None], length)[0]
    ham = ops.popcount_sum(xT ^ wT[None], dtype=np.int16)
    exact = np.int16(n) - ham
    x_last = ops.unpack_bits(x[:, -1, :], length)
    w_last = ops.unpack_bits(w[-1, :], length)
    prod_last = np.uint8(1) ^ x_last ^ w_last[None]
    one = np.int16(1)
    got = (exact & ~one) | ((exact ^ prod_last) & one)
    np.testing.assert_array_equal(got, ref)


