"""Exact bit-level backend: batched SC simulation of the compiled plan.

The repository's one exact simulator; its logits are pinned by the
golden digest table in ``tests/test_conformance/golden_logits.json``.
The computation is organized around a batch axis so one call simulates
many images:

* :meth:`ExactBackend.forward` encodes all images of a batch with
  **one** SNG call when the SNG is the ideal PCG64 comparator — numpy
  fills uniforms in C order, so the (chunked) draw replays exactly the
  PRNG sequence of ``B`` sequential per-image calls and batching never
  perturbs the streams (pooled-LFSR SNGs advance per call, so they
  encode one image per call to keep the same invariant);
* :meth:`ExactBackend.forward_independent` draws nothing per request:
  every request starts from the post-construction stream state, so its
  comparator block and MUX selects are drawn once at construction and
  each batch is one compare against that block plus a pack;
* MUX select signals are pre-drawn per image in the legacy
  image-major/layer-major order; each MUX layer makes one per-cycle
  gather per operand for the whole batch (average pooling folded in);
* APC column counts run in the *transposed* domain (see
  :func:`numpy_apc_counts`): the input bank is re-packed once so
  each cycle's ``n`` bits form one short row, a product count is
  ``n - popcount(xT ^ wT)``, and row popcounts run word-level — ~8× less
  traffic than unpacking every product bit, with the transposition
  amortized over all output channels (the legacy code paid one
  unpack-and-reduce kernel invocation per output channel per image,
  580 invocations per LeNet-5 image);
* conv patch gathers use the plan's cached flat index (one fancy index
  instead of a per-channel gather loop), and pooling / activation
  operate on whole ``(C, B, W, ·)`` blocks.

Large batches are internally split so the transient count tensors stay
within :attr:`ExactBackend.BATCH_BUDGET` bytes; chunk boundaries never
change results (every stream's computation is independent).
"""

from __future__ import annotations

import time

import numpy as np

import repro.native as native
from repro import obs
from repro.blocks.pooling import (
    DEFAULT_SEGMENT,
    apc_average_pool,
    apc_max_pool,
    hardware_max_pool,
)
from repro.core.config import FEBKind, PoolKind
from repro.engine.backends import register_backend
from repro.engine.engine import as_image_batch
from repro.sc import activation, ops
from repro.sc.encoding import Encoding, to_probability
from repro.sc.rng import IdealSNG, StreamFactory
from repro.utils.validation import check_positive_int

__all__ = ["ExactBackend", "channel_minor_order", "numpy_apc_counts"]


@register_backend
class ExactBackend:
    """Bit-exact stochastic simulation of a compiled plan.

    Parameters
    ----------
    plan:
        The :class:`repro.engine.plan.CompiledPlan` to execute.
    seed:
        Stream-generation seed (weight streams are drawn at construction,
        in layer order, exactly like the legacy simulator).
    segment:
        Hardware max-pooling segment length ``c``.
    sng:
        ``"ideal"`` (PCG64 comparator) or ``"lfsr"`` (pooled LFSR
        sequences served from the cached orbit tables of
        :mod:`repro.sc.lfsr`).
    """

    name = "exact"

    #: upper bound (bytes) on any transient product/unpacked tensor in
    #: the NumPy APC counting path
    CHUNK_BUDGET = 1 << 26
    #: upper bound (bytes) on the per-batch APC count tensors; larger
    #: batches are split internally
    BATCH_BUDGET = 1 << 29

    def __init__(self, plan, seed: int = 0, segment: int = DEFAULT_SEGMENT,
                 sng: str = "ideal"):
        self.plan = plan
        self.length = plan.length
        self.segment = self._checked_segment(plan, segment)
        self.factory = StreamFactory(seed=seed, encoding=Encoding.BIPOLAR,
                                     sng=sng)
        # The kernel tier is fixed here, once: every counting layer's
        # weights are stored only in the form that tier reads, and the
        # layers dispatch on this record rather than per call.
        self.native_tier = native.enabled()
        self.tier = "native" if self.native_tier else "numpy"
        # Each conv layer's patch table with the bias stream (input row
        # S, appended by ``_biased``) as its last column: ``(P, n)``.
        self._tables = [self._biased_table(lp) if lp.op == "conv" else None
                        for lp in plan.layers]
        # Weight streams are drawn in layer order.  A MUX layer keeps its
        # packed streams; a counting layer (APC inner products and the
        # decoded output layer) keeps only its bank: per cycle, each
        # unit's n weight bits packed as one short row — built once,
        # shared by every batch.
        self.weight_streams = []
        self._banks = []
        for i, lp in enumerate(plan.layers):
            w = self.factory.packed(np.clip(lp.weights, -1.0, 1.0),
                                    self.length)
            counting = lp.kind is FEBKind.APC or lp.final
            self.weight_streams.append(None if counting else w)
            self._banks.append(self._bank(i, lp, w) if counting else None)
        # Post-construction stream state: weight streams are drawn, no
        # image has been encoded.  Every ``forward_independent`` request
        # replays the draws a freshly-constructed backend (same seed)
        # would make for its first image — the same comparator values
        # and MUX selects for every image — so they are drawn once, from
        # one fork, and shared read-only.
        fresh = self.factory.fork()
        self._fresh_selects = self._draw_selects([fresh])   # (1, L) rows
        self._fresh_block = fresh.sng.draw_block(
            int(np.prod(plan.input_shape)), self.length)    # (pixels, L)
        for array in (self._fresh_block, *self._fresh_selects.values()):
            array.flags.writeable = False

    def _fused_conv(self, lp) -> bool:
        """Whether layer ``lp`` runs as one native conv-stage call
        (``native.apc_conv_max_btanh_pack``): an APC conv with max
        pooling, on the native tier."""
        return (self.native_tier and lp.op == "conv"
                and lp.kind is FEBKind.APC and lp.pooled
                and self.plan.config.pooling is PoolKind.MAX)

    def _bank(self, i: int, lp, w: np.ndarray):
        """The counting bank of layer ``i`` (``lp``)'s packed weights
        ``(C, n, nb)``.

        Native tier: a :class:`repro.native.ConvBank` (one SIMD lane per
        channel, gathering through the patch table in
        :func:`channel_minor_order`) for a fused conv stage, else a
        :class:`repro.native.WeightBank` in the kernels' counting layout.
        NumPy tier: the row-major ``(C, L, W)`` transposed bank and its
        last-input plane ``(C, L)``, transposed in ``TILE_BYTES`` chunks
        to bound the unpacked transient.
        """
        if self._fused_conv(lp):
            channels_in = (lp.n_inputs - 1) // (lp.kernel * lp.kernel)
            _, (in_h, in_w), _ = lp.geometry
            return native.conv_bank(
                w, self.length, self._tables[i],
                channel_minor_order(channels_in, in_h, in_w))
        if self.native_tier:
            return native.weight_bank(w, self.length)
        return (ops.transpose_pack(w, self.length,
                                   chunk_budget=self.TILE_BYTES),
                ops.unpack_bits(w[:, -1, :], self.length))

    @staticmethod
    def _biased_table(lp) -> np.ndarray:
        """Conv layer ``lp``'s read-only ``(P, n)`` patch table: the
        plan's ``patch_index`` plus a column of ``S``, the bias row."""
        channels_in = (lp.n_inputs - 1) // (lp.kernel * lp.kernel)
        _, (in_h, in_w), _ = lp.geometry
        P = lp.patch_index.shape[0]
        table = np.concatenate(
            [lp.patch_index, np.full((P, 1), channels_in * in_h * in_w)],
            axis=1)
        table.flags.writeable = False
        return table

    @staticmethod
    def _checked_segment(plan, segment: int = DEFAULT_SEGMENT) -> int:
        """Reject a max-pooling segment the stream length cannot carry.

        Runs before any stream is drawn, so a spec whose every forward
        would fail (``L % segment != 0``; MUX max pooling also needs a
        byte-aligned segment) never becomes an engine.
        """
        segment = check_positive_int(segment, "segment")
        if plan.config.pooling is not PoolKind.MAX:
            return segment
        pooled = [lp for lp in plan.layers if lp.op == "conv" and lp.pooled]
        if any(lp.kind is FEBKind.MUX for lp in pooled) and segment % 8:
            raise ValueError(
                f"segment length {segment} must be a multiple of 8")
        if pooled and plan.length % segment:
            raise ValueError(f"stream length {plan.length} must be a "
                             f"multiple of segment {segment}")
        return segment

    # ------------------------------------------------------------------
    # batching
    # ------------------------------------------------------------------
    def _max_batch(self) -> int:
        """How many images fit the count-tensor budget at once.

        Conv stages dominate whenever they exist (their count tensors
        carry a per-position axis); the dense estimate is what keeps
        conv-free stacks (the zoo's ``mlp``) memory-bounded too instead
        of running any request in one unbounded chunk.
        """
        per_image = 0
        for lp in self.plan.layers:
            width = (lp.n_inputs + 7) // 8
            width += (-width) % 4
            if lp.op == "conv":
                _, _, (conv_h, conv_w) = lp.geometry
                positions = conv_h * conv_w
                # counts + windowed copy (int16 each) + transposed bank
                per_image = max(per_image,
                                lp.units * positions * self.length * 2 * 2
                                + positions * self.length * width)
            else:
                # counts (int16) + transposed input bank, one row/image
                per_image = max(per_image,
                                lp.units * self.length * 2
                                + self.length * width)
        return max(1, self.BATCH_BUDGET // max(per_image, 1))

    def _validated(self, images: np.ndarray) -> np.ndarray:
        return as_image_batch(images, bipolar=True,
                              shape=self.plan.input_shape)

    def forward(self, images: np.ndarray) -> np.ndarray:
        """Simulate a batch; returns ``(B, 10)`` decoded logits.

        Logits estimate ``Σxw + b`` of the output layer scaled by ``1/n``
        — argmax-compatible with the float model.
        """
        flat = self._validated(images)
        with obs.span("engine.forward", backend=self.name,
                      batch=int(flat.shape[0]), length=self.length,
                      tier=self.tier):
            out = np.empty((flat.shape[0], self.plan.layers[-1].units))
            step = self._max_batch()
            for start in range(0, flat.shape[0], step):
                stop = min(start + step, flat.shape[0])
                out[start:stop] = self._forward_batch(flat[start:stop])
        return out

    def forward_independent(self, images: np.ndarray) -> np.ndarray:
        """Batched simulation with *per-request* stream state.

        Each image is compared against the comparator block and MUX
        selects cached from the post-construction state, so row ``i`` of
        the result is bit-identical to what a freshly-constructed backend
        with the same seed would return for ``images[i]`` alone — while
        the expensive layer execution still runs batched.  This is the
        contract the micro-batching service relies on: coalescing
        concurrent single-image requests into one call must not perturb
        any response.

        Unlike :meth:`forward`, this method draws nothing and mutates no
        state, so concurrent calls from multiple serving workers are safe
        on a shared backend.
        """
        flat = self._validated(images)
        with obs.span("engine.forward", backend=self.name,
                      batch=int(flat.shape[0]), length=self.length,
                      tier=self.tier, independent=True):
            out = np.empty((flat.shape[0], self.plan.layers[-1].units))
            step = self._max_batch()
            for start in range(0, flat.shape[0], step):
                stop = min(start + step, flat.shape[0])
                with obs.span("engine.encode", images=stop - start):
                    probs = to_probability(flat[start:stop],
                                           self.factory.encoding)
                    banks = ops.pack_bits(self.factory.sng.compare(
                        self._fresh_block, probs))      # (B, pixels, nb)
                out[start:stop] = self._run_layers(banks,
                                                   self._fresh_selects)
        return out

    # ------------------------------------------------------------------
    # stream-level building blocks
    # ------------------------------------------------------------------
    def _draw_selects(self, factories) -> dict:
        """Pre-draw MUX selects, one factory per image, stacked ``(B, L)``.

        The legacy lazy order (image-major, then layer-major: inner-product
        select before the pooling select) keeps batching bit-identical.
        """
        avg = self.plan.config.pooling is PoolKind.AVG
        draws = {}
        for factory in factories:
            for i, lp in enumerate(self.plan.layers):
                if lp.kind is not FEBKind.MUX or lp.final:
                    continue
                draws.setdefault(("ip", i), []).append(
                    factory.select_signal(lp.n_inputs, self.length))
                if lp.op == "conv" and lp.pooled and avg:
                    draws.setdefault(("pool", i), []).append(
                        factory.select_signal(4, self.length))
        return {key: np.stack(rows) for key, rows in draws.items()}

    #: target working-set bytes per counting tile — sized so the XOR +
    #: row-popcount hot loop stays inside the last-level cache (a naive
    #: batched loop over budget-sized slabs streams through DRAM and runs
    #: *slower* than the legacy per-image code; measured while building
    #: this backend).
    TILE_BYTES = 8 << 20

    def _apc_counts(self, i: int, x: np.ndarray) -> np.ndarray:
        """APC counts for every (channel, row) of layer ``i``: ``(C, R, L)``.

        ``x`` is the packed input bank ``(R, n, nbytes)``; see
        :func:`numpy_apc_counts` for the arithmetic.  The native tier
        fuses the transposition, XOR, row popcount and LSB patch into one
        cache-tiled pass over the bank.
        """
        if self.native_tier:
            return native.apc_inner_counts(x, self._banks[i],
                                           approximate=True)
        w_t, w_last = self._banks[i]
        return numpy_apc_counts(
            x, w_t, w_last, self.plan.layers[i].n_inputs, self.length,
            min(self.TILE_BYTES, self.CHUNK_BUDGET), self.CHUNK_BUDGET)

    def _biased(self, x: np.ndarray) -> np.ndarray:
        """The ``(B, S, nb)`` bank with the constant-1 bias stream as row S."""
        bias = np.broadcast_to(ops.pad_mask(self.length), x[:, :1].shape)
        return np.concatenate([x, bias], axis=1)

    # ------------------------------------------------------------------
    # layer execution
    # ------------------------------------------------------------------
    def _forward_batch(self, imgs: np.ndarray) -> np.ndarray:
        with obs.span("engine.encode", images=int(imgs.shape[0])):
            selects = self._draw_selects([self.factory] * len(imgs))
            if isinstance(self.factory.sng, IdealSNG):
                # One SNG call for the whole batch: numpy fills the
                # uniform block in C order, the same PRNG sequence as
                # per-image calls.
                x = self.factory.packed(imgs, self.length)  # (B, 784, nb)
            else:
                # Pooled-LFSR SNGs advance per *call* (slot rotation and
                # window offsets key on it), so batched encoding must
                # keep the legacy one-call-per-image sequence to stay
                # batch-size-invariant.
                x = np.stack([self.factory.packed(img, self.length)
                              for img in imgs])
        return self._run_layers(x, selects)

    def _run_layers(self, x: np.ndarray, selects) -> np.ndarray:
        """Execute the layer pipeline on an encoded ``(B, pixels, nb)`` bank.

        Each layer's wall time, span included, is observed into
        ``repro_engine_layer_seconds`` by layer and kernel tier.
        """
        for i, lp in enumerate(self.plan.layers):
            start = time.perf_counter()
            with obs.span("engine.layer", index=i, op=lp.op,
                          kind=lp.kind.value, units=lp.units):
                if lp.op == "conv":
                    x = self._conv_layer(i, lp, x, selects)
                else:
                    x = self._fc_layer(i, lp, x, selects)
            if obs.armed():
                obs.histogram(
                    "repro_engine_layer_seconds",
                    "Wall time of one engine layer over one batch, "
                    "by kernel tier.",
                    layer=i, op=lp.op, kind=lp.kind.value, tier=self.tier,
                ).observe(time.perf_counter() - start)
        return x

    def _conv_layer(self, i, lp, x, selects):
        """One conv(+pool)+activation stage on packed ``(B, S, nb)`` input.

        Returns the pooled/activated output streams ``(B, C·W, nb)`` in
        channel-major row-major order per image (``W`` is the pooled
        window count, or the full conv-position count for an unpooled
        stage).
        """
        B, _, nb = x.shape
        x = self._biased(x)                             # (B, S+1, nb)
        L = self.length
        windows = lp.pool_windows
        avg = self.plan.config.pooling is PoolKind.AVG
        table = self._tables[i]                         # (P, n)
        P = table.shape[0]

        if self._fused_conv(lp):
            # Native tier: the bank's gather plan, counting, max pool,
            # Btanh and pack run per pool window; no count tensor is
            # built, and the kernel writes image-major.
            return native.apc_conv_max_btanh_pack(
                x, self._banks[i], windows, self.segment,
                lp.n_states).reshape(B, -1, nb)         # (B, C·W, nb)
        if lp.kind is FEBKind.APC:
            patch = x[:, table]                         # (B, P, n, nb)
            counts = self._apc_counts(
                i, patch.reshape(B * P, lp.n_inputs, nb))
            counts = counts.reshape(lp.units, B, P, L)
            if lp.pooled:
                grouped = counts[:, :, windows, :]      # (C, B, W, 4, L)
                del counts
                if avg:
                    pooled = apc_average_pool(grouped)
                else:
                    pooled = apc_max_pool(grouped, self.segment)
                del grouped
            else:
                pooled = counts                         # (C, B, P, L)
            out_bits = activation.btanh_counts(pooled, lp.n_inputs,
                                               lp.n_states)
            out = ops.pack_bits(out_bits)               # (C, B, W, nb)
        else:
            # A MUX passes one input bit per cycle: a table of (output
            # row, choice) -> bank row composes the row each stream reads
            # per cycle.  Under average pooling a choice is (window
            # member, patch column), so pooling folds into the gather
            # and only the W pooled streams are computed.
            sel = selects["ip", i]                      # (B, L)
            choice = sel
            if lp.pooled and avg:
                table = table[windows].reshape(len(windows), -1)
                choice = sel + lp.n_inputs * selects["pool", i]
            elif lp.pooled:
                table = table[windows.reshape(-1)]      # (4W, n)
            rows = table.take(choice, axis=1).transpose(1, 0, 2)
            x_sel = ops.mux_select(x[:, None], rows, L)  # (B, R, nb)
            w_sel = ops.mux_select(self.weight_streams[i][:, None], sel,
                                   L)                   # (C, B, nb)
            ips = ops.xnor_(x_sel[None], w_sel[:, :, None], L)
            threshold = None
            if lp.pooled and not avg:
                ips = hardware_max_pool(
                    ips.reshape(lp.units, B, -1, 4, nb), L, self.segment)
                threshold = max(int(round(lp.n_states / 5.0)), 1)
            out = activation.stanh_packed(ips, L, lp.n_states,
                                          threshold=threshold)
        return np.ascontiguousarray(out.transpose(1, 0, 2, 3)).reshape(
            B, -1, out.shape[-1])

    def _fc_layer(self, i, lp, x, selects):
        """Fully-connected stage on ``(B, S, nb)``; final returns logits."""
        x = self._biased(x)                                 # (B, n, nb)
        L = self.length
        n = lp.n_inputs
        if lp.kind is FEBKind.APC or lp.final:
            if self.native_tier:
                # Counting, Btanh and pack (or the output layer's count
                # sums) in one call; no count tensor is built.
                if lp.final:
                    total = native.apc_fc_sums(x, self._banks[i])  # (B, C)
                    return (2.0 * total - n * L) / L
                return native.apc_fc_btanh_pack(
                    x, self._banks[i], lp.n_states)         # (B, C, nb)
            counts = self._apc_counts(i, x)                 # (C, B, L)
            if lp.final:
                total = counts.sum(axis=-1, dtype=np.int64)  # (C, B)
                return ((2.0 * total - n * L) / L).T
            bits = activation.btanh_counts(counts, n, lp.n_states)
            return np.ascontiguousarray(
                ops.pack_bits(bits).transpose(1, 0, 2))
        sel = selects["ip", i]                              # (B, L)
        x_sel = ops.mux_select(x, sel, L)                   # (B, nb)
        w_sel = ops.mux_select(self.weight_streams[i], sel[:, None],
                               L)                           # (B, C, nb)
        return activation.stanh_packed(ops.xnor_(x_sel[:, None], w_sel, L),
                                       L, lp.n_states)


def channel_minor_order(channels_in: int, in_h: int,
                        in_w: int) -> np.ndarray:
    """Image positions of a conv layer's biased input rows in
    channel-minor order: row ``(ch, y, x)`` goes to position
    ``(y·in_w + x)·channels_in + ch`` and the bias row (the last) stays
    last, so the ``kernel·channels_in`` inputs of one patch row are
    consecutive positions — the order the fused conv stage transposes
    each image in (:func:`repro.native.conv_bank`)."""
    pixels = in_h * in_w
    ch, pixel = np.divmod(np.arange(channels_in * pixels), pixels)
    return np.append(pixel * channels_in + ch, channels_in * pixels)


def numpy_apc_counts(x: np.ndarray, wT: np.ndarray, w_last: np.ndarray,
                     n: int, length: int,
                     tile_bytes: int = ExactBackend.TILE_BYTES,
                     chunk_budget: int = ExactBackend.CHUNK_BUDGET
                     ) -> np.ndarray:
    """APC counts of a packed bank against a weight bank, pure NumPy:
    ``(R, n, nbytes)`` × ``(C, L, W)`` → ``(C, R, L)`` int16.

    The oracle of the native ``apc_inner_counts`` and
    ``apc_conv_max_btanh_pack`` kernels.  Counting runs in the
    *transposed* domain: the bank is re-packed so each cycle's ``n``
    input bits form one short row (:func:`repro.sc.ops.transpose_pack`
    — one unpack/pack round trip amortized over all ``C`` output
    channels), and a cycle's product count becomes

        ``count = n - popcount(xT ^ wT)``

    since XNOR flips exactly the bits XOR sets and both banks' padding
    is zero.  Row popcounts run word-level
    (:func:`repro.sc.ops.popcount_sum`) — roughly 8× less traffic than
    unpacking every product bit and reducing over ``n``.

    The APC's LSB approximation (see :func:`repro.sc.adders.apc_count`:
    the output LSB is the exact LSB XOR-ed with the last input's product
    bit) is applied per column from the two banks' last-input bit planes
    (``w_last`` is the weights' ``(C, L)`` plane).  Work is tiled over
    (channels × rows) to ``tile_bytes``; tiling never changes results.
    """
    L = length
    R = x.shape[0]
    xT = ops.transpose_pack(x, L, chunk_budget=chunk_budget)  # (R, L, W)
    x_last = ops.unpack_bits(x[:, -1, :], L)            # (R, L)
    C = wT.shape[0]
    counts = np.empty((C, R, L), dtype=np.int16)
    one = np.int16(1)
    tile = max(1, tile_bytes // max(L * xT.shape[-1], 1))
    cstep = 1 if R >= tile else max(1, min(C, tile // R))
    rstep = min(R, tile)
    for c0 in range(0, C, cstep):
        c1 = min(c0 + cstep, C)
        for r0 in range(0, R, rstep):
            r1 = min(r0 + rstep, R)
            ham = ops.popcount_sum(
                xT[None, r0:r1] ^ wT[c0:c1, None], dtype=np.int16)
            exact = np.int16(n) - ham                   # (c, r, L)
            prod_last = (np.uint8(1) ^ x_last[None, r0:r1]
                         ^ w_last[c0:c1, None])
            counts[c0:c1, r0:r1] = ((exact & ~one)
                                    | ((exact ^ prod_last) & one))
    return counts
