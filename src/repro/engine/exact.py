"""Exact bit-level backend: batched SC simulation of the compiled plan.

The repository's one exact simulator; its logits are pinned by the
golden digest table in ``tests/test_conformance/golden_logits.json``.
The computation is organized around a batch axis so one call simulates
many images:

* all images of a batch are encoded with **one** SNG call when the SNG
  is the ideal PCG64 comparator — numpy fills the ``(B, 784, L)``
  uniform block in C order, which draws exactly the same PRNG sequence
  as ``B`` sequential per-image calls, so batching never perturbs the
  streams (pooled-LFSR SNGs advance per call, so they encode one image
  per call to keep the same invariant);
* MUX select signals are pre-drawn per image in the legacy
  image-major/layer-major order, then consumed by per-image MUX gathers
  inside otherwise batched layers;
* APC column counts run in the *transposed* domain (see
  :meth:`ExactBackend._apc_counts`): the input bank is re-packed once so
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
within ``batch_budget`` bytes; chunk boundaries never change results
(every stream's computation is independent).
"""

from __future__ import annotations

import numpy as np

import repro.native as native
from repro import obs
from repro.obs import kernels as _prof
from repro.blocks.pooling import (
    DEFAULT_SEGMENT,
    apc_average_pool,
    apc_max_pool,
    average_pool,
    hardware_max_pool,
)
from repro.core.config import FEBKind, PoolKind
from repro.engine.backends import register_backend
from repro.engine.engine import as_image_batch
from repro.sc import activation, ops
from repro.sc.encoding import Encoding
from repro.sc.rng import IdealSNG, StreamFactory

__all__ = ["ExactBackend"]


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
    chunk_budget:
        Upper bound (bytes) on any transient product/unpacked tensor in
        the APC counting path.
    sng:
        ``"ideal"`` (PCG64 comparator) or ``"lfsr"`` (pooled LFSR
        sequences served from the cached orbit tables of
        :mod:`repro.sc.lfsr`).
    batch_budget:
        Upper bound (bytes) on the per-batch APC count tensors; larger
        batches are split internally.
    """

    name = "exact"

    def __init__(self, plan, seed: int = 0, segment: int = DEFAULT_SEGMENT,
                 chunk_budget: int = 1 << 26, sng: str = "ideal",
                 batch_budget: int = 1 << 29):
        self.plan = plan
        self.length = plan.length
        self.segment = segment
        self.chunk_budget = int(chunk_budget)
        self.batch_budget = int(batch_budget)
        self.factory = StreamFactory(seed=seed, encoding=Encoding.BIPOLAR,
                                     sng=sng)
        self.weight_streams = [
            self.factory.packed(np.clip(lp.weights, -1.0, 1.0), self.length)
            for lp in plan.layers
        ]
        # Transposed weight banks for the counting layers (APC inner
        # products and the decoded output layer): per cycle, each unit's
        # n weight bits packed as one short row — built once, shared by
        # every batch.  MUX layers never count, so they skip it.
        self._weight_t = []
        self._weight_last = []
        for lp, w in zip(plan.layers, self.weight_streams):
            if lp.kind is FEBKind.APC or lp.final:
                self._weight_t.append(ops.transpose_pack(w, self.length))
                self._weight_last.append(
                    ops.unpack_bits(w[:, -1, :], self.length))
            else:
                self._weight_t.append(None)
                self._weight_last.append(None)
        # Post-construction stream state: weight streams are drawn, no
        # image has been encoded.  ``forward_independent`` forks this
        # snapshot once per request so every image of a coalesced batch
        # replays the exact draws a freshly-constructed backend (same
        # seed) would make for its first image.
        self._fresh_factory = self.factory.fork()

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
        return max(1, self.batch_budget // max(per_image, 1))

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
                      batch=int(flat.shape[0]), length=self.length):
            out = np.empty((flat.shape[0], self.plan.layers[-1].units))
            step = self._max_batch()
            for start in range(0, flat.shape[0], step):
                stop = min(start + step, flat.shape[0])
                out[start:stop] = self._forward_batch(flat[start:stop])
        return out

    def forward_independent(self, images: np.ndarray) -> np.ndarray:
        """Batched simulation with *per-request* stream state.

        Each image's streams (SNG uniforms and MUX selects) are drawn
        from a fork of the post-construction snapshot, so row ``i`` of
        the result is bit-identical to what a freshly-constructed backend
        with the same seed would return for ``images[i]`` alone — while
        the expensive layer execution still runs batched.  This is the
        contract the micro-batching service relies on: coalescing
        concurrent single-image requests into one call must not perturb
        any response.

        Unlike :meth:`forward`, this method never mutates the backend's
        own stream factory, so concurrent calls from multiple serving
        workers are safe on a shared backend.
        """
        flat = self._validated(images)
        with obs.span("engine.forward", backend=self.name,
                      batch=int(flat.shape[0]), length=self.length,
                      independent=True):
            out = np.empty((flat.shape[0], self.plan.layers[-1].units))
            step = self._max_batch()
            for start in range(0, flat.shape[0], step):
                stop = min(start + step, flat.shape[0])
                with obs.span("engine.encode", images=stop - start):
                    selects, banks = [], []
                    for img in flat[start:stop]:
                        factory = self._fresh_factory.fork()
                        selects.extend(self._draw_selects(1,
                                                          factory=factory))
                        banks.append(factory.packed(img, self.length))
                out[start:stop] = self._run_layers(np.stack(banks),
                                                   selects)
        return out

    # ------------------------------------------------------------------
    # stream-level building blocks
    # ------------------------------------------------------------------
    def _draw_selects(self, batch: int, factory: StreamFactory = None):
        """Pre-draw MUX select signals in the legacy per-image order.

        The legacy simulator drew selects lazily while walking one image
        through the layers; replaying that order (image-major, then
        layer-major: inner-product select before the pooling select)
        keeps batched execution bit-identical to sequential runs.
        """
        factory = self.factory if factory is None else factory
        avg = self.plan.config.pooling is PoolKind.AVG
        draws = []
        for _ in range(batch):
            per = {}
            for i, lp in enumerate(self.plan.layers):
                if lp.kind is not FEBKind.MUX or lp.final:
                    continue
                per["ip", i] = factory.select_signal(lp.n_inputs,
                                                     self.length)
                if lp.op == "conv" and lp.pooled and avg:
                    per["pool", i] = factory.select_signal(
                        4, self.length)
            draws.append(per)
        return draws

    def _ones(self, *shape) -> np.ndarray:
        """Broadcast view of the packed constant-1 (bias) stream."""
        mask = ops.pad_mask(self.length)
        return np.broadcast_to(mask, shape + (mask.shape[0],))

    #: target working-set bytes per counting tile — sized so the XOR +
    #: row-popcount hot loop stays inside the last-level cache (a naive
    #: batched loop over budget-sized slabs streams through DRAM and runs
    #: *slower* than the legacy per-image code; measured while building
    #: this backend).
    TILE_BYTES = 8 << 20

    def _apc_counts(self, i: int, x: np.ndarray) -> np.ndarray:
        """APC counts for every (channel, row) of layer ``i``: ``(C, R, L)``.

        ``x`` is the packed input bank ``(R, n, nbytes)``.  Counting runs
        in the *transposed* domain: the bank is re-packed so each cycle's
        ``n`` input bits form one short row (:func:`repro.sc.ops.
        transpose_pack` — one unpack/pack round trip amortized over all
        ``C`` output channels), and a cycle's product count becomes

            ``count = n - popcount(xT ^ wT)``

        since XNOR flips exactly the bits XOR sets and both banks'
        padding is zero.  Row popcounts run word-level
        (:func:`repro.sc.ops.popcount_sum`) — roughly 8× less traffic
        than unpacking every product bit and reducing over ``n``.

        The APC's LSB approximation (see :func:`repro.sc.adders.
        apc_count`: the output LSB is the exact LSB XOR-ed with the last
        input's product bit) is applied per column from the two banks'
        last-input bit planes — bit-identical to the legacy per-channel
        loop.  Work is tiled over (channels × rows) to ``TILE_BYTES``;
        tiling never changes results.
        """
        lp = self.plan.layers[i]
        wT = self._weight_t[i]
        n = lp.n_inputs
        L = self.length
        if native.enabled():
            # Native tier: transposition, XOR, row popcount and the LSB
            # patch fused into one cache-tiled pass over the bank.
            t0 = _prof.tick()
            counts = native.apc_inner_counts(x, wT, n, L, approximate=True)
            _prof.tock(t0, "apc_counts", "native")
            return counts
        t0 = _prof.tick()
        w_last = self._weight_last[i]
        R = x.shape[0]
        xT = ops.transpose_pack(x, L,
                                chunk_budget=self.chunk_budget)  # (R, L, W)
        x_last = ops.unpack_bits(x[:, -1, :], L)        # (R, L)
        C = wT.shape[0]
        counts = np.empty((C, R, L), dtype=np.int16)
        one = np.int16(1)
        tile = max(1, (min(self.TILE_BYTES, self.chunk_budget)
                       // max(L * xT.shape[-1], 1)))
        cstep = 1 if R >= tile else max(1, min(C, tile // R))
        rstep = min(R, tile)
        for c0 in range(0, C, cstep):
            c1 = min(c0 + cstep, C)
            for r0 in range(0, R, rstep):
                r1 = min(r0 + rstep, R)
                ham = ops.popcount_sum(
                    xT[None, r0:r1] ^ wT[c0:c1, None], dtype=np.int16)
                exact = np.int16(n) - ham               # (c, r, L)
                prod_last = (np.uint8(1) ^ x_last[None, r0:r1]
                             ^ w_last[c0:c1, None])
                counts[c0:c1, r0:r1] = ((exact & ~one)
                                        | ((exact ^ prod_last) & one))
        # The whole transposed-counting pass (its transpose_pack /
        # popcount_sum callees time themselves too, so subtracting them
        # from this line isolates the XOR + LSB-patch glue).
        _prof.tock(t0, "apc_counts", ops._NUMPY_TIER)
        return counts

    def _mux_ip_streams(self, x: np.ndarray, w_streams: np.ndarray,
                        select: np.ndarray) -> np.ndarray:
        """MUX inner-product streams for one image: ``(C, P, nbytes)``.

        Uses ``MUX(xnor(x, w)) = xnor(MUX(x), MUX(w))`` with the shared
        select signal, entirely in the packed domain.
        """
        x_sel = ops.mux_select(x, select, self.length)          # (P, nb)
        w_sel = ops.mux_select(w_streams, select, self.length)  # (C, nb)
        return ops.xnor_(x_sel[None, :, :], w_sel[:, None, :], self.length)

    # ------------------------------------------------------------------
    # layer execution
    # ------------------------------------------------------------------
    def _forward_batch(self, imgs: np.ndarray) -> np.ndarray:
        with obs.span("engine.encode", images=int(imgs.shape[0])):
            selects = self._draw_selects(imgs.shape[0])
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
        """Execute the layer pipeline on an encoded ``(B, pixels, nb)`` bank."""
        for i, lp in enumerate(self.plan.layers):
            with obs.span("engine.layer", index=i, op=lp.op,
                          kind=lp.kind.value, units=lp.units):
                if lp.op == "conv":
                    x = self._conv_layer(i, lp, x, selects)
                else:
                    x = self._fc_layer(i, lp, x, selects)
        return x

    def _conv_layer(self, i, lp, x, selects):
        """One conv(+pool)+activation stage on packed ``(B, S, nb)`` input.

        Returns the pooled/activated output streams ``(B, C·W, nb)`` in
        channel-major row-major order per image (``W`` is the pooled
        window count, or the full conv-position count for an unpooled
        stage).
        """
        B = x.shape[0]
        L = self.length
        patch = x[:, lp.patch_index]                    # (B, P, n-1, nb)
        P = patch.shape[1]
        patch = np.concatenate(
            [patch, self._ones(B, P, 1)], axis=2)       # (B, P, n, nb)
        windows = lp.pool_windows
        avg = self.plan.config.pooling is PoolKind.AVG
        w = self.weight_streams[i]

        if lp.kind is FEBKind.APC:
            counts = self._apc_counts(
                i, patch.reshape(B * P, lp.n_inputs, patch.shape[-1]))
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
            ips = np.empty((lp.units, B, P, patch.shape[-1]), dtype=np.uint8)
            for b in range(B):
                ips[:, b] = self._mux_ip_streams(patch[b], w,
                                                 selects[b]["ip", i])
            if lp.pooled:
                grouped = ips[:, :, windows, :]         # (C, B, W, 4, nb)
                del ips
                if avg:
                    pooled = np.empty(grouped.shape[:3] + grouped.shape[4:],
                                      dtype=np.uint8)
                    for b in range(B):
                        pooled[:, b] = average_pool(grouped[:, b],
                                                    selects[b]["pool", i], L)
                    threshold = None
                else:
                    pooled = hardware_max_pool(grouped, L, self.segment)
                    threshold = max(int(round(lp.n_states / 5.0)), 1)
                del grouped
            else:
                # No pooling block: the Stanh consumes the inner-product
                # stream directly (the FC-stage wiring, kept per position).
                pooled = ips
                threshold = None
            out = activation.stanh_packed(pooled, L, lp.n_states,
                                          threshold=threshold)
        return np.ascontiguousarray(out.transpose(1, 0, 2, 3)).reshape(
            B, -1, out.shape[-1])

    def _fc_layer(self, i, lp, x, selects):
        """Fully-connected stage on ``(B, S, nb)``; final returns logits."""
        B = x.shape[0]
        L = self.length
        xb = np.concatenate([x, self._ones(B, 1)], axis=1)  # (B, n, nb)
        w = self.weight_streams[i]
        n = lp.n_inputs
        if lp.kind is FEBKind.APC or lp.final:
            counts = self._apc_counts(i, xb)                # (C, B, L)
            if lp.final:
                total = counts.sum(axis=-1, dtype=np.int64)  # (C, B)
                return ((2.0 * total - n * L) / L).T
            bits = activation.btanh_counts(counts, n, lp.n_states)
            return np.ascontiguousarray(
                ops.pack_bits(bits).transpose(1, 0, 2))
        ips = np.empty((B, lp.units, xb.shape[-1]), dtype=np.uint8)
        for b in range(B):
            ips[b] = self._mux_ip_streams(xb[b][None, :, :], w,
                                          selects[b]["ip", i])[:, 0, :]
        return activation.stanh_packed(ips, L, lp.n_states)
