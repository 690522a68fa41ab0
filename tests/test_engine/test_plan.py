"""Tests for plan compilation: determinism, reuse, quantization."""

import numpy as np
import pytest

from repro.core.config import FEBKind, NetworkConfig, PoolKind
from repro.engine.graph import build_graph
from repro.engine.plan import (
    compile_plan,
    conv_patch_index,
    normalize_weight_bits,
    pool_window_indices,
)


def _cfg(kinds, length=128, pooling=PoolKind.MAX):
    return NetworkConfig.from_kinds(pooling, length, kinds)


class TestCompileDeterminism:
    def test_two_compilations_identical(self, tiny_trained_lenet):
        """Compilation uses no randomness: plans are bit-for-bit equal."""
        cfg = _cfg(("MUX", "APC", "APC"))
        a = compile_plan(tiny_trained_lenet, cfg, weight_bits=7)
        b = compile_plan(tiny_trained_lenet, cfg, weight_bits=7)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.dense_weights, lb.dense_weights)
            np.testing.assert_array_equal(la.raw_weights, lb.raw_weights)
            assert la.n_states == lb.n_states
            assert la.deficit == lb.deficit

    def test_accepts_prebuilt_graph(self, tiny_trained_lenet):
        cfg = _cfg(("APC", "APC", "APC"))
        graph = build_graph(tiny_trained_lenet, cfg)
        plan = compile_plan(graph)
        assert plan.config is cfg
        assert len(plan.layers) == 4

    def test_model_without_config_rejected(self, tiny_trained_lenet):
        with pytest.raises(ValueError, match="NetworkConfig"):
            compile_plan(tiny_trained_lenet)


class TestPlanContents:
    def test_exact_weights_fold_bias(self, tiny_trained_lenet):
        plan = compile_plan(tiny_trained_lenet, _cfg(("APC", "APC", "APC")))
        for lp in plan.layers:
            assert lp.weights.shape == (lp.units, lp.n_inputs)

    def test_quantization_grid(self, tiny_trained_lenet):
        plan = compile_plan(tiny_trained_lenet, _cfg(("APC", "APC", "APC")),
                            weight_bits=4)
        codes = (plan.layers[0].weights + 1.0) / 2.0 * 16
        np.testing.assert_allclose(codes, np.round(codes), atol=1e-9)

    def test_gain_deficits_cascade(self, tiny_trained_lenet):
        plan = compile_plan(tiny_trained_lenet, _cfg(("MUX", "APC", "APC")))
        assert len(plan.gain_deficits) == 4
        assert all(d >= 1.0 for d in plan.gain_deficits)

    def test_conv_indices_attached(self, tiny_trained_lenet):
        plan = compile_plan(tiny_trained_lenet, _cfg(("APC", "APC", "APC")))
        l0, l1, l2, l3 = plan.layers
        assert l0.patch_index.shape == (576, 25)
        assert l1.patch_index.shape == (64, 500)
        assert l0.pool_windows.shape == (144, 4)
        assert l2.patch_index is None

    def test_states_follow_paper_equations(self, tiny_trained_lenet):
        from repro.core.state_numbers import (
            btanh_states_apc_max,
            stanh_states_mux_max,
        )
        plan = compile_plan(tiny_trained_lenet, _cfg(("MUX", "APC", "APC")))
        assert plan.layers[0].n_states == stanh_states_mux_max(128, 26)
        assert plan.layers[1].n_states == btanh_states_apc_max(501)
        assert plan.layers[3].n_states == 2


class TestWithLength:
    def test_all_apc_layers_reused_outright(self, tiny_trained_lenet):
        """APC state numbers never involve L: the layer plans are shared."""
        plan = compile_plan(tiny_trained_lenet, _cfg(("APC", "APC", "APC"),
                                                     length=1024))
        short = plan.with_length(256)
        assert short.length == 256
        for a, b in zip(plan.layers, short.layers):
            assert a is b

    def test_mux_layers_recompiled(self, tiny_trained_lenet):
        plan = compile_plan(tiny_trained_lenet, _cfg(("MUX", "APC", "APC"),
                                                     length=1024))
        short = plan.with_length(64)
        assert short.layers[0] is not plan.layers[0]
        assert short.layers[0].n_states != plan.layers[0].n_states

    def test_raw_quantization_cached_across_lengths(self, tiny_trained_lenet):
        plan = compile_plan(tiny_trained_lenet, _cfg(("MUX", "APC", "APC"),
                                                     length=1024),
                            weight_bits=7)
        short = plan.with_length(64)
        for a, b in zip(plan.layers, short.layers):
            # raw (unscaled) quantization is length-independent: shared.
            assert a.raw_weights is b.raw_weights
            assert a.raw_bias is b.raw_bias

    def test_same_length_returns_self(self, tiny_trained_lenet):
        plan = compile_plan(tiny_trained_lenet, _cfg(("MUX", "APC", "APC")))
        assert plan.with_length(plan.length) is plan

    def test_retarget_matches_fresh_compile(self, tiny_trained_lenet):
        """Re-targeting must equal compiling at the new length directly."""
        cfg = _cfg(("MUX", "APC", "APC"), length=1024)
        retargeted = compile_plan(tiny_trained_lenet, cfg,
                                  weight_bits=7).with_length(128)
        fresh = compile_plan(tiny_trained_lenet,
                             _cfg(("MUX", "APC", "APC"), length=128),
                             weight_bits=7)
        for a, b in zip(retargeted.layers, fresh.layers):
            assert a.n_states == b.n_states
            np.testing.assert_array_equal(a.weights, b.weights)
            np.testing.assert_array_equal(a.dense_weights, b.dense_weights)


class TestSharedIndices:
    def test_pool_windows_cover_grid(self):
        win = pool_window_indices(6, 6)
        assert sorted(win.reshape(-1).tolist()) == list(range(144))

    def test_pool_windows_cached_and_readonly(self):
        a = pool_window_indices(4, 4)
        assert a is pool_window_indices(4, 4)
        assert not a.flags.writeable

    def test_patch_index_channel_major(self):
        idx = conv_patch_index(2, 8, 8, 5)
        assert idx.shape == (16, 50)
        # second channel's taps are offset by one channel plane (64)
        np.testing.assert_array_equal(idx[:, 25:], idx[:, :25] + 64)


class TestNormalizeWeightBits:
    def test_forms(self):
        assert normalize_weight_bits(None) == (None,) * 4
        assert normalize_weight_bits(7) == (7, 7, 7, 7)
        assert normalize_weight_bits((7, 7, 6)) == (7, 7, 6, 6)
        assert normalize_weight_bits((7, 7, 6, 5)) == (7, 7, 6, 5)

    def test_rejects_bad_tuple(self):
        with pytest.raises(ValueError, match="weight_bits"):
            normalize_weight_bits((7, 7))


class TestCachedThreadSafety:
    def test_concurrent_cached_calls_invoke_factory_once(
            self, tiny_trained_lenet):
        """Workers sharing a plan must not race the memoized artifacts."""
        import threading
        import time

        from repro.core.config import NetworkConfig, PoolKind

        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 32,
                                       ("APC", "APC", "APC"))
        plan = compile_plan(tiny_trained_lenet, cfg)
        calls = []
        results = [None] * 8
        barrier = threading.Barrier(8)

        def slow_factory():
            calls.append(threading.get_ident())
            time.sleep(0.02)  # widen the race window
            return object()

        def hit(i):
            barrier.wait()
            results[i] = plan.cached("artifact", slow_factory)

        threads = [threading.Thread(target=hit, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 1
        assert all(r is results[0] for r in results)

    def test_reentrant_factory_does_not_deadlock(self, tiny_trained_lenet):
        from repro.core.config import NetworkConfig, PoolKind

        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 32,
                                       ("APC", "APC", "APC"))
        plan = compile_plan(tiny_trained_lenet, cfg)
        value = plan.cached("outer",
                            lambda: plan.cached("inner", lambda: 41) + 1)
        assert value == 42

    def test_with_length_starts_fresh_derived_store(
            self, tiny_trained_lenet):
        """Re-targeted plans share weights but never derived artifacts."""
        from repro.core.config import NetworkConfig, PoolKind

        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 32,
                                       ("APC", "APC", "APC"))
        plan = compile_plan(tiny_trained_lenet, cfg)
        plan.cached("artifact", lambda: "at-32")
        retargeted = plan.with_length(64)
        assert retargeted.cached("artifact", lambda: "at-64") == "at-64"

