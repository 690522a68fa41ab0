"""Conformance suite for the parallel DSE runner.

The load-bearing guarantees:

* ``ParallelRunner`` at any worker count reproduces ``workers=1``
  **bit-identically** (same passing set, same errors, same frontier —
  dataclass equality, floats exact); ``golden_search.json`` pins the
  ``workers=1`` results themselves and ``test_search_properties.py`` the
  halving rules;
* interrupted searches resume to the same store contents and the same
  frontier as uninterrupted ones, each point evaluated exactly once;
* surrogate screening never drops a point the full evaluation would
  have passed (on the LeNet-5 space).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.config import NetworkConfig, PoolKind
from repro.dse import (
    DesignPoint,
    ParallelRunner,
    ResultStore,
    ScreenPolicy,
    SearchSpace,
)
from repro.dse.runner import EVAL_BATCH, EVALUATOR_SPECS
from repro.nn.zoo import model_digest


def _runner(trained, threshold, workers=1, max_length=128, min_length=64,
            **kwargs):
    space = SearchSpace.from_trained(trained, max_length=max_length,
                                     min_length=min_length)
    return ParallelRunner(trained, space, threshold_pct=threshold,
                          eval_images=40, seed=0, workers=workers,
                          **kwargs)


class TestEvaluatorSpecs:
    def test_specs_are_pinned(self):
        """The evaluator options and the batch size shape every result
        and enter every store key: changing them silently orphans
        stored searches."""
        assert EVALUATOR_SPECS == {
            "noise": ("noise", {"samples": 96}),
            "surrogate": ("surrogate", {"samples": 240}),
            "exact": ("exact", {}),
        }
        assert EVAL_BATCH == 256

    def test_unknown_evaluator_rejected(self, trained_lenet):
        with pytest.raises(ValueError, match="evaluator"):
            ParallelRunner(trained_lenet, evaluator="oracle")

    def test_bad_worker_count_rejected(self, trained_lenet):
        with pytest.raises(ValueError, match="workers"):
            ParallelRunner(trained_lenet, workers=0)

    @pytest.mark.parametrize("images", [0, -5])
    def test_non_positive_eval_images_rejected(self, trained_lenet, images):
        """0 used to evaluate an empty slice (NaN errors, every point
        silently failing); a negative count sliced from the end."""
        with pytest.raises(ValueError, match="eval_images"):
            ParallelRunner(trained_lenet, eval_images=images)


class TestLenetEquivalence:
    """workers=4 and workers=2 agree bit-for-bit with workers=1."""

    @pytest.fixture(scope="class")
    def serial(self, trained_lenet, lenet_mid_threshold):
        return _runner(trained_lenet, lenet_mid_threshold).run()

    def test_threshold_actually_prunes(self, serial):
        """The derived threshold keeps the comparison meaningful."""
        assert 0 < len(serial.passing) < 8

    @pytest.mark.parametrize("workers", [2, 4])
    def test_workers_bit_identical_to_workers1(
            self, trained_lenet, lenet_mid_threshold, serial, workers):
        result = _runner(trained_lenet, lenet_mid_threshold,
                         workers=workers).run()
        assert result.passing == serial.passing
        assert result.frontier == serial.frontier

    def test_frontier_subset_of_passing(self, serial):
        assert set(map(id, serial.frontier)) <= set(map(id,
                                                        serial.passing))


class TestMlpEquivalence:
    def test_workers_match_workers1(self, trained_mlp):
        serial = _runner(trained_mlp, 100.0).run()
        # every combo survives the generous budget, at both lengths
        assert {p.config.length for p in serial.passing} == {128, 64}
        assert len(serial.passing) == 4
        for point in serial.passing:
            assert isinstance(point, DesignPoint)
            assert len(point.config.layers) == 2
            assert point.cost.area_mm2 > 0 and point.cost.energy_uj > 0
            assert "err" in point.summary()
        assert _runner(trained_mlp, 100.0, workers=2).run().passing == \
            serial.passing


class TestPlanAndCost:
    def test_with_length_always_retargets_from_max_length(
            self, trained_lenet, monkeypatch):
        """Regression: a halving loop once overwrote its plan cache with
        each round's (shorter) re-target, so from the third round on a
        combo re-derived from a stale shorter plan instead of the
        canonical max-length compile.  Pin that every ``with_length``
        call starts from the max-length plan."""
        from repro.engine.plan import CompiledPlan
        sources = []
        original = CompiledPlan.with_length

        def spy(self, length, name=None):
            sources.append((self.config.length, length))
            return original(self, length, name=name)

        monkeypatch.setattr(CompiledPlan, "with_length", spy)
        space = SearchSpace.from_trained(trained_lenet, max_length=256,
                                         min_length=64)
        ParallelRunner(trained_lenet, space, threshold_pct=100.0,
                       eval_images=20, seed=0, workers=1).run()
        # three halving rounds (256, 128, 64) — all re-targets must
        # originate at 256
        assert {target for _, target in sources} == {256, 128, 64}
        assert all(source == 256 for source, _ in sources)

    def test_cost_matches_static_lenet_geometry(self, trained_lenet):
        """The graph-derived cost the runner uses must reproduce the
        static LENET_GEOMETRY roll-up exactly for LeNet-5."""
        from repro.hw.network_cost import lenet_network_cost
        space = SearchSpace.from_trained(trained_lenet, max_length=128,
                                         min_length=128)
        result = ParallelRunner(trained_lenet, space, threshold_pct=1e9,
                                eval_images=40, seed=0, workers=1).run()
        assert len(result.passing) == 4
        for point in result.passing:
            cfg = NetworkConfig.from_kinds(
                PoolKind.MAX, 128,
                tuple(layer.ip_kind.value for layer in point.config.layers))
            assert point.cost.row() == lenet_network_cost(
                cfg, weight_bits=8).row()


class TestLayering:
    def test_import_dse_loads_no_serving_module(self):
        """DSE workers import ``repro.dse``; the serving stack (server,
        proc pool, batcher) has no business in them."""
        code = ("import sys, repro.dse; "
                "print(sorted(m for m in sys.modules "
                "if m.startswith('repro.serve')))")
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=env).stdout
        assert out.strip() == "[]"


class TestExactEvaluator:
    """The runner can drive the bit-level simulator directly."""

    def test_exact_runs_and_is_deterministic(self, trained_mlp):
        def run(workers):
            space = SearchSpace.from_trained(trained_mlp, max_length=64,
                                             min_length=64)
            return ParallelRunner(trained_mlp, space, threshold_pct=1e9,
                                  eval_images=16, seed=0,
                                  evaluator="exact",
                                  workers=workers).run()
        first = run(1)
        assert len(first.passing) == 2  # both MLP combos, one round
        assert all(0.0 <= p.error_pct <= 100.0 for p in first.passing)
        assert run(2).passing == first.passing


class TestResume:
    def test_kill_and_resume_converges(self, trained_lenet,
                                       lenet_mid_threshold, tmp_path):
        digest = model_digest(trained_lenet.model)

        def fresh_store(path, resume=False):
            return ResultStore(path, model="lenet5", model_digest=digest,
                               evaluator="noise", eval_images=40, seed=0,
                               resume=resume)

        full_path = tmp_path / "full.jsonl"
        baseline = _runner(trained_lenet, lenet_mid_threshold,
                           store=fresh_store(full_path)).run()
        lines = full_path.read_text().splitlines()
        n_results = len(lines) - 1
        assert n_results == baseline.stats["full_evals"]

        # Simulate a search killed after k points — plus the torn line
        # a mid-write kill leaves behind.
        k = n_results // 2
        assert k >= 1
        part_path = tmp_path / "part.jsonl"
        part_path.write_text("\n".join(lines[:1 + k]) + "\n"
                             + '{"kind": "result", "key": "torn')
        store = fresh_store(part_path, resume=True)
        assert store.dropped_lines == 1
        result = _runner(trained_lenet, lenet_mid_threshold,
                         store=store).run()

        assert result.passing == baseline.passing
        assert result.frontier == baseline.frontier
        assert result.stats["reused"] == k
        assert result.stats["full_evals"] == n_results - k

        # The final store holds each point exactly once, and exactly
        # the uninterrupted run's point set.
        final = [json.loads(line)
                 for line in part_path.read_text().splitlines()]
        keys = [r["key"] for r in final if r.get("kind") == "result"]
        assert len(keys) == len(set(keys)) == n_results
        base_keys = [json.loads(line)["key"] for line in lines[1:]]
        assert set(keys) == set(base_keys)

    def test_resumed_run_with_same_store_reuses_everything(
            self, trained_lenet, lenet_mid_threshold, tmp_path):
        digest = model_digest(trained_lenet.model)
        path = tmp_path / "s.jsonl"
        store = ResultStore(path, model_digest=digest, evaluator="noise",
                            eval_images=40, seed=0)
        baseline = _runner(trained_lenet, lenet_mid_threshold,
                           store=store).run()
        again = _runner(
            trained_lenet, lenet_mid_threshold,
            store=ResultStore(path, model_digest=digest, resume=True),
        ).run()
        assert again.passing == baseline.passing
        assert again.stats["full_evals"] == 0
        assert again.stats["reused"] == baseline.stats["full_evals"]

    def test_fully_resumed_search_spawns_no_workers(
            self, trained_lenet, lenet_mid_threshold, tmp_path,
            monkeypatch):
        """A search satisfied entirely from the store must not pay for
        a process pool (or even an in-process plan cache)."""
        import repro.dse.runner as runner_mod
        digest = model_digest(trained_lenet.model)
        path = tmp_path / "s.jsonl"
        store = ResultStore(path, model_digest=digest, evaluator="noise",
                            eval_images=40, seed=0)
        baseline = _runner(trained_lenet, lenet_mid_threshold,
                           store=store).run()

        def boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("worker pool spawned on a fully-"
                                 "resumed search")

        monkeypatch.setattr(runner_mod, "ProcessPoolExecutor", boom)
        monkeypatch.setattr(runner_mod, "_EvalContext", boom)
        resumed = _runner(
            trained_lenet, lenet_mid_threshold, workers=2,
            store=ResultStore(path, model_digest=digest, resume=True),
        ).run()
        assert resumed.passing == baseline.passing

    def test_store_for_other_model_rejected(self, trained_lenet,
                                            tmp_path):
        store = ResultStore(tmp_path / "s.jsonl",
                            model_digest="not-this-model")
        with pytest.raises(ValueError, match="different model"):
            ParallelRunner(trained_lenet, store=store)


class TestScreening:
    def test_never_drops_a_passing_point(self, trained_lenet,
                                         lenet_mid_threshold):
        """With the default (conservative) policy, the screened
        search's passing set equals the unscreened one on the LeNet-5
        space — screening only ever skips points the full evaluation
        would have failed anyway."""
        plain = _runner(trained_lenet, lenet_mid_threshold).run()
        screened = _runner(trained_lenet, lenet_mid_threshold,
                           screen=True).run()
        assert screened.passing == plain.passing
        assert screened.frontier == plain.frontier
        # Honest accounting: every candidate was screened, and full
        # evaluations ran only for promoted candidates.
        screen_records = [r for r in screened.records
                          if r.stage == "screen"]
        full_records = [r for r in screened.records if r.stage == "full"]
        assert screened.stats["screen_evals"] == len(screen_records)
        assert screened.stats["screened_out"] == sum(
            not r.passed for r in screen_records)
        assert len(full_records) == sum(r.passed for r in screen_records)

    def test_hopeless_budget_screens_everything(self, trained_lenet):
        """With an unreachable budget and no margin, the screen rejects
        every candidate and the search never pays a full evaluation."""
        result = _runner(trained_lenet, -1000.0,
                         screen=ScreenPolicy(margin_pct=0.0)).run()
        assert result.passing == []
        assert result.stats["full_evals"] == 0
        assert result.stats["screened_out"] == 4  # every L=128 combo
        plain = _runner(trained_lenet, -1000.0).run()
        assert plain.passing == []  # screening changed nothing

    def test_screen_parallel_matches_sequential(self, trained_lenet,
                                                lenet_mid_threshold):
        seq = _runner(trained_lenet, lenet_mid_threshold,
                      screen=True).run()
        par = _runner(trained_lenet, lenet_mid_threshold, workers=2,
                      screen=True).run()
        assert par.passing == seq.passing
        assert par.stats["screened_out"] == seq.stats["screened_out"]

    def test_trajectories_cover_all_records(self, trained_lenet,
                                            lenet_mid_threshold):
        result = _runner(trained_lenet, lenet_mid_threshold,
                         screen=True).run()
        paths = result.trajectories()
        assert sum(len(p) for p in paths.values()) == len(result.records)
        assert all(label.endswith("|max/w8,8,8,8") for label in paths)


class TestScreenPolicy:
    @pytest.mark.parametrize("images", [0, -1])
    def test_non_positive_images_rejected(self, images):
        """``images=-1`` used to resolve to -1 and slice from the end."""
        with pytest.raises(ValueError, match="images"):
            ScreenPolicy(images=images)

    def test_default_images_quarter_floored(self):
        policy = ScreenPolicy()
        assert policy.resolve_images(400) == 100
        assert policy.resolve_images(64) == 32
        assert policy.resolve_images(16) == 16  # never above the full pass

    def test_explicit_images_capped(self):
        assert ScreenPolicy(images=500).resolve_images(400) == 400

    def test_backend_opts(self):
        assert ScreenPolicy().backend_opts() == {"noisy": False,
                                                 "samples": 60}
        assert ScreenPolicy(backend="float").backend_opts() == {}

    def test_promotes_margin_semantics(self):
        policy = ScreenPolicy(margin_pct=5.0)
        assert policy.promotes(6.4, threshold_pct=1.5)
        assert not policy.promotes(6.6, threshold_pct=1.5)

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="screen backend"):
            ScreenPolicy(backend="exact")

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError, match="margin"):
            ScreenPolicy(margin_pct=-1.0)
