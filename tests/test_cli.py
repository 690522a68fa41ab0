"""Smoke tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import EXPERIMENTS, main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table7" in out

    def test_experiment_registry_complete(self):
        for key in ("table1", "table2", "table5", "fig14", "fig15",
                    "table6", "table7"):
            assert key in EXPERIMENTS

    def test_table7_runs(self, capsys):
        assert main(["table7"]) == 0
        out = capsys.readouterr().out
        assert "SC-DCNN (No.11)" in out
        assert "Nvidia Tesla C2075" in out

    def test_table6_runs(self, capsys):
        assert main(["table6"]) == 0
        out = capsys.readouterr().out
        assert "No.12" in out

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table99"])
        assert excinfo.value.code != 0
        err = capsys.readouterr().err
        assert "table99" in err and "invalid choice" in err

    def test_list_shows_registered_backends(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("exact", "surrogate", "float", "noise"):
            assert name in out
        assert "serve" in out

    def test_list_shows_kernel_tier(self, capsys):
        import repro.native as native
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "kernel tier:" in out
        if native.available():
            assert "native" in out
        else:
            assert "numpy fallback" in out

    def test_kernel_tier_line_states(self):
        from repro.__main__ import _kernel_tier_line
        on = _kernel_tier_line({"available": True, "enabled": True,
                                "reason": None, "override": None,
                                "lib": "/x.so"})
        assert on.startswith("native")
        off = _kernel_tier_line({"available": False, "enabled": False,
                                 "reason": "no C compiler found",
                                 "override": None, "lib": None})
        assert "numpy fallback" in off and "no C compiler found" in off
        forced = _kernel_tier_line({"available": False, "enabled": False,
                                    "reason": "disabled by REPRO_NATIVE=0",
                                    "override": "0", "lib": None})
        assert "[REPRO_NATIVE=0]" in forced


class TestInferCli:
    def test_infer_exact_smoke(self, capsys):
        assert main(["infer", "--backend", "exact", "--batch", "4",
                     "--images", "4", "--length", "64",
                     "--train", "200", "--epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert "images/s" in out
        assert "error rate" in out
        assert "backend=exact" in out

    def test_infer_float_backend(self, capsys):
        assert main(["infer", "--backend", "float", "--batch", "8",
                     "--images", "16", "--length", "64",
                     "--train", "200", "--epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert "backend=float" in out

    def test_infer_rejects_unknown_backend(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["infer", "--backend", "warp"])
        assert excinfo.value.code != 0
        err = capsys.readouterr().err
        assert "unknown backend 'warp'" in err
        assert "exact" in err  # the message lists what IS registered

    def test_infer_listed(self, capsys):
        assert main(["list"]) == 0
        assert "infer" in capsys.readouterr().out

    def test_infer_zoo_model(self, capsys):
        """--model routes a non-LeNet zoo architecture through the
        engine (the conv-free MLP: the cheapest end-to-end path)."""
        assert main(["infer", "--model", "mlp", "--backend", "exact",
                     "--batch", "4", "--images", "4", "--length", "64",
                     "--train", "200", "--epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert "model=mlp" in out
        assert "Max/64 APC-APC" in out  # default kinds follow model depth

    def test_infer_rejects_unknown_model(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["infer", "--model", "resnet"])
        assert excinfo.value.code != 0
        assert "invalid choice" in capsys.readouterr().err

    def test_infer_rejects_kinds_depth_mismatch_before_training(self,
                                                                capsys):
        """A --kinds/--model depth mismatch exits cleanly without
        wasting the training run."""
        with pytest.raises(SystemExit) as excinfo:
            main(["infer", "--model", "mlp", "--kinds", "APC,APC,APC"])
        assert excinfo.value.code != 0
        captured = capsys.readouterr()
        assert "hidden weight layers" in captured.err
        assert "training" not in captured.out  # no quick model trained

    def test_list_shows_zoo(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("lenet5", "lenet_s", "mlp", "conv3"):
            assert name in out


class TestServeCli:
    def test_serve_rejects_unknown_backend(self, capsys):
        """The backend is validated before any model training starts."""
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--backend", "warp"])
        assert excinfo.value.code != 0
        err = capsys.readouterr().err
        assert "unknown backend 'warp'" in err

    def test_serve_help_documents_policy_flags(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--max-batch", "--max-wait-ms", "--workers",
                     "--max-engines", "--port"):
            assert flag in out


class TestDseCli:
    def test_dse_listed(self, capsys):
        assert main(["list"]) == 0
        assert "dse" in capsys.readouterr().out

    def test_resume_needs_store(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["dse", "--resume"])
        assert excinfo.value.code != 0
        assert "--store" in capsys.readouterr().err

    def test_bad_weight_bits_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["dse", "--weight-bits", "eight"])
        assert excinfo.value.code != 0
        assert "comma list of ints" in capsys.readouterr().err

    def test_unknown_model_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["dse", "--model", "resnet50"])
        assert excinfo.value.code != 0
        assert "invalid choice" in capsys.readouterr().err

    def test_dse_end_to_end_with_store_resume_export(self, capsys,
                                                     tmp_path):
        """A tiny search runs, persists, resumes and exports."""
        store = str(tmp_path / "search.jsonl")
        export = str(tmp_path / "frontier.csv")
        args = ["dse", "--model", "mlp", "--train", "150", "--epochs",
                "1", "--eval-images", "40", "--max-length", "64",
                "--min-length", "64", "--threshold", "100",
                "--store", store]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "Passing design points" in out
        assert "reused from store 0" in out
        assert "poisoned 0; retries 0;" in out

        assert main(args + ["--resume", "--export", export]) == 0
        out = capsys.readouterr().out
        assert "reused from store 2" in out  # both MLP combos reused
        assert "frontier exported" in out
        assert (tmp_path / "frontier.csv").read_text().startswith(
            "config,")

    def test_existing_store_without_resume_fails(self, capsys, tmp_path):
        """Fails fast — before any training — instead of clobbering."""
        store = tmp_path / "search.jsonl"
        store.write_text('{"kind": "header", "version": 1}\n')
        with pytest.raises(SystemExit) as excinfo:
            main(["dse", "--model", "mlp", "--train", "150", "--epochs",
                  "1", "--max-length", "64", "--min-length", "64",
                  "--store", str(store)])
        assert excinfo.value.code != 0
        err = capsys.readouterr().err
        assert "already exists" in err and "--resume" in err

    @pytest.mark.parametrize("flags, message", [
        (["--workers", "0"], "workers must be >= 1"),
        (["--retries", "-1"], "retries must be >= 0"),
        (["--eval-timeout", "0"], "eval_timeout_s must be > 0"),
        (["--eval-images", "0"], "eval_images must be >= 1"),
        (["--max-length", "32", "--min-length", "64"],
         "must be >= min_length"),
        (["--weight-bits", "0"], "weight bits must be >= 1"),
        (["--screen", "--screen-images", "0"], "images must be >= 1"),
    ])
    def test_invalid_search_settings_are_usage_errors(self, capsys,
                                                      tmp_path, flags,
                                                      message):
        """Bad settings exit 2 with one usage line, no traceback, and
        leave no store behind to block the corrected rerun."""
        store = tmp_path / "search.jsonl"
        with pytest.raises(SystemExit) as excinfo:
            main(["dse", "--model", "mlp", "--train", "150", "--epochs",
                  "1", "--max-length", "64", "--min-length", "64",
                  "--store", str(store), *flags])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not store.exists()

    def test_summary_reports_quarantined_points(self, capsys):
        """A search whose every point was quarantined must not read
        like one where nothing met the budget."""
        from repro import faults
        from repro.faults import FaultSpec
        with faults.armed(FaultSpec(site="dse.evaluate", action="raise",
                                    rate=1.0)):
            assert main(["dse", "--model", "mlp", "--train", "150",
                         "--epochs", "1", "--eval-images", "16",
                         "--max-length", "64", "--min-length", "64",
                         "--retries", "1"]) == 0
        out = capsys.readouterr().out
        assert "poisoned 2; retries 2;" in out

    def test_dse_help_documents_flags(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["dse", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--workers", "--screen", "--no-screen", "--resume",
                     "--store", "--margin", "--evaluator", "--export"):
            assert flag in out


class TestEngineErrorPaths:
    def test_weight_bits_alongside_plan_rejected(self, tiny_trained_lenet):
        """Engine(plan=..., weight_bits=...) must fail loudly: the plan
        already fixes the storage precision."""
        from repro.core.config import NetworkConfig, PoolKind
        from repro.engine import Engine, compile_plan

        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 32,
                                       ("APC", "APC", "APC"))
        plan = compile_plan(tiny_trained_lenet, cfg, weight_bits=7)
        with pytest.raises(ValueError, match="weight_bits cannot be "
                                             "combined"):
            Engine(plan=plan, weight_bits=7)
        # and without weight_bits the same plan is accepted
        assert Engine(plan=plan, backend="float") is not None

    def test_engine_requires_model_or_plan(self):
        from repro.engine import Engine
        with pytest.raises(ValueError, match="either"):
            Engine()
