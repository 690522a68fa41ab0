"""Tests for the metrics and table formatting."""

import numpy as np
import pytest

from repro.analysis.metrics import (
    error_rate_pct,
    mean_absolute_error,
    mean_relative_error,
)
from repro.analysis.tables import PAPER, format_table


class TestMetrics:
    def test_mae(self):
        assert mean_absolute_error([1.0, 2.0], [0.0, 0.0]) == 1.5

    def test_relative_error_floor(self):
        # near-zero references excluded
        est = [1.0, 0.001]
        ref = [2.0, 0.0001]
        assert mean_relative_error(est, ref) == pytest.approx(0.5)

    def test_relative_error_all_below_floor(self):
        with pytest.raises(ValueError, match="floor"):
            mean_relative_error([0.1], [0.0001])

    def test_error_rate(self):
        assert error_rate_pct([1, 2, 3, 4], [1, 2, 0, 0]) == 50.0

    def test_error_rate_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            error_rate_pct([1], [1, 2])


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_title(self):
        text = format_table(["x"], [["1"]], title="Table 1")
        assert text.startswith("Table 1")

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError, match="cells"):
            format_table(["a", "b"], [["1"]])


class TestPaperConstants:
    def test_all_experiments_present(self):
        for key in ("table1", "table2", "table3", "table4", "table5",
                    "weight_storage", "baselines", "table7"):
            assert key in PAPER

    def test_table2_shape(self):
        """Paper's Table 2 errors grow with n, shrink with L."""
        t2 = PAPER["table2"]
        assert t2[(64, 512)] > t2[(16, 512)]
        assert t2[(16, 4096)] < t2[(16, 512)]

    def test_table7_no11(self):
        assert PAPER["table7"]["No.11"]["area_mm2"] == 17.0

