"""Property tests for the generalized Pareto frontier (hypothesis)."""

import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse.frontier import (
    DEFAULT_METRICS,
    dominates,
    export_frontier,
    frontier_rows,
    halving_trajectories,
    pareto_front,
    pareto_indices,
    point_metrics,
)

#: The frontier without power, to show what the fourth metric adds.
THREE_METRICS = ("error_pct", "area_mm2", "energy_uj")

metric_value = st.floats(min_value=0.0, max_value=100.0,
                         allow_nan=False, allow_infinity=False)
metric_row = st.tuples(metric_value, metric_value, metric_value,
                       metric_value)
metric_rows = st.lists(metric_row, min_size=0, max_size=40)


class TestDominates:
    def test_strictly_better_everywhere(self):
        assert dominates((1, 1, 1), (2, 2, 2))

    def test_better_in_one_equal_elsewhere(self):
        assert dominates((1, 2, 2), (2, 2, 2))

    def test_equal_tuples_do_not_dominate(self):
        assert not dominates((2, 2), (2, 2))

    def test_tradeoff_does_not_dominate(self):
        assert not dominates((1, 3), (3, 1))
        assert not dominates((3, 1), (1, 3))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            dominates((1, 2), (1, 2, 3))


class TestParetoProperties:
    """The three frontier invariants, property-tested."""

    @settings(max_examples=200, deadline=None)
    @given(metric_rows)
    def test_no_frontier_point_dominated(self, rows):
        front = [rows[i] for i in pareto_indices(rows)]
        for point in front:
            assert not any(dominates(other, point) for other in rows)

    @settings(max_examples=200, deadline=None)
    @given(metric_rows)
    def test_every_non_frontier_point_dominated_by_frontier(self, rows):
        idx = set(pareto_indices(rows))
        front = [rows[i] for i in idx]
        for i, point in enumerate(rows):
            if i not in idx:
                assert any(dominates(f, point) for f in front)

    @settings(max_examples=200, deadline=None)
    @given(metric_rows, st.randoms(use_true_random=False))
    def test_invariant_under_permutation(self, rows, rng):
        shuffled = list(rows)
        rng.shuffle(shuffled)
        base = {rows[i] for i in pareto_indices(rows)}
        perm = {shuffled[i] for i in pareto_indices(shuffled)}
        assert base == perm

    @settings(max_examples=200, deadline=None)
    @given(metric_rows, st.integers(min_value=0, max_value=39))
    def test_invariant_under_duplication(self, rows, which):
        base = {rows[i] for i in pareto_indices(rows)}
        if not rows:
            assert base == set()
            return
        duplicated = rows + [rows[which % len(rows)]]
        dup = {duplicated[i] for i in pareto_indices(duplicated)}
        assert base == dup

    @settings(max_examples=100, deadline=None)
    @given(metric_rows)
    def test_frontier_of_frontier_is_itself(self, rows):
        front = [rows[i] for i in pareto_indices(rows)]
        assert [front[i] for i in pareto_indices(front)] == front

    def test_duplicates_all_kept(self):
        rows = [(1.0, 1.0, 1.0, 1.0)] * 3 + [(2.0, 2.0, 2.0, 2.0)]
        assert pareto_indices(rows) == [0, 1, 2]


def _stub_point(error, area, power, energy, name="p"):
    return SimpleNamespace(
        error_pct=error, degradation_pct=error - 1.0,
        cost=SimpleNamespace(area_mm2=area, power_w=power,
                             energy_uj=energy),
        config=SimpleNamespace(describe=lambda: name),
    )


class TestParetoFront:
    def test_point_metrics_resolution(self):
        p = _stub_point(2.0, 10.0, 1.0, 5.0)
        assert point_metrics(p) == (2.0, 10.0, 1.0, 5.0)
        assert point_metrics(p, THREE_METRICS) == (2.0, 10.0, 5.0)

    def test_power_only_dominance_needs_four_metrics(self):
        """A point worse only in power survives a 3-metric front
        without power but not the default 4-metric one."""
        a = _stub_point(1.0, 1.0, 1.0, 1.0)
        b = _stub_point(1.0, 1.0, 2.0, 1.0)
        assert pareto_front([a, b], metrics=THREE_METRICS) == [a, b]
        assert pareto_front([a, b], metrics=DEFAULT_METRICS) == [a]

    def test_order_preserved(self):
        pts = [_stub_point(3.0, 1.0, 1.0, 1.0),
               _stub_point(1.0, 3.0, 1.0, 1.0)]
        assert pareto_front(pts) == pts


class TestExport:
    @pytest.fixture()
    def points(self, trained_lenet):
        from repro.core.config import NetworkConfig, PoolKind
        from repro.dse import DesignPoint
        from repro.engine.graph import build_graph
        from repro.hw.network_cost import graph_network_cost
        pts = []
        for length, err in ((128, 3.0), (64, 5.0)):
            cfg = NetworkConfig.from_kinds(
                PoolKind.MAX, length, ("APC", "APC", "APC"),
                name=f"APC-APC-APC@{length}")
            cost = graph_network_cost(
                build_graph(trained_lenet.model, cfg), weight_bits=8)
            pts.append(DesignPoint(cfg, err, err - 1.0, cost))
        return pts

    def test_csv_export(self, points, tmp_path):
        path = export_frontier(points, tmp_path / "front.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("config,kinds,pooling,length")
        assert len(lines) == 1 + len(pareto_front(points))

    def test_json_export_with_trajectories(self, points, tmp_path):
        trajectories = {"APC-APC-APC|max/w8,8,8,8": [
            {"length": 128, "stage": "full", "error_pct": 3.0,
             "degradation_pct": 2.0, "outcome": "pass"}]}
        path = export_frontier(points, tmp_path / "front.json",
                               trajectories=trajectories)
        payload = json.loads(path.read_text())
        assert payload["metrics"] == list(DEFAULT_METRICS)
        assert payload["trajectories"] == trajectories
        assert len(payload["passing"]) == len(points)

    def test_unknown_suffix_rejected(self, points, tmp_path):
        with pytest.raises(ValueError, match="suffix"):
            export_frontier(points, tmp_path / "front.xml")

    def test_frontier_rows_shape(self, points):
        rows = frontier_rows(points)
        assert rows[0]["kinds"] == "APC-APC-APC"
        assert set(DEFAULT_METRICS) <= set(rows[0])


class TestTrajectories:
    def test_grouped_and_sorted(self):
        from repro.dse.runner import DSERecord
        recs = [
            DSERecord(("APC", "APC"), "max", (8, 8, 8), 64, "full",
                      10.0, 5.0, True, False),
            DSERecord(("APC", "APC"), "max", (8, 8, 8), 128, "full",
                      8.0, 3.0, True, False),
            DSERecord(("MUX", "APC"), "max", (8, 8, 8), 128, "screen",
                      50.0, 45.0, False, False),
        ]
        paths = halving_trajectories(recs)
        apc = paths["APC-APC|max/w8,8,8"]
        assert [row["length"] for row in apc] == [128, 64]
        mux = paths["MUX-APC|max/w8,8,8"]
        assert mux[0]["outcome"] == "screened-out"
