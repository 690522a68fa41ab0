"""Pareto-dominance utilities and frontier export for DSE results.

The paper reads its Table 6 off the set of design points that survive
the accuracy budget; what actually matters downstream is the *Pareto
frontier* of those survivors — no point on it can be improved in one
metric without paying in another.  This module filters on any metric
tuple (default: error, area, power, energy), keeps the dominance
primitive reusable, and exports frontiers and per-combo halving
trajectories for offline analysis.

Conventions:

* all metrics are *minimized* (error %, mm², W, µJ);
* a point dominates another when it is no worse in every metric and
  strictly better in at least one — ties dominate nothing, so duplicate
  points are all kept (the frontier's metric-tuple *set* is invariant
  under input permutation and duplication, property-tested in
  ``tests/test_dse/test_frontier.py``).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

__all__ = [
    "DEFAULT_METRICS",
    "point_metrics",
    "dominates",
    "pareto_indices",
    "pareto_front",
    "frontier_rows",
    "export_frontier",
    "halving_trajectories",
]

#: The generalized DSE objective vector.  ``error_pct`` lives on the
#: design point itself; the rest on its :class:`~repro.hw.network_cost.
#: NetworkCost`.
DEFAULT_METRICS = ("error_pct", "area_mm2", "power_w", "energy_uj")


def point_metrics(point, metrics=DEFAULT_METRICS) -> tuple:
    """Extract a metric tuple from a ``DesignPoint``-shaped object.

    Each name is looked up on the point first, then on ``point.cost`` —
    so ``error_pct`` resolves to the accuracy metric and the hardware
    names to the cost roll-up.
    """
    values = []
    for name in metrics:
        if hasattr(point, name):
            values.append(float(getattr(point, name)))
        else:
            values.append(float(getattr(point.cost, name)))
    return tuple(values)


def dominates(a, b) -> bool:
    """True when metric tuple ``a`` Pareto-dominates ``b`` (minimize all).

    Requires ``a`` no worse than ``b`` everywhere and strictly better
    somewhere; equal tuples do not dominate each other.
    """
    if len(a) != len(b):
        raise ValueError(
            f"metric tuples must have equal length, got {len(a)} and {len(b)}")
    return all(x <= y for x, y in zip(a, b)) and any(
        x < y for x, y in zip(a, b))


def pareto_indices(rows) -> list:
    """Indices of the non-dominated rows of a metric-tuple sequence.

    Order-preserving: the returned indices are increasing, so callers
    can recover their original objects.  Duplicated rows are all
    non-dominated (ties never dominate).
    """
    rows = [tuple(float(v) for v in row) for row in rows]
    return [i for i, row in enumerate(rows)
            if not any(dominates(other, row) for other in rows)]


def pareto_front(points, metrics=DEFAULT_METRICS) -> list:
    """The non-dominated subset of ``points`` under ``metrics``.

    ``points`` are ``DesignPoint``-shaped objects (see
    :func:`point_metrics`); input order is preserved.
    """
    points = list(points)
    rows = [point_metrics(p, metrics) for p in points]
    return [points[i] for i in pareto_indices(rows)]


def frontier_rows(points, metrics=DEFAULT_METRICS) -> list:
    """Flat dict rows (config label + metrics) for export."""
    rows = []
    for point in points:
        row = {"config": point.config.describe(),
               "kinds": "-".join(l.ip_kind.value
                                 for l in point.config.layers),
               "pooling": point.config.pooling.value,
               "length": point.config.length,
               "degradation_pct": round(float(point.degradation_pct), 6)}
        for name, value in zip(metrics, point_metrics(point, metrics)):
            row[name] = round(value, 6)
        rows.append(row)
    return rows


def export_frontier(points, path, metrics=DEFAULT_METRICS,
                    trajectories: dict | None = None) -> Path:
    """Write the Pareto frontier of ``points`` as CSV or JSON.

    The format follows the file suffix (``.csv`` or ``.json``); JSON
    exports additionally carry the full passing set and, when given, the
    per-combo halving ``trajectories``
    (see :func:`halving_trajectories`).
    """
    path = Path(path)
    front = pareto_front(points, metrics)
    if path.suffix.lower() == ".csv":
        with path.open("w", newline="") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["config", "kinds", "pooling", "length",
                                "degradation_pct", *metrics])
            writer.writeheader()
            writer.writerows(frontier_rows(front, metrics))
        return path
    if path.suffix.lower() == ".json":
        payload = {
            "metrics": list(metrics),
            "frontier": frontier_rows(front, metrics),
            "passing": frontier_rows(points, metrics),
        }
        if trajectories is not None:
            payload["trajectories"] = trajectories
        path.write_text(json.dumps(payload, indent=2) + "\n")
        return path
    raise ValueError(
        f"unsupported export suffix {path.suffix!r}; use .csv or .json")


def halving_trajectories(records) -> dict:
    """Per-combo (length, error, outcome) paths down the halving loop.

    ``records`` are :class:`repro.dse.runner.DSERecord` entries; the
    result maps a combo label (``"MUX-APC-APC"``, suffixed with pooling
    and weight bits when a search spans several scenarios) to its
    trajectory, longest length first — the raw material of the paper's
    accuracy-vs-length trade-off curves.
    """
    paths = {}
    for rec in records:
        label = rec.scenario_label
        poisoned = getattr(rec, "poisoned", False)
        paths.setdefault(label, []).append({
            "length": rec.length,
            "stage": rec.stage,
            # Quarantined points never produced a number; export null.
            "error_pct": (None if poisoned
                          else round(float(rec.error_pct), 6)),
            "degradation_pct": (None if poisoned
                                else round(float(rec.degradation_pct), 6)),
            "outcome": ("poisoned" if poisoned
                        else ("promoted" if rec.passed else "screened-out")
                        if rec.stage == "screen"
                        else ("pass" if rec.passed else "fail")),
        })
    for path in paths.values():
        path.sort(key=lambda row: (-row["length"], row["stage"] != "screen"))
    return paths
