"""Golden digests of the halving search: the DSE runner's contract, as data.

A search is a pure function of (model weights, search space, threshold,
evaluator, evaluation images, seed).  Each row of :data:`ROWS` fixes one
such cell and ``golden_search.json`` records the SHA-256 of what the
search produced: every record's name, stage, error, outcome and cost
row, then the energy-sorted passing points.  Every kernel tier and every
NumPy build must reproduce the table bit for bit (``test_runner.py``
checks that worker counts agree with ``workers=1``).

The inputs are chosen so nothing outside the simulator can move a bit:
untrained seed-0 zoo weights, a seeded pool of images with 8-bit
pixels, the ``exact`` evaluator and a literal software baseline (the
float forward runs through BLAS, whose last bits differ across NumPy
builds).  The thresholds prune combos in both rounds, so the digests pin
the halving decisions as well as the numbers.

The table is regenerated only when the search contract is meant to
change::

    PYTHONPATH=src python tests/test_dse/test_golden_search.py
"""

import hashlib
import json
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from repro.data.cache import TrainedModel
from repro.dse import ParallelRunner, SearchSpace
from repro.nn.zoo import build_zoo_model

GOLDEN = Path(__file__).with_name("golden_search.json")
SEED = 3
N_IMAGES = 16
#: Chance-level error of an untrained 10-class model.
SOFTWARE_ERROR_PCT = 90.0


class Row(NamedTuple):
    model: str
    pooling: str
    threshold_pct: float
    max_length: int = 64
    min_length: int = 32

    @property
    def id(self) -> str:
        return (f"{self.model}/{self.pooling}/L{self.max_length}-"
                f"{self.min_length}/t{self.threshold_pct}")


ROWS = [
    Row("mlp", "max", 5.0),
    Row("lenet_s", "max", 0.0),
]


def golden_trained(model: str, pooling: str) -> TrainedModel:
    """Untrained seed-0 weights over seeded 8-bit images and labels."""
    rng = np.random.default_rng([SEED, 784])
    return TrainedModel(
        model=build_zoo_model(model, pooling, seed=0), pooling=pooling,
        x_test=rng.integers(0, 256, (N_IMAGES, 784)) / 255.0,
        y_test=rng.integers(0, 10, N_IMAGES),
        software_error_pct=SOFTWARE_ERROR_PCT, model_name=model)


def run_search(row: Row):
    trained = golden_trained(row.model, row.pooling)
    space = SearchSpace.from_trained(trained, max_length=row.max_length,
                                     min_length=row.min_length)
    return ParallelRunner(trained, space, threshold_pct=row.threshold_pct,
                          eval_images=N_IMAGES, seed=SEED,
                          evaluator="exact").run()


def search_digest(result) -> str:
    records = [[f"{r.combo_label}@{r.length}", r.stage, r.error_pct,
                r.passed, list(r.point.cost.row()) if r.point else None]
               for r in result.records]
    passing = [[p.config.name, p.error_pct, list(p.cost.row())]
               for p in result.passing]
    blob = json.dumps([records, passing]).encode("utf8")
    return hashlib.sha256(blob).hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf8"))


def test_table_lists_exactly_the_rows(golden):
    assert sorted(golden) == sorted(row.id for row in ROWS)


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_search_matches_golden_digest(row, golden):
    result = run_search(row)
    # The rows must exercise pruning, not just pass everything through.
    assert any(not r.passed for r in result.records)
    assert {p.config.length for p in result.passing} == {row.max_length,
                                                         row.min_length}
    assert search_digest(result) == golden[row.id]


if __name__ == "__main__":
    table = {row.id: search_digest(run_search(row)) for row in ROWS}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                      encoding="utf8")
    print(f"wrote {len(table)} digests to {GOLDEN}")
