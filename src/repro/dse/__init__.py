"""Design-space exploration: parallel, resumable search over SC designs.

The paper's headline contribution is *holistic* optimization — jointly
choosing each layer's inner-product block kind, the bit-stream length
and the weight storage precision under an accuracy budget, then reading
area / power / energy off the hardware model (Section 6.3, Table 6).
This package turns that procedure into a subsystem:

* :mod:`repro.dse.space` — an explicit :class:`SearchSpace` over
  (kinds-combo × pooling × weight_bits × length-halving schedule),
  derived from the lowered layer graph so every zoo model is searchable;
* :mod:`repro.dse.runner` — a :class:`ParallelRunner` that fans the
  evaluations of each halving round across a process pool, with
  deterministic per-point seeding so parallel results are bit-identical
  to sequential, and returns costed :class:`DesignPoint` results;
* :mod:`repro.dse.screen` — surrogate-backend pre-screening that skips
  the full-fidelity evaluation of candidates a cheap deterministic pass
  already places far beyond the accuracy budget;
* :mod:`repro.dse.store` — an append-only JSONL result store making
  interrupted searches resumable (``--resume`` re-evaluates nothing
  already recorded);
* :mod:`repro.dse.frontier` — generalized Pareto utilities on
  (error, area, power, energy) plus CSV/JSON export.

``ParallelRunner`` is the one implementation of the procedure.  Its
contract is pinned by golden digests of whole searches
(``tests/test_dse/golden_search.json``, untrained weights and the exact
evaluator, reproduced on every kernel tier) and by a property test of
the halving rules over stubbed evaluations.  ``python -m repro dse`` is
the command-line entry point.
"""

from repro.dse.frontier import (
    DEFAULT_METRICS,
    dominates,
    export_frontier,
    halving_trajectories,
    pareto_front,
    pareto_indices,
)
from repro.dse.runner import (
    DesignPoint,
    DSERecord,
    DSEResult,
    EvalTask,
    ParallelRunner,
)
from repro.dse.screen import ScreenPolicy
from repro.dse.space import Candidate, Scenario, SearchSpace
from repro.dse.store import ResultStore

__all__ = [
    "Candidate",
    "DEFAULT_METRICS",
    "DesignPoint",
    "DSERecord",
    "DSEResult",
    "EvalTask",
    "ParallelRunner",
    "ResultStore",
    "Scenario",
    "ScreenPolicy",
    "SearchSpace",
    "dominates",
    "export_frontier",
    "halving_trajectories",
    "pareto_front",
    "pareto_indices",
]
