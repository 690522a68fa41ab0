"""The explicit SC-DCNN search space the DSE runner walks.

A search space is the cross product of four axes:

* **kinds combos** — one MUX/APC choice per hidden weight layer, the
  depth *derived from the lowered layer graph* of the trained model (so
  every :mod:`repro.nn.zoo` architecture is searchable, not just the
  paper's LeNet-5).  The last hidden layer defaults to APC-only, the
  paper's Table 6 restriction (a MUX inner product over the wide
  pre-logit stage scales its output into the noise floor);
* **pooling** — network-wide Max/Average pooling.  Defaults to the
  pooling the model was trained with; passing both lets the accuracy
  filter price the mismatch;
* **weight bits** — storage precisions to search (each normalized to a
  per-layer tuple, Section 5.3 semantics);
* **lengths** — the Section 6.3 halving schedule ``max_length,
  max_length/2, … ≥ min_length``.

The (pooling × weight_bits) cells are the space's *scenarios*: each
scenario runs the halving procedure independently over the kind combos,
and a combo that misses the accuracy budget is pruned from the rest of
its scenario's schedule — so :meth:`SearchSpace.size` is an upper bound
on evaluations, which the runner reports against honestly.
"""

from __future__ import annotations

import dataclasses
import itertools

from repro.core.config import NetworkConfig, PoolKind, resolve_pooling
from repro.engine.graph import build_graph
from repro.engine.plan import normalize_weight_bits
from repro.utils.validation import check_positive_int

__all__ = ["Candidate", "Scenario", "SearchSpace", "halving_lengths"]

KIND_CHOICES = ("MUX", "APC")


def _pooling_str(pooling) -> str:
    """Canonical ``"max"``/``"avg"`` form of any pooling spec."""
    return "max" if resolve_pooling(pooling) is PoolKind.MAX else "avg"


def halving_lengths(max_length: int, min_length: int) -> tuple:
    """The halving schedule ``max_length, max_length/2, … ≥ min_length``."""
    check_positive_int(max_length, "max_length")
    check_positive_int(min_length, "min_length")
    if max_length < min_length:
        raise ValueError(
            f"max_length ({max_length}) must be >= min_length "
            f"({min_length})")
    lengths = []
    length = max_length
    while length >= min_length:
        lengths.append(length)
        length //= 2
    return tuple(lengths)


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One (pooling, weight_bits) cell of the search space."""

    pooling: str       # "max" | "avg"
    weight_bits: tuple  # normalized per-layer tuple (entries int or None)

    def label(self) -> str:
        bits = ",".join("f" if b is None else str(b)
                        for b in self.weight_bits)
        return f"{self.pooling}/w{bits}"


@dataclasses.dataclass(frozen=True)
class Candidate:
    """One fully-specified evaluation point of the space."""

    kinds: tuple       # e.g. ("MUX", "APC", "APC")
    pooling: str
    weight_bits: tuple
    length: int
    seed: int

    @property
    def combo_label(self) -> str:
        return "-".join(self.kinds)

    @property
    def scenario(self) -> Scenario:
        return Scenario(self.pooling, self.weight_bits)

    def config(self) -> NetworkConfig:
        """The :class:`NetworkConfig` this candidate evaluates.

        Named ``"{combo}@{length}"`` (e.g. ``"MUX-APC-APC@1024"``); the
        golden search digests pin names along with the numbers.
        """
        return NetworkConfig.from_kinds(
            resolve_pooling(self.pooling), self.length, self.kinds,
            name=f"{self.combo_label}@{self.length}")


class SearchSpace:
    """The candidate axes of one design-space exploration.

    Parameters
    ----------
    model:
        The trained :class:`repro.nn.module.Sequential`.  The hidden
        FEB-layer count is derived by lowering the model into the layer
        graph, so any architecture the engine can lower is searchable.
    poolings:
        Pooling axis (``"max"``/``"avg"`` entries).
    weight_bits:
        Weight-precision axis; each entry is an int, a per-layer tuple,
        or ``None`` (float storage), normalized per the model's depth.
    max_length / min_length:
        Halving-schedule bounds (Section 6.3 walks 1024 → 64).
    restrict_last_to_apc:
        Pin the last hidden layer to APC (the paper's Table 6 rule).
    """

    def __init__(self, model, *, poolings=("max",), weight_bits=(8,),
                 max_length: int = 1024, min_length: int = 64,
                 restrict_last_to_apc: bool = True):
        self.model = model
        # Derive the searchable depth from the lowered graph: lower a
        # probe config at the maximal depth the zoo reports, then count
        # the graph's weight layers.  Lowering also validates the stack
        # up front, so a structurally broken model fails here and not
        # inside a worker process.
        from repro.nn.zoo import hidden_layer_count
        probe = NetworkConfig.from_kinds(
            resolve_pooling(poolings[0]), max_length,
            ("APC",) * hidden_layer_count(model), name="space-probe")
        graph = build_graph(model, probe)
        self.hidden_layers = len(graph.nodes) - 1
        self.n_weight_layers = len(graph.nodes)
        self.poolings = tuple(_pooling_str(p) for p in poolings)
        options = (weight_bits if isinstance(weight_bits, (tuple, list))
                   else (weight_bits,))
        normalized = [normalize_weight_bits(b, n_layers=self.n_weight_layers)
                      for b in options]
        for bits in normalized:
            if any(b is None for b in bits):
                # The simulator can run float-stored weights, but the
                # hardware roll-up cannot price float storage — and a
                # search without costs has no frontier.
                raise ValueError(
                    "weight_bits=None (float storage) cannot be costed "
                    "by the hardware model; search explicit bit widths")
            if any(b < 1 for b in bits):
                raise ValueError(
                    f"weight bits must be >= 1, got {bits}")
        # De-duplicate post-normalization (an int and its expanded tuple
        # describe the same storage scheme) while preserving order.
        self.weight_bits = tuple(dict.fromkeys(normalized))
        self.max_length = int(max_length)
        self.min_length = int(min_length)
        self.restrict_last_to_apc = bool(restrict_last_to_apc)
        self._lengths = halving_lengths(self.max_length, self.min_length)

    # ------------------------------------------------------------------
    @classmethod
    def from_trained(cls, trained, *, weight_bits=(8,),
                     max_length: int = 1024, min_length: int = 64,
                     restrict_last_to_apc: bool = True) -> "SearchSpace":
        """The paper's space for ``trained``.

        Pooling is pinned to the pooling the model was trained with (the
        paper trains one model per pooling strategy).
        """
        return cls(trained.model, poolings=(trained.pooling,),
                   weight_bits=weight_bits, max_length=max_length,
                   min_length=min_length,
                   restrict_last_to_apc=restrict_last_to_apc)

    def combos(self) -> list:
        """Kind combos, ``itertools.product`` order (MUX before APC)."""
        last = (("APC",) if self.restrict_last_to_apc else KIND_CHOICES)
        return [combo for combo in itertools.product(
            *([KIND_CHOICES] * (self.hidden_layers - 1) + [last]))]

    def lengths(self) -> tuple:
        """The halving schedule, longest first."""
        return self._lengths

    def scenarios(self) -> list:
        """(pooling × weight_bits) cells, pooling-major."""
        return [Scenario(p, b) for p in self.poolings
                for b in self.weight_bits]

    @property
    def size(self) -> int:
        """Upper bound on evaluation points (halving prunes below it)."""
        return (len(self.combos()) * len(self.scenarios())
                * len(self._lengths))

    def describe(self) -> str:
        return (f"{len(self.combos())} combos x {len(self.scenarios())} "
                f"scenario(s) x lengths {'-'.join(map(str, self._lengths))} "
                f"(<= {self.size} points)")
