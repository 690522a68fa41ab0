"""Declarative SC-DCNN configurations (Table 6).

An SC-DCNN design is described by: the network-wide pooling strategy
(max or average), the bit-stream length ``L``, and the inner product
block kind (MUX or APC) of each *hidden* weight layer.  The output layer
is always APC-based (a MUX inner product over hundreds of inputs would
scale its output into the noise floor).  For the paper's LeNet-5 that
means three layer configs — Layer 0 (conv1+pool1), Layer 1 (conv2+pool2)
and Layer 2 (the 500-unit fully-connected layer) — but a configuration
may carry any depth: the engine validates the count against the model it
lowers (see :func:`repro.engine.graph.build_graph` and
:mod:`repro.nn.zoo`).

``TABLE6_CONFIGS`` reproduces the twelve configurations of Table 6,
together with the paper's reported numbers so harnesses can print
paper-vs-measured rows side by side.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib

from repro.utils.validation import check_stream_length

__all__ = [
    "FEBKind",
    "PoolKind",
    "LayerConfig",
    "NetworkConfig",
    "PaperRow",
    "TABLE6_CONFIGS",
    "resolve_pooling",
    "resolve_kinds",
    "config_digest",
]


class FEBKind(enum.Enum):
    """Inner-product block family of a layer's feature extraction blocks."""

    MUX = "MUX"
    APC = "APC"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class PoolKind(enum.Enum):
    """Network-wide pooling strategy."""

    AVG = "Average"
    MAX = "Max"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclasses.dataclass(frozen=True)
class LayerConfig:
    """Per-layer SC configuration.

    Attributes
    ----------
    ip_kind:
        MUX or APC inner products.
    n_states:
        Optional explicit activation state count (``None`` = use the
        paper's equations for the layer's input size / stream length).
    """

    ip_kind: FEBKind
    n_states: int = None

    def feb_key(self, pooling: "PoolKind") -> str:
        """The :func:`repro.core.feature_extraction.make_feb` kind key."""
        ip = "mux" if self.ip_kind is FEBKind.MUX else "apc"
        pool = "avg" if pooling is PoolKind.AVG else "max"
        return f"{ip}-{pool}"


@dataclasses.dataclass(frozen=True)
class NetworkConfig:
    """A complete SC-DCNN design point.

    Attributes
    ----------
    pooling:
        Network-wide pooling strategy (Table 6 groups configs by it).
    length:
        Bit-stream length ``L``.
    layers:
        Layer configurations for the hidden weight layers (``Layer0`` …;
        three entries for the paper's LeNet-5, any depth for zoo
        models — the output layer is always APC and carries no config).
    name:
        Optional label (e.g. ``"No.11"``).
    """

    pooling: PoolKind
    length: int
    layers: tuple
    name: str = ""

    def __post_init__(self):
        check_stream_length(self.length)
        if not self.layers:
            raise ValueError(
                "expected at least 1 layer config (one per hidden weight "
                "layer), got 0"
            )
        for layer in self.layers:
            if not isinstance(layer, LayerConfig):
                raise ValueError(f"layers must be LayerConfig, got {layer!r}")

    @classmethod
    def from_kinds(cls, pooling: PoolKind, length: int, kinds,
                   name: str = "") -> "NetworkConfig":
        """Build from a sequence like ``("MUX", "APC", "APC")``."""
        layers = tuple(LayerConfig(FEBKind(k)) for k in kinds)
        return cls(pooling=pooling, length=length, layers=layers, name=name)

    def describe(self) -> str:
        """Human-readable one-liner, e.g. ``Max/1024 MUX-MUX-APC``."""
        kinds = "-".join(layer.ip_kind.value for layer in self.layers)
        label = f"{self.name} " if self.name else ""
        return f"{label}{self.pooling.value}/{self.length} {kinds}"


def resolve_pooling(pooling) -> PoolKind:
    """Parse a pooling spec (``"max"``/``"avg"`` or a PoolKind).

    The shared parser for user-facing spec strings (the CLI and the
    serving layer's request fields).
    """
    if isinstance(pooling, PoolKind):
        return pooling
    try:
        return {"max": PoolKind.MAX, "avg": PoolKind.AVG,
                "average": PoolKind.AVG}[str(pooling).lower()]
    except KeyError:
        raise ValueError(
            f"unknown pooling {pooling!r}; use 'max' or 'avg'") from None


def resolve_kinds(kinds, n_layers: int = None) -> tuple:
    """Parse a FEB-kind spec (``"APC,APC,APC"`` or a sequence).

    ``n_layers`` pins the expected hidden-layer count (the served
    model's depth); ``None`` accepts any non-empty assignment.
    """
    if isinstance(kinds, str):
        kinds = [k.strip() for k in kinds.split(",")]
    kinds = tuple(str(k).upper() for k in kinds)
    if not kinds or not all(k in ("MUX", "APC") for k in kinds):
        raise ValueError(
            f"kinds must be MUX/APC entries, got {kinds!r}")
    if n_layers is not None and len(kinds) != n_layers:
        raise ValueError(
            f"kinds carries {len(kinds)} entries but the model has "
            f"{n_layers} hidden weight layers")
    return kinds


def config_digest(config: NetworkConfig) -> str:
    """Stable digest of a design point, excluding stream length and name.

    Two configurations that differ only in ``length`` (or the cosmetic
    ``name`` label) share a digest — that is what lets the serving pool
    re-target a cached plan via ``with_length`` instead of recompiling.
    The digest deliberately excludes the *model*: pair it with
    :func:`repro.nn.zoo.model_digest` wherever compiled artifacts are
    keyed.  DSE result-store keys embed it too, so its values must not
    change.
    """
    spec = (config.pooling.value,
            tuple((layer.ip_kind.value, layer.n_states)
                  for layer in config.layers))
    return hashlib.sha1(repr(spec).encode("utf8")).hexdigest()[:16]


@dataclasses.dataclass(frozen=True)
class PaperRow:
    """Paper-reported Table 6 metrics for one configuration."""

    inaccuracy_pct: float
    area_mm2: float
    power_w: float
    delay_ns: float
    energy_uj: float


def _cfg(no, pooling, length, kinds, inacc, area, power, delay, energy):
    config = NetworkConfig.from_kinds(pooling, length, kinds, name=f"No.{no}")
    return config, PaperRow(inacc, area, power, delay, energy)


#: The twelve Table 6 configurations, as ``(NetworkConfig, PaperRow)`` pairs.
TABLE6_CONFIGS = (
    _cfg(1, PoolKind.MAX, 1024, ("MUX", "MUX", "APC"), 2.64, 19.1, 1.74, 5120, 8.9),
    _cfg(2, PoolKind.MAX, 1024, ("MUX", "APC", "APC"), 2.23, 22.9, 2.13, 5120, 10.9),
    _cfg(3, PoolKind.MAX, 512, ("APC", "MUX", "APC"), 1.91, 32.7, 3.14, 2560, 8.0),
    _cfg(4, PoolKind.MAX, 512, ("APC", "APC", "APC"), 1.68, 36.4, 3.53, 2560, 9.0),
    _cfg(5, PoolKind.MAX, 256, ("APC", "MUX", "APC"), 2.13, 32.7, 3.14, 1280, 4.0),
    _cfg(6, PoolKind.MAX, 256, ("APC", "APC", "APC"), 1.74, 36.4, 3.53, 1280, 4.5),
    _cfg(7, PoolKind.AVG, 1024, ("MUX", "APC", "APC"), 3.06, 17.0, 1.53, 5120, 7.8),
    _cfg(8, PoolKind.AVG, 1024, ("APC", "APC", "APC"), 2.58, 22.1, 2.14, 5120, 11.0),
    _cfg(9, PoolKind.AVG, 512, ("MUX", "APC", "APC"), 3.16, 17.0, 1.53, 2560, 3.9),
    _cfg(10, PoolKind.AVG, 512, ("APC", "APC", "APC"), 2.65, 22.1, 2.14, 2560, 5.5),
    _cfg(11, PoolKind.AVG, 256, ("MUX", "APC", "APC"), 3.36, 17.0, 1.53, 1280, 2.0),
    _cfg(12, PoolKind.AVG, 256, ("APC", "APC", "APC"), 2.76, 22.1, 2.14, 1280, 2.7),
)
