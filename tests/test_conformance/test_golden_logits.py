"""Golden digests of exact logits: the exact simulator's contract, as data.

Exact logits are a pure function of (model weights, config, weight bits,
stream length, seed, SNG, input).  Each row of :data:`ROWS` fixes one
such cell and ``golden_logits.json`` records the SHA-256 of the row's
float64 little-endian logits.  Both kernel tiers (native and NumPy)
and every NumPy build must reproduce the table bit for bit.

The inputs are chosen so nothing outside the simulator can move a bit:
untrained seed-0 zoo weights (trained weights come out of BLAS matmuls,
whose last bits differ across NumPy builds) and a seeded pool of images
with 8-bit-quantized pixels.

The table is regenerated only when the exact-logit contract is meant to
change::

    PYTHONPATH=src python tests/test_conformance/test_golden_logits.py
"""

import hashlib
import json
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from repro.core.config import NetworkConfig, resolve_pooling
from repro.engine import Engine
from repro.nn.zoo import build_zoo_model, default_kinds

GOLDEN = Path(__file__).with_name("golden_logits.json")
SEED = 3
N_IMAGES = 4


class Row(NamedTuple):
    model: str
    pooling: str
    kinds: tuple | None        # None: the model's all-APC default
    length: int
    sng: str = "ideal"
    bits: int | tuple | None = None
    mode: str = "forward"      # or "forward_independent"

    @property
    def id(self) -> str:
        kinds = "-".join(self.kinds or default_kinds(self.model))
        bits = ("none" if self.bits is None
                else "-".join(str(b) for b in np.atleast_1d(self.bits)))
        return (f"{self.model}/{self.pooling}/{kinds}/L{self.length}/"
                f"{self.sng}/bits-{bits}/{self.mode}")


APC3 = ("APC", "APC", "APC")
MUX_APC_APC = ("MUX", "APC", "APC")
APC_MUX_APC = ("APC", "MUX", "APC")
MUX_MUX_APC = ("MUX", "MUX", "APC")

ROWS = [
    # LeNet-5 cells the bit-identity tests compared against the
    # single-image simulator this table replaced
    Row("lenet5", "max", APC3, 128),
    Row("lenet5", "max", MUX_APC_APC, 64, bits=7),
    Row("lenet5", "max", APC_MUX_APC, 64),
    Row("lenet5", "avg", ("MUX", "MUX", "MUX"), 64),
    Row("lenet5", "avg", APC3, 64, bits=(7, 7, 6)),
    Row("lenet5", "avg", APC_MUX_APC, 128, bits=6),
    Row("lenet5", "max", MUX_APC_APC, 64),
    Row("lenet5", "avg", APC3, 64),
    # the remaining kind mix, lengths, the LFSR SNG and serving mode
    Row("lenet5", "max", MUX_MUX_APC, 32),
    Row("lenet5", "max", APC3, 32, sng="lfsr"),
    Row("lenet5", "max", APC3, 64, mode="forward_independent"),
    Row("lenet5", "avg", MUX_APC_APC, 32, sng="lfsr",
        mode="forward_independent"),
    # the other zoo models
    Row("lenet_s", "max", None, 64),
    Row("lenet_s", "avg", MUX_MUX_APC, 256, bits=(7, 7, 6)),
    Row("lenet_s", "avg", MUX_APC_APC, 128, sng="lfsr",
        mode="forward_independent"),
    Row("mlp", "avg", None, 32),
    Row("mlp", "max", None, 256, bits=7),
    Row("conv3", "max", ("APC", "APC", "MUX", "APC"), 64),
    Row("conv3", "avg", None, 128, sng="lfsr"),
    Row("conv3", "max", None, 32, mode="forward_independent"),
]


def golden_images() -> np.ndarray:
    """``(N_IMAGES, 784)`` bipolar images with 8-bit-quantized pixels."""
    rng = np.random.default_rng([SEED, 784])
    return rng.integers(0, 256, (N_IMAGES, 784)) / 127.5 - 1.0


def exact_logits(row: Row) -> np.ndarray:
    model = build_zoo_model(row.model, row.pooling, seed=0)
    config = NetworkConfig.from_kinds(resolve_pooling(row.pooling),
                                      row.length,
                                      row.kinds or default_kinds(row.model))
    engine = Engine(model, config, backend="exact", seed=SEED,
                    weight_bits=row.bits, sng=row.sng)
    if row.mode == "forward":
        return engine.forward(golden_images())
    return engine.backend.forward_independent(golden_images())


def logits_digest(logits: np.ndarray) -> str:
    data = np.ascontiguousarray(logits, dtype="<f8")
    return hashlib.sha256(data.tobytes()).hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf8"))


def test_table_lists_exactly_the_rows(golden):
    assert sorted(golden) == sorted(row.id for row in ROWS)


@pytest.mark.parametrize("row", [
    pytest.param(row, id=row.id,
                 marks=[pytest.mark.slow] if row.length >= 128 else [])
    for row in ROWS
])
def test_exact_logits_match_golden_digest(row, golden):
    assert logits_digest(exact_logits(row)) == golden[row.id]


if __name__ == "__main__":
    table = {row.id: logits_digest(exact_logits(row)) for row in ROWS}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                      encoding="utf8")
    print(f"wrote {len(table)} digests to {GOLDEN}")
