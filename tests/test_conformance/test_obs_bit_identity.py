"""Observability is pure observation: arming it moves zero output bits.

The whole ``repro.obs`` contract rests on instrumentation reading
clocks and writing counters/JSON — never touching an RNG, never
branching on armed-ness in a way that changes compute.  This test
pins that: exact-backend logits with tracing and metrics armed —
including the per-layer ``repro_engine_layer_seconds`` timing — are
``np.array_equal`` to a fully disarmed run.
"""

import numpy as np
import pytest

from repro import obs
from repro.core.config import NetworkConfig, PoolKind
from repro.engine import Engine
from repro.obs import trace
from repro.obs.registry import set_armed

LENGTH = 64
N_IMAGES = 4


@pytest.fixture()
def images(small_dataset):
    from repro.data.synthetic_mnist import to_bipolar
    _, _, x_test, _ = small_dataset
    return to_bipolar(x_test)[:N_IMAGES].reshape(N_IMAGES, -1)


def _exact_logits(model, images):
    cfg = NetworkConfig.from_kinds(PoolKind.MAX, LENGTH,
                                   ("APC", "APC", "APC"))
    return Engine(model, cfg, backend="exact", seed=7).forward(images)


def test_exact_logits_identical_armed_vs_disarmed(tiny_trained_lenet,
                                                  images, tmp_path):
    # Disarmed baseline: no tracing, metrics frozen.
    set_armed(False)
    try:
        baseline = _exact_logits(tiny_trained_lenet, images)
    finally:
        set_armed(True)

    # Everything armed at once, into throwaway sinks.
    with obs.scoped_registry() as registry:
        trace.configure(str(tmp_path / "trace.jsonl"))
        try:
            armed = _exact_logits(tiny_trained_lenet, images)
        finally:
            trace.configure(None)

    assert np.array_equal(baseline, armed)
    # The armed run really did observe — both sinks are non-trivial.
    assert (tmp_path / "trace.jsonl").read_text().strip()
    assert "repro_engine_layer_seconds" in registry.snapshot()


def test_forward_independent_identical_armed_vs_disarmed(
        tiny_trained_lenet, images, tmp_path):
    """The per-request path (what serving uses) too."""
    cfg = NetworkConfig.from_kinds(PoolKind.MAX, LENGTH,
                                   ("MUX", "APC", "APC"))

    set_armed(False)
    try:
        engine = Engine(tiny_trained_lenet, cfg, backend="exact", seed=3)
        baseline = engine.backend.forward_independent(images)
    finally:
        set_armed(True)

    with obs.scoped_registry() as registry:
        trace.configure(str(tmp_path / "trace.jsonl"))
        try:
            engine = Engine(tiny_trained_lenet, cfg, backend="exact", seed=3)
            armed = engine.backend.forward_independent(images)
        finally:
            trace.configure(None)

    assert np.array_equal(baseline, armed)
    assert "repro_engine_layer_seconds" in registry.snapshot()
