"""Shared fixtures for the DSE conformance suite.

The equivalence tests need :class:`repro.data.cache.TrainedModel`
wrappers around the session-scoped quick-trained models; building them
once per module keeps the suite fast.
"""

import pytest

from repro.data.cache import TrainedModel
from repro.data.synthetic_mnist import to_bipolar
from repro.nn.trainer import evaluate_error_rate


def _wrap(model, small_dataset, model_name):
    _, _, x_test, y_test = small_dataset
    err = evaluate_error_rate(model, to_bipolar(x_test), y_test)
    return TrainedModel(model=model, pooling="max", x_test=x_test,
                        y_test=y_test, software_error_pct=err,
                        model_name=model_name)


@pytest.fixture(scope="package")
def trained_lenet(tiny_trained_lenet, small_dataset):
    """The briefly-trained LeNet-5 as a TrainedModel."""
    return _wrap(tiny_trained_lenet, small_dataset, "lenet5")


@pytest.fixture(scope="package")
def trained_mlp(zoo_trained, small_dataset):
    """The briefly-trained conv-free MLP as a TrainedModel."""
    return _wrap(zoo_trained["mlp"], small_dataset, "mlp")


@pytest.fixture(scope="package")
def lenet_mid_threshold(trained_lenet):
    """A threshold that genuinely prunes the tiny-LeNet space.

    Derived from the data instead of pinned: the midpoint of the
    first-round (L=128) degradation spread, so at least one combo
    survives and at least one is pruned regardless of the platform's
    numeric details.  Falls back to 100 (no pruning) in the degenerate
    all-equal case.
    """
    from repro.dse import ParallelRunner, SearchSpace
    space = SearchSpace.from_trained(trained_lenet, max_length=128,
                                     min_length=128)
    points = ParallelRunner(trained_lenet, space, threshold_pct=1e9,
                            eval_images=40, seed=0).run().passing
    degs = sorted(p.degradation_pct for p in points)
    if degs[0] == degs[-1]:  # pragma: no cover - degenerate
        return 100.0
    return (degs[0] + degs[-1]) / 2.0
