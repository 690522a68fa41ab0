"""Disk caching of datasets and trained models.

Training the LeNet-5 takes a couple of minutes; the benchmark harnesses
would otherwise re-train it per table.  Artifacts are cached under
:func:`cache_dir`, keyed by their generation parameters, and are plain
``.npz`` files.

The generator and the trainer are imported by the functions that run
them, so a process that only needs :func:`cache_dir` (a calibration
lookup) loads neither.
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path

import numpy as np

from repro.data.images import to_bipolar

__all__ = ["cache_dir", "get_dataset", "get_trained_model",
           "get_trained_lenet", "TrainedModel"]

#: Defaults sized so training finishes in a couple of minutes on a laptop
#: while reaching a few-percent software error rate.
DEFAULT_TRAIN = 6000
DEFAULT_TEST = 1500
DEFAULT_EPOCHS = 6


def cache_dir() -> Path:
    """The artifact cache directory (created on demand):
    ``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro-scdcnn``, else
    ``~/.cache/repro-scdcnn``."""
    root = os.environ.get("REPRO_CACHE_DIR")
    if root:
        path = Path(root)
    else:
        xdg = os.environ.get("XDG_CACHE_HOME")
        path = (Path(xdg) if xdg else Path.home() / ".cache") / "repro-scdcnn"
    path.mkdir(parents=True, exist_ok=True)
    return path


def get_dataset(n_train: int = DEFAULT_TRAIN, n_test: int = DEFAULT_TEST,
                seed: int = 0):
    """Load (or generate and cache) a synthetic dataset split.

    Returns ``(x_train, y_train, x_test, y_test)`` with images in [0, 1].
    """
    path = cache_dir() / f"dataset_{n_train}_{n_test}_{seed}.npz"
    if path.exists():
        data = np.load(path)
        return (data["x_train"], data["y_train"],
                data["x_test"], data["y_test"])
    from repro.data.synthetic_mnist import generate_dataset

    x_train, y_train, x_test, y_test = generate_dataset(n_train, n_test, seed)
    np.savez_compressed(path, x_train=x_train, y_train=y_train,
                        x_test=x_test, y_test=y_test)
    return x_train, y_train, x_test, y_test


@dataclasses.dataclass
class TrainedModel:
    """A trained model plus its dataset and software baseline error.

    Attributes
    ----------
    model:
        The trained :class:`repro.nn.module.Sequential`.
    pooling:
        ``"max"`` or ``"avg"``.
    x_test, y_test:
        Held-out test set (images in [0, 1]).
    software_error_pct:
        The float-software error rate in percent — the baseline the
        paper's 1.5% degradation threshold is measured against.
    model_name:
        The :mod:`repro.nn.zoo` architecture name.
    """

    model: object
    pooling: str
    x_test: np.ndarray
    y_test: np.ndarray
    software_error_pct: float
    model_name: str = "lenet5"

    def bipolar_test_images(self) -> np.ndarray:
        """Test images mapped to the SC input range [-1, 1]."""
        return to_bipolar(self.x_test)


def get_trained_model(model_name: str = "lenet5", pooling: str = "max",
                      seed: int = 0, n_train: int = DEFAULT_TRAIN,
                      n_test: int = DEFAULT_TEST,
                      epochs: int = DEFAULT_EPOCHS,
                      verbose: bool = False) -> TrainedModel:
    """Load (or train and cache) any :mod:`repro.nn.zoo` architecture.

    Models are trained on bipolar ([-1, 1]) inputs, matching what the SC
    hardware receives, and cached under a key that includes the zoo name
    (for ``"lenet5"`` the key is unchanged from the pre-zoo cache, so
    existing artifacts stay warm).
    """
    from repro.nn.trainer import Trainer, evaluate_error_rate
    from repro.nn.zoo import build_zoo_model, get_spec

    if pooling not in ("max", "avg"):
        raise ValueError(f"pooling must be 'max' or 'avg', got {pooling!r}")
    x_train, y_train, x_test, y_test = get_dataset(n_train, n_test, seed)
    model = build_zoo_model(model_name, pooling=pooling, seed=seed)
    key = f"{model_name}_{pooling}_{seed}_{n_train}_{n_test}_{epochs}"
    path = cache_dir() / f"{key}.npz"
    if path.exists():
        state = dict(np.load(path))
        model.load_state_dict(state)
    else:
        # This full-training path adds momentum + lr decay, which
        # tolerates less lr than the plain-SGD quick recipes, so the
        # zoo's per-architecture lr hint is capped at the historical
        # 0.05 (also what every cached lenet5 artifact was trained
        # with); the cap only ever lowers a spec's rate, e.g. mlp's
        # 0.02 passes through.
        lr = min(0.05, get_spec(model_name).lr)
        trainer = Trainer(model, lr=lr, momentum=0.9, lr_decay=0.85,
                          batch_size=64, seed=seed)
        trainer.fit(to_bipolar(x_train), y_train, epochs=epochs,
                    x_val=to_bipolar(x_test), y_val=y_test, verbose=verbose)
        np.savez_compressed(path, **model.state_dict())
    error = evaluate_error_rate(model, to_bipolar(x_test), y_test)
    return TrainedModel(model=model, pooling=pooling, x_test=x_test,
                        y_test=y_test, software_error_pct=error,
                        model_name=model_name)


def get_trained_lenet(pooling: str = "max", seed: int = 0,
                      n_train: int = DEFAULT_TRAIN, n_test: int = DEFAULT_TEST,
                      epochs: int = DEFAULT_EPOCHS,
                      verbose: bool = False) -> TrainedModel:
    """Load (or train and cache) the paper's LeNet-5 variant."""
    return get_trained_model("lenet5", pooling=pooling, seed=seed,
                             n_train=n_train, n_test=n_test, epochs=epochs,
                             verbose=verbose)
