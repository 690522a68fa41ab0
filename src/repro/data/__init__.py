"""Synthetic MNIST-like dataset substrate.

The evaluation environment has no network access, so the MNIST images the
paper evaluates on are substituted with a procedurally generated
handwritten-digit lookalike: hand-designed stroke glyphs per digit class,
randomly perturbed with affine warps, elastic distortion, stroke-width
changes, blur and sensor noise (see DESIGN.md for the substitution
rationale).  Shapes and label semantics match MNIST exactly
(28×28 grayscale, 10 classes), so the entire SC pipeline downstream is
identical to the paper's.

Only the names a process uses are imported, on first access: the
engine reads :func:`to_bipolar` and :func:`cache_dir` and never loads
the generator, the trainer or scipy.
"""

import importlib

#: Each public name and the module that defines it.
_EXPORTS = {
    "DIGIT_GLYPHS": "repro.data.glyphs",
    "render_glyph": "repro.data.glyphs",
    "to_bipolar": "repro.data.images",
    "SyntheticMNIST": "repro.data.synthetic_mnist",
    "generate_dataset": "repro.data.synthetic_mnist",
    "SCENE_KINDS": "repro.data.scenes",
    "Scene": "repro.data.scenes",
    "SceneCell": "repro.data.scenes",
    "SceneGenerator": "repro.data.scenes",
    "cache_dir": "repro.data.cache",
    "get_dataset": "repro.data.cache",
    "get_trained_lenet": "repro.data.cache",
    "get_trained_model": "repro.data.cache",
    "TrainedModel": "repro.data.cache",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)
