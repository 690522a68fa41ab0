"""SC-DCNN: stochastic-computing deep convolutional neural networks.

A full reproduction of *SC-DCNN: Highly-Scalable Deep Convolutional Neural
Network using Stochastic Computing* (Ren et al., ASPLOS 2017).

The package is organised bottom-up, mirroring the paper:

``repro.sc``
    The stochastic-computing substrate: bit-stream encodings, stochastic
    number generators (LFSR and ideal), packed bit-stream containers,
    logic-level arithmetic (AND/XNOR multipliers, OR/MUX/APC/two-line
    adders) and FSM/counter based activation functions (Stanh, Btanh).

``repro.blocks``
    DCNN *function blocks*: inner-product/convolution blocks, average and
    hardware-oriented max pooling blocks, and activation blocks.

``repro.core``
    The paper's primary contribution: the four jointly-optimized feature
    extraction blocks, state-number equations (1)-(3), the declarative
    network configurations and the holistic design-space optimizer of
    Section 6.3.

``repro.engine``
    Network-level SC inference: one ``Engine`` over a compiled layer
    plan, with the exact bit-level simulator, the calibrated surrogate,
    the paper-noise methodology and the float baseline as backends.

``repro.nn``
    A from-scratch numpy deep-learning substrate used to train the LeNet-5
    (784-11520-2880-3200-800-500-10) whose weights the SC engine consumes.

``repro.data``
    A synthetic MNIST-like handwritten-digit dataset (the environment has
    no network access; see DESIGN.md for the substitution rationale).

``repro.hw``
    Gate-level area/power/delay/energy cost models for the 45 nm node, an
    analytic SRAM model standing in for CACTI, and the network-level cost
    roll-up that regenerates Tables 6 and 7 and Figure 15.

``repro.storage``
    Weight-storage schemes of Section 5: low-precision weight quantization,
    layer-wise precision optimization and filter-aware SRAM sharing.

``repro.analysis``
    Measurement harnesses that regenerate every table and figure of the
    paper's evaluation (see EXPERIMENTS.md for the index).
The names below are imported on first access, so a process loads only
the subpackages it uses (``import repro.sc`` does not build the engine).
"""

import importlib

__version__ = "1.0.0"

#: Each top-level name and the module that defines it.
_EXPORTS = {
    "Bitstream": "repro.sc.bitstream",
    "Encoding": "repro.sc.encoding",
    "IdealSNG": "repro.sc.rng",
    "LfsrSNG": "repro.sc.rng",
    "StreamFactory": "repro.sc.rng",
    "FEBKind": "repro.core.config",
    "PoolKind": "repro.core.config",
    "LayerConfig": "repro.core.config",
    "NetworkConfig": "repro.core.config",
    "TABLE6_CONFIGS": "repro.core.config",
    "FeatureExtractionBlock": "repro.core.feature_extraction",
    "MuxAvgStanh": "repro.core.feature_extraction",
    "MuxMaxStanh": "repro.core.feature_extraction",
    "ApcAvgBtanh": "repro.core.feature_extraction",
    "ApcMaxBtanh": "repro.core.feature_extraction",
    "make_feb": "repro.core.feature_extraction",
    "Engine": "repro.engine",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)
