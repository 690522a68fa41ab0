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
"""

from repro.sc.bitstream import Bitstream
from repro.sc.encoding import Encoding
from repro.sc.rng import IdealSNG, LfsrSNG, StreamFactory
from repro.core.config import (
    FEBKind,
    PoolKind,
    LayerConfig,
    NetworkConfig,
    TABLE6_CONFIGS,
)
from repro.core.feature_extraction import (
    FeatureExtractionBlock,
    MuxAvgStanh,
    MuxMaxStanh,
    ApcAvgBtanh,
    ApcMaxBtanh,
    make_feb,
)
from repro.engine import Engine

__version__ = "1.0.0"

__all__ = [
    "Bitstream",
    "Encoding",
    "IdealSNG",
    "LfsrSNG",
    "StreamFactory",
    "FEBKind",
    "PoolKind",
    "LayerConfig",
    "NetworkConfig",
    "TABLE6_CONFIGS",
    "FeatureExtractionBlock",
    "MuxAvgStanh",
    "MuxMaxStanh",
    "ApcAvgBtanh",
    "ApcMaxBtanh",
    "make_feb",
    "Engine",
    "__version__",
]
