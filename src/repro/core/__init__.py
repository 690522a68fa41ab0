"""SC-DCNN core: feature extraction blocks and configurations.

This subpackage is the paper's primary contribution:

* :mod:`repro.core.state_numbers` — the empirical state-number equations
  (1), (2) and (3) for Stanh/Btanh in each feature extraction block;
* :mod:`repro.core.feature_extraction` — the four jointly-optimized
  feature extraction blocks (Section 4.4);
* :mod:`repro.core.config` — declarative layer/network configurations,
  including the twelve Table 6 LeNet-5 designs.

The holistic optimization procedure of Section 6.3 lives in
:mod:`repro.dse` (``ParallelRunner``), whose contract is pinned by golden
search digests and a property test of the halving rules.
"""

from repro.core.state_numbers import (
    nearest_even,
    stanh_states_mux_avg,
    stanh_states_mux_max,
    btanh_states_apc_avg,
    btanh_states_apc_max,
)
from repro.core.feature_extraction import (
    FeatureExtractionBlock,
    MuxAvgStanh,
    MuxMaxStanh,
    ApcAvgBtanh,
    ApcMaxBtanh,
    make_feb,
    FEB_CLASSES,
)
from repro.core.config import (
    FEBKind,
    PoolKind,
    LayerConfig,
    NetworkConfig,
    TABLE6_CONFIGS,
)

__all__ = [
    "nearest_even",
    "stanh_states_mux_avg",
    "stanh_states_mux_max",
    "btanh_states_apc_avg",
    "btanh_states_apc_max",
    "FeatureExtractionBlock",
    "MuxAvgStanh",
    "MuxMaxStanh",
    "ApcAvgBtanh",
    "ApcMaxBtanh",
    "make_feb",
    "FEB_CLASSES",
    "FEBKind",
    "PoolKind",
    "LayerConfig",
    "NetworkConfig",
    "TABLE6_CONFIGS",
]
