"""Measurement harnesses behind every table and figure.

* :mod:`repro.analysis.metrics` — error metrics shared by all harnesses;
* :mod:`repro.analysis.block_error` — Monte-Carlo measurement of function
  blocks and feature extraction blocks (Tables 1-5, Figure 14);
* :mod:`repro.analysis.sensitivity` — layer-wise inaccuracy injection
  (Figure 16);
* :mod:`repro.analysis.tables` — plain-text table formatting and the
  paper's reference values for side-by-side printing.
"""

from repro.analysis.metrics import (
    mean_absolute_error,
    mean_relative_error,
    error_rate_pct,
)
from repro.analysis.block_error import (
    or_inner_product_error,
    mux_inner_product_error,
    apc_relative_error,
    maxpool_deviation,
    stanh_inaccuracy,
    feb_inaccuracy,
)
from repro.analysis.sensitivity import layer_noise_sensitivity
from repro.analysis.tables import format_table, PAPER
from repro.analysis import theory

__all__ = [
    "theory",
    "mean_absolute_error",
    "mean_relative_error",
    "error_rate_pct",
    "or_inner_product_error",
    "mux_inner_product_error",
    "apc_relative_error",
    "maxpool_deviation",
    "stanh_inaccuracy",
    "feb_inaccuracy",
    "layer_noise_sensitivity",
    "format_table",
    "PAPER",
]
