"""Exact-arithmetic workbench for trace-form linear codes over GF(p^m).

Codes are cut out by a defining set D: the codeword for x is the vector
of trace values Tr(x d) over d in D.  The package builds such codes,
computes weight distributions with one kernel (an exact hyperplane-count
transform for large sets, a direct gather for small ones, the gather
also serving as the oracle), checks closed-form predictions for several
families, and reports secret-sharing viability through minimal-codeword
counts read off the weight array.
"""

from .code import (
    CodeSummary,
    DefiningSet,
    WeightDistribution,
    build_code_weights,
    dual_distance,
    griesmer_check,
    macwilliams_dual,
    pless_moments_check,
    summarize,
    weight_distributions,
)
from .field import Field, get_field
from .secretshare import MinimalReport, RatioReport, minimal_codewords, ratio_check
from .spectra import WalshSpectrum, walsh_transform, weil_sum
from .theorems import TheoremReport, scan, scan_summary

__all__ = [
    "CodeSummary",
    "DefiningSet",
    "Field",
    "MinimalReport",
    "RatioReport",
    "TheoremReport",
    "WalshSpectrum",
    "WeightDistribution",
    "build_code_weights",
    "dual_distance",
    "get_field",
    "griesmer_check",
    "macwilliams_dual",
    "minimal_codewords",
    "pless_moments_check",
    "ratio_check",
    "scan",
    "scan_summary",
    "summarize",
    "walsh_transform",
    "weight_distributions",
    "weil_sum",
]

__version__ = "0.1.0"
