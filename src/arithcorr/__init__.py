"""Arithmetic (2-adic) autocorrelation of binary m-sequences.

Three mathematically independent routes to the same quantity:
  - arith: direct 2-adic subtraction of sigma values
  - blocks: block-type counting of the two-row matrix
  - closedform: prediction from the basis expansion of (1 + pi^tau)^-1
"""

from .arith import arithmetic_autocorr, distribution
from .blocks import autocorr_via_blocks, block_type_counts
from .closedform import (
    lemma4_count,
    predict_acorr,
    predict_distribution,
    weighted_sum,
)
from .gf2m import find_primitive_polynomials, format_poly, make_field, parse_poly
from .sequences import BinarySequence, m_sequence

__all__ = [
    "BinarySequence",
    "arithmetic_autocorr",
    "autocorr_via_blocks",
    "block_type_counts",
    "distribution",
    "find_primitive_polynomials",
    "format_poly",
    "lemma4_count",
    "m_sequence",
    "make_field",
    "parse_poly",
    "predict_acorr",
    "predict_distribution",
    "weighted_sum",
]
