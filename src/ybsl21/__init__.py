"""Exact computer algebra for the rational sl(2|1) Yang-Baxter R-operator.

The package builds the superalgebra generators as differential operators on
graded polynomials, the Lax matrices, and the three elementary
parameter-exchange operators whose ordered product gives the full R-operator;
every identity is verified as an exact operator equation on degree-bounded
bases over the rationals.
"""

from .lax import SpectralTriple, build_lax, build_lax_factorized, check_rll
from .lowest import lowest_vector, sector_action, verify_lowest
from .opalg import Operator, equal_on_degree
from .report import CheckReport
from .rops import (ParamPair, build_full_R, build_r, build_rhat,
                   check_defining, check_factorization, check_ybe,
                   weight_shift)
from .sl21 import Weight, build_generators, casimir, check_relations
from .superpoly import Monomial, SuperPolynomial, enumerate_basis

__all__ = [
    "CheckReport", "Monomial", "Operator", "ParamPair", "SpectralTriple",
    "SuperPolynomial", "Weight", "build_full_R", "build_generators",
    "build_lax", "build_lax_factorized", "build_r", "build_rhat", "casimir",
    "check_defining", "check_factorization", "check_relations", "check_rll",
    "check_ybe", "enumerate_basis", "equal_on_degree", "lowest_vector",
    "sector_action", "verify_lowest", "weight_shift",
]

__version__ = "0.1.0"
