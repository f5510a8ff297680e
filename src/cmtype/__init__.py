"""Exact Cohen-Macaulay type computations for numerical semigroup rings.

Two interchangeable ideal engines (monomial exponent sets and row-reduced
coefficient windows over Q or F_p) feed the type formulas for idealization
rings, the closed/trace/residually-faithful/Ulrich classifications, and the
explicit families from the underlying classification results.
"""

from .constructions import (
    blowup_ring,
    dual_family_ideal,
    enumerate_monomial_ideals,
    med_family_ideal,
    pf_family_ideal,
    sup_search,
)
from .errors import (
    ArgumentError,
    CmtypeError,
    ConsistencyError,
    ContainmentError,
    DimensionError,
    ParseError,
    ResourceLimitError,
)
from .fracideal import FractionalIdeal
from .linalg import GF, QQ, CoeffMatrix, FieldSpec, intersect, member, reduce_echelon
from .relideal import RelativeIdeal
from .semigroup import NumericalSemigroup
from .series import TruncatedSeries, parse_generators, parse_series
from .typecalc import (
    classify,
    cokernel_formula,
    idealization_type,
    is_closed,
    is_residually_faithful,
    is_trace,
    is_ulrich_ideal,
    is_ulrich_module_wrt,
    module_type,
    quotient_type,
    socle_formula,
)

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "CmtypeError",
    "CoeffMatrix",
    "ConsistencyError",
    "ContainmentError",
    "DimensionError",
    "FieldSpec",
    "FractionalIdeal",
    "GF",
    "NumericalSemigroup",
    "ParseError",
    "QQ",
    "RelativeIdeal",
    "ResourceLimitError",
    "TruncatedSeries",
    "blowup_ring",
    "classify",
    "cokernel_formula",
    "dual_family_ideal",
    "enumerate_monomial_ideals",
    "idealization_type",
    "intersect",
    "is_closed",
    "is_residually_faithful",
    "is_trace",
    "is_ulrich_ideal",
    "is_ulrich_module_wrt",
    "med_family_ideal",
    "member",
    "module_type",
    "parse_generators",
    "parse_series",
    "pf_family_ideal",
    "quotient_type",
    "reduce_echelon",
    "socle_formula",
    "sup_search",
]
