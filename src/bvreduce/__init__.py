"""Exact reduction of polynomial integrands to the scheme-theoretic critical locus.

The engine computes, for a polynomial action s and observable f, the class of
f in the homology of the full differential d_cl + div as an exact coefficient
vector over the (d-1)^n monomial basis of the Jacobian ring, plus a truncated
hbar expansion engine and a floating-point contour oracle that validates the
algebra against real integrals.
"""

from .bvdiff import Action, action_build, d_bv, d_cl, d_diag, d_div
from .errors import (
    EngineError,
    InputError,
    NonDiagonalizableAction,
    NonTerminating,
    NotAllowable,
    NotGenericAtWeight,
    SingularMatrix,
    ToleranceNotReached,
)
from .hbar import HbarModel, HbarSeries, hbar_eta, hbar_oracle, hbar_reduce, isserlis_moment
from .oracle import ComplexEstimate, ContourSpec, contour_integrate, default_contours, verify_reduction
from .reduce import (
    JacBasis,
    JacClass,
    ReduceSession,
    eta_diag,
    jac_basis,
    jac_rank_check,
    reduce_full,
    tau_diag,
    wick,
)
from .scalars import Scalar, q
from .superpoly import SuperPoly

__version__ = "0.1.0"

__all__ = [
    "Action",
    "ComplexEstimate",
    "ContourSpec",
    "EngineError",
    "HbarModel",
    "HbarSeries",
    "InputError",
    "JacBasis",
    "JacClass",
    "NonDiagonalizableAction",
    "NonTerminating",
    "NotAllowable",
    "NotGenericAtWeight",
    "ReduceSession",
    "Scalar",
    "SingularMatrix",
    "SuperPoly",
    "ToleranceNotReached",
    "action_build",
    "contour_integrate",
    "d_bv",
    "d_cl",
    "d_diag",
    "d_div",
    "default_contours",
    "eta_diag",
    "hbar_eta",
    "hbar_oracle",
    "hbar_reduce",
    "isserlis_moment",
    "jac_basis",
    "jac_rank_check",
    "q",
    "reduce_full",
    "tau_diag",
    "verify_reduction",
    "wick",
]
