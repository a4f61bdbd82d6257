"""Exact reduction of polynomial integrands to the scheme-theoretic critical locus.

The engine computes, for a polynomial action s and observable f, the class of
f in the homology of the full differential d_cl + div as an exact coefficient
vector over the (d-1)^n monomial basis of the Jacobian ring, plus a truncated
hbar expansion engine and a floating-point contour oracle that validates the
algebra against real integrals.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it.  Importing the package
# loads no submodule: the first access to a name imports its home (PEP 562), so
# a process that reduces never compiles the oracle, the hbar engine or verify.
_HOME = {
    name: module
    for module, names in (
        ("bvdiff", "Action action_build d_bv d_cl d_diag d_div"),
        ("errors", "EngineError InputError NonDiagonalizableAction NonTerminating NotAllowable "
                   "NotGenericAtWeight SingularMatrix ToleranceNotReached"),
        ("hbar", "HbarModel HbarSeries hbar_eta hbar_oracle hbar_reduce isserlis_moment"),
        ("oracle", "ComplexEstimate ContourSpec contour_integrate default_contours verify_reduction"),
        ("reduce", "JacBasis JacClass ReduceSession eta_diag jac_basis jac_rank_check reduce_full tau_diag wick"),
        ("scalars", "Scalar q"),
        ("superpoly", "SuperPoly"),
    )
    for name in names.split()
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without calling here
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
