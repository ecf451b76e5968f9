"""Numerical verification toolkit for elliptic dilogarithm identities.

The package computes L-values of elliptic curves via smoothed series,
elliptic dilogarithms, geodesic integrals of real-analytic Eisenstein
series, cusp divisors of modular units, and Mahler measures, and checks
the identities tying them together at prime levels.
"""

import importlib
import os

# One thread: OpenBLAS's pool saves no wall time on these small matrices
# and busy-waits after every BLAS call (perfbench c37-scaling, 2-core VM:
# 0.99 s CPU for 0.70 s wall with it, 0.71 s for 0.72 s without). This
# must precede numpy's import; a caller's own value wins, and a caller
# that imported numpy first keeps its pool.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Each public name and the module it lives in.  A name's module is
# imported when the name is first read (PEP 562), so a run loads only
# the modules it uses.
_HOME = {name: module for module, names in [
    ("characters", "DirichletCharacter character_from_label "
     "enumerate_characters exponent_label gauss_sum l_chi_2 "
     "twisted_bernoulli2"),
    ("eisenstein", "EtaForm arc_integral eta_chi"),
    ("elliptic", "CURVE_11A CURVE_17A CURVE_REGISTRY CurveModel PeriodLattice "
     "TorsionCoordinate an_coefficients elliptic_dilog periods "
     "torsion_coordinate"),
    ("lseries", "l_value lambda_value newform_from_curve "
     "residue_tensor_square root_number twisted_lambda_table"),
    ("mahler", "BivariatePolynomial curve_identity_polynomials "
     "mahler_measure"),
    ("modsym", "SymbolIndex cusp_classes period_integral_oracle petersson "
     "xi_bridge_table"),
    ("special", "TruncationError bloch_wigner dilog periodic_bernoulli2"),
    ("units", "CuspDivisor unit_divisor_chi"),
    ("verify", "CheckReport VerifyConfig resolve_config run_all summarize"),
] for name in names.split()}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
