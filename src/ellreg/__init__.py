"""Numerical verification toolkit for elliptic dilogarithm identities.

The package computes L-values of elliptic curves via smoothed series,
elliptic dilogarithms, geodesic integrals of real-analytic Eisenstein
series, cusp divisors of modular units, and Mahler measures, and checks
the identities tying them together at prime levels.
"""

import os

# One thread: OpenBLAS's pool saves no wall time on these small matrices
# and busy-waits after every BLAS call (perfbench c37-scaling, 2-core VM:
# 0.99 s CPU for 0.70 s wall with it, 0.71 s for 0.72 s without). This
# must precede numpy's import; a caller's own value wins, and a caller
# that imported numpy first keeps its pool.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .characters import (  # noqa: E402
    DirichletCharacter,
    FiniteMap,
    character_from_label,
    character_label,
    enumerate_characters,
    gauss_sum,
    l_chi_2,
    twisted_bernoulli2,
)
from .eisenstein import (  # noqa: E402
    EtaForm,
    UnimodularMatrix,
    arc_integral,
    eta_chi,
    eta_form,
    g_column,
)
from .elliptic import (  # noqa: E402
    CURVE_11A,
    CURVE_17A,
    CURVE_REGISTRY,
    CurveModel,
    PeriodLattice,
    TorsionCoordinate,
    an_coefficients,
    elliptic_dilog,
    periods,
    torsion_coordinate,
)
from .lseries import (  # noqa: E402
    l_value,
    lambda_value,
    newform_from_curve,
    residue_tensor_square,
    root_number,
    twisted_lambda_table,
)
from .mahler import (  # noqa: E402
    BivariatePolynomial,
    curve_identity_polynomials,
    mahler_measure,
)
from .modsym import (  # noqa: E402
    SymbolIndex,
    cusp_classes,
    period_integral_oracle,
    petersson,
    xi_bridge_table,
)
from .special import (  # noqa: E402
    TruncationError,
    bloch_wigner,
    dilog,
    incomplete_gamma_upper,
    periodic_bernoulli2,
)
from .units import CuspDivisor, unit_divisor_chi  # noqa: E402
from .verify import (  # noqa: E402
    CheckReport,
    VerifyConfig,
    resolve_config,
    run_all,
    summarize,
)

__all__ = [
    "BivariatePolynomial",
    "CURVE_11A",
    "CURVE_17A",
    "CURVE_REGISTRY",
    "CheckReport",
    "CurveModel",
    "CuspDivisor",
    "DirichletCharacter",
    "EtaForm",
    "FiniteMap",
    "PeriodLattice",
    "SymbolIndex",
    "TorsionCoordinate",
    "TruncationError",
    "UnimodularMatrix",
    "VerifyConfig",
    "an_coefficients",
    "arc_integral",
    "bloch_wigner",
    "character_from_label",
    "character_label",
    "curve_identity_polynomials",
    "cusp_classes",
    "dilog",
    "elliptic_dilog",
    "enumerate_characters",
    "eta_chi",
    "eta_form",
    "g_column",
    "gauss_sum",
    "incomplete_gamma_upper",
    "l_chi_2",
    "l_value",
    "lambda_value",
    "mahler_measure",
    "newform_from_curve",
    "period_integral_oracle",
    "periodic_bernoulli2",
    "periods",
    "petersson",
    "residue_tensor_square",
    "resolve_config",
    "root_number",
    "run_all",
    "summarize",
    "torsion_coordinate",
    "twisted_bernoulli2",
    "twisted_lambda_table",
    "unit_divisor_chi",
    "xi_bridge_table",
]

__version__ = "0.1.0"
