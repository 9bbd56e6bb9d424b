"""Voigt line-profile functions by optimally truncated asymptotics.

The pair (K, L), defined by K - iL = e^{w^2} erfc(w) with w = y + ix, is
computed two independent exact ways (complementary error function;
defining-integral quadrature) and through exponentially improved asymptotic
expansions: the algebraic series cut at its least term plus a remainder
estimate that is accurate to a relative error exponentially small in r^2,
uniformly through the Stokes line y = 0.

Public entry points re-exported here; the command-line interface is
``voigt-asym`` (module ``voigt_asym.cli``).
"""

from __future__ import annotations

from .exceptions import (
    BelowAsymptoticRangeWarning,
    DomainError,
    PrecisionError,
    QuadratureError,
    StokesCollarWarning,
    UnsupportedOrderError,
    VoigtError,
)
from .numerics import (
    DEFAULT_CONTEXT,
    PrecisionContext,
    integrate_semi_infinite,
    mp_context,
    upper_incomplete_gamma_half_ladder,
)
from .oracle import (
    Evaluation,
    VoigtArgument,
    reduce_to_first_quadrant,
    remainder_exact,
    remainder_ladder,
    voigt_exact_erfc,
    voigt_quadrature,
)
from .coefficients import (
    CoefficientSet,
    E_of_phi,
    ReversionSeries,
    c_of_phi,
    coefficient_set,
    reversion_series,
)
from .expansions import (
    RemainderEstimate,
    TruncationPlan,
    algebraic_partial_sums,
    evaluate_via_expansion,
    optimal_truncation,
    terminant_asymptotic,
    theorem1,
    theorem2,
)

__version__ = "0.1.0"

__all__ = [
    "BelowAsymptoticRangeWarning",
    "CoefficientSet",
    "DEFAULT_CONTEXT",
    "DomainError",
    "E_of_phi",
    "Evaluation",
    "PrecisionContext",
    "PrecisionError",
    "QuadratureError",
    "RemainderEstimate",
    "ReversionSeries",
    "StokesCollarWarning",
    "TruncationPlan",
    "UnsupportedOrderError",
    "VoigtArgument",
    "VoigtError",
    "algebraic_partial_sums",
    "c_of_phi",
    "coefficient_set",
    "evaluate_via_expansion",
    "integrate_semi_infinite",
    "optimal_truncation",
    "mp_context",
    "reduce_to_first_quadrant",
    "remainder_exact",
    "remainder_ladder",
    "reversion_series",
    "terminant_asymptotic",
    "theorem1",
    "theorem2",
    "upper_incomplete_gamma_half_ladder",
    "voigt_exact_erfc",
    "voigt_quadrature",
]
