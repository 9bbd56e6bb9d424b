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
    mp_context,
)
from .oracle import (
    Evaluation,
    VoigtArgument,
    reduce_to_first_quadrant,
    remainder_exact,
    voigt_exact_erfc,
    voigt_quadrature,
)
from .coefficients import (
    CoefficientSet,
    coefficient_set,
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
    "Evaluation",
    "PrecisionContext",
    "PrecisionError",
    "QuadratureError",
    "RemainderEstimate",
    "StokesCollarWarning",
    "TruncationPlan",
    "UnsupportedOrderError",
    "VoigtArgument",
    "VoigtError",
    "algebraic_partial_sums",
    "coefficient_set",
    "evaluate_via_expansion",
    "optimal_truncation",
    "mp_context",
    "reduce_to_first_quadrant",
    "remainder_exact",
    "terminant_asymptotic",
    "theorem1",
    "theorem2",
    "voigt_exact_erfc",
    "voigt_quadrature",
]
