"""Error taxonomy shared by the whole library.

The split is load-bearing: domain errors mean the request itself falls outside
an operation's contract, precision errors mean the request was legal but the
arithmetic could not deliver the promised accuracy. The command line front end
maps the two families onto distinct exit codes, so callers can tell a bad
argument from a numerical failure without parsing messages.
"""

from __future__ import annotations


class VoigtError(Exception):
    """Base class for all library errors."""


class DomainError(VoigtError):
    """The argument lies outside the domain an operation supports."""


class UnsupportedOrderError(DomainError):
    """A coefficient or term order beyond the tabulated data was requested.

    The coefficient tables stop at k = ``coefficients.K_MAX``; orders past
    that are an error, never an extrapolation.
    """


class PrecisionError(VoigtError):
    """The requested accuracy could not be attained.

    Carries the best estimate of what was achieved so callers can decide
    whether the partial result is still useful.
    """

    def __init__(self, message: str, attained: object = None):
        super().__init__(message)
        self.attained = attained


class QuadratureError(PrecisionError):
    """Numerical integration failed to converge to the requested tolerance.

    ``best`` is the last iterate, ``gap`` the estimated remaining error.
    """

    def __init__(self, message: str, best: object = None, gap: object = None):
        super().__init__(message, attained=gap)
        self.best = best
        self.gap = gap


class BelowAsymptoticRangeWarning(UserWarning):
    """The expansion was invoked below its useful range (r < 1); the result
    is computed anyway but carries no accuracy promise."""


class StokesCollarWarning(UserWarning):
    """The evaluation point approaches the Stokes line, where the chosen
    expansion is near the edge of its validity."""
