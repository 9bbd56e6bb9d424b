"""A second quadrature of K - iL, for the tests.

The library integrates the defining convolution, the Gaussian against the
Cauchy kernel. ``voigt_fourier`` integrates the damped half-line Fourier
form instead, valid for y > 0:

    K - iL = (1/sqrt(pi)) int_0^inf e^{-yt - t^2/4} e^{-ixt} dt.

It shares the integrator with ``voigt_quadrature`` but not the integrand or
its split points, so the two check each other away from the real axis.
"""

from __future__ import annotations

import math

from voigt_asym import DomainError, Evaluation, integrate_semi_infinite, mp_context
from voigt_asym.numerics import GUARD_DIGITS


def voigt_fourier(arg, ctx):
    """(K, L) at a first-quadrant point with y > 0, and an error estimate
    as ``voigt_quadrature`` reports it: the integrator's, plus one unit
    10^(1-digits) of |K| + |L|."""
    if arg.y == 0:
        raise DomainError(
            "the Fourier route needs y > 0 for convergence; use the convolution route"
        )
    wctx = mp_context(ctx.digits + GUARD_DIGITS)
    x, y = wctx.convert(arg.x), wctx.convert(arg.y)
    pref = 1 / wctx.sqrt(wctx.pi)

    def f(t):
        return pref * wctx.exp(-y * t - t * t / 4) * wctx.expj(-x * t)

    # split at every half period of e^{-ixt} up to where the Gaussian has
    # decayed below the working precision
    T = 2 * math.sqrt(wctx.dps * math.log(10))
    step = math.pi / max(float(x), 1.0)
    pts = tuple(j * step for j in range(1, int(T / step) + 1)) + (T,)
    res = integrate_semi_infinite(f, ctx, extra_points=pts)
    out = ctx.mp()
    K, L = out.mpf(res.value.real), out.mpf(-res.value.imag)
    return Evaluation(K=K, L=L, method="reference-fourier",
                      err_estimate=out.mpf(res.err_estimate + ctx.eps() * (abs(K) + abs(L))))
