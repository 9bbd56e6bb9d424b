"""Second quadratures of K - iL and of the exact remainder, for the tests.

The library integrates the defining convolution, the Gaussian against the
Cauchy kernel. ``voigt_fourier`` integrates the damped half-line Fourier
form instead, valid for y > 0:

    K - iL = (1/sqrt(pi)) int_0^inf e^{-yt - t^2/4} e^{-ixt} dt.

It shares the integrator with ``voigt_quadrature`` but not the integrand or
its split points, so the two check each other away from the real axis.

``remainder_quadrature`` integrates the exact remainder after m terms along
a rotated contour, as a real integral over tau > 0 whose integrand has a
pole at tau = e^{-i phi}. It shares no code with either of
``remainder_exact``'s routes, the incomplete-gamma sweep and Legendre's
continued fraction, so it checks both off the Stokes line.
"""

from __future__ import annotations

import math

from voigt_asym import DomainError, Evaluation, mp_context
from voigt_asym.numerics import GUARD_DIGITS, integrate_semi_infinite


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


def remainder_quadrature(arg, m, ctx):
    """(hat-K, hat-L) after m terms by the contour integral, with the
    integrator's error plus one unit 10^(1-digits) of |hat-K| + |hat-L| as
    its estimate. Refuses the Stokes line, where the pole is on the path,
    and |z| = r^2 >= 10^digits."""
    if arg.phi == 0:
        raise DomainError(
            "the remainder integrand has a pole on the path at theta = pi/2; "
            "use the gamma route there"
        )
    mctx = ctx.mp(extra=GUARD_DIGITS)
    # every integrand evaluation reduces an exponent of order |z| modulo
    # ln 2, so past |z| = 10^digits the work grows without bound: at 40
    # digits r = 1e50 took 13 s to fail, and r = 1e300 ran past 100 s
    if 2 * mctx.log10(arg.r) >= ctx.digits:
        raise DomainError(
            "the remainder quadrature covers |z| = r^2 < 10^%d at %d digits, got r = %s"
            % (ctx.digits, ctx.digits, mctx.nstr(arg.r, 5))
        )
    # |z| = x^2 + y^2 and alpha = nu - |z| exact, from the coordinates: r^2
    # from the rounded r would carry |z| 10^-dps into the exponent
    absz = mctx.fadd(mctx.fmul(arg.x, arg.x, exact=True), mctx.fmul(arg.y, arg.y, exact=True),
                     exact=True)
    nu = m + mctx.mpf(1) / 2
    alpha = mctx.fsub(nu, absz, exact=True)
    psi = 2 * mctx.convert(arg.theta)
    phi = mctx.convert(arg.phi)

    # saddle of the exponent sits at tau = 1 when alpha <= 1; past optimal
    # truncation the algebraic factor pushes the peak out to tau_star and
    # the integrand exceeds its endpoint scale by e^{peak}, which must be
    # paid for in working precision
    a_f = float(alpha)
    z_f = float(absz)
    tau_star = max(1.0, 1.0 + (a_f - 1.0) / z_f)
    peak = 0.0  # at tau = 1, also where |z| passes the float range
    if tau_star > 1:
        peak = -z_f * (tau_star - 1.0 - math.log(tau_star)) + (a_f - 1.0) * math.log(tau_star)
    extra = max(0, int(math.ceil(peak * math.log10(math.e)))) + 5

    wctx = mp_context(ctx.digits + GUARD_DIGITS + extra)
    absz_w = wctx.convert(absz)
    alpha_w = wctx.convert(alpha)
    rot = wctx.expj(-wctx.convert(psi))

    def integrand(tau):
        return (
            wctx.exp(-absz_w * (tau - 1 - wctx.log(tau)))
            * tau ** (alpha_w - 1)
            / (1 + tau * rot)
        )

    # the integrand's pole tau = e^{-i phi}: close to the path (right of 0,
    # and |Im| < 0.7 (1 + Re)) it is bracketed by splits at Re -+ |Im|
    pole = wctx.expj(-wctx.convert(phi))
    re, im = float(pole.real), abs(float(pole.imag))
    near = (re - im, re + im) if re > 0 and im < 0.7 * (1.0 + re) else ()
    pts = (1.0, tau_star, 2 * tau_star + 1) + near
    res = integrate_semi_infinite(integrand, ctx, extra_points=pts, extra_dps=extra)

    pref = mctx.expj(phi * nu) / (mctx.pi * mctx.mpc(0, 1)) * mctx.exp(-absz)
    val = pref * mctx.mpc(res.value)
    out = ctx.mp()
    K, L = out.mpf(val.real), out.mpf(-val.imag)
    # the quadrature error, plus the unit every other route reports: the
    # phases phi nu and 2 theta come from rounded angles
    err = out.mpf(abs(pref) * res.err_estimate + ctx.eps() * (abs(K) + abs(L)))
    return Evaluation(K=K, L=L, method="remainder-quadrature", err_estimate=err)
