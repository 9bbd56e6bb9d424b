"""Reference evaluations: exact routes and quadrature cross-checks.

Everything downstream is judged against this module. It provides two
independent ways to compute the line-profile pair (K, L) at a first-quadrant
argument, plus two independent ways to compute the exact remainder left by
truncating the algebraic expansion after m terms:

* ``voigt_exact_erfc``: K - iL = e^{w^2} erfc(w) with w = y + ix, via the
  complementary error function. Fast and exact to working precision.
* ``voigt_quadrature``: direct numerical integration of the defining
  convolution integrals (or the half-line Fourier form), sharing no code
  with the erfc route.
* ``remainder_exact``: the terminant remainder, either as a contour-rotated
  real integral or through a backward recurrence for the upper incomplete
  gamma function at negative half-integer order. The recurrence does the
  work at run time wherever its depth cap allows; the integral is the
  independent cross-check the tests compare it with, and the runtime route
  only past that cap.

Arguments outside the first quadrant must pass through
``reduce_to_first_quadrant`` first; K is even in x and flips sign with y,
L is even in y and flips sign with x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .exceptions import DomainError
from .numerics import (
    DEFAULT_CONTEXT,
    GAMMA_RECURRENCE_CAP,
    GUARD_DIGITS,
    PrecisionContext,
    integrate_semi_infinite,
    mp_context,
    round_widening,
    to_mpf,
    upper_incomplete_gamma_half_ladder,
)

# Quadrature form of the remainder keeps its pole off the path only for
# theta < pi/2. Under route="auto" it runs only past GAMMA_RECURRENCE_CAP,
# and even there the gamma route (and its cap error) takes over within this
# collar of the Stokes line.
EPS_POLE = 0.05

# A nonzero coordinate must have a binary exponent within this bound:
# 2^-2048 (about 3.1e-617) <= |v| < 2^2048 (about 3.2e616). The work grows without limit
# past it: the erfc oracle widens by 2 log10 x digits (11 s at x = 1e800 and
# 57 s at 1e1500, against 2 s at 1e400), theorem2 widens its coefficients by
# about 9 log10(1/phi) digits (24 s at y = 1e-20000, x = 1), and mpmath's
# exact squaring fails outright near 1e(+-)1e21.
COORDINATE_MAG_MAX = 2048


def _in_range(mctx, v) -> bool:
    # zero, or 2^(mag - 1) <= |v| < 2^mag within the bound
    return not v or -COORDINATE_MAG_MAX < mctx.mag(v) <= COORDINATE_MAG_MAX


def _finite_pair(mctx, a, b, name_a: str, name_b: str):
    # NaN passes every ordering test and infinity has no polar form, so
    # both are refused before any sign or range check
    pair = (to_mpf(mctx, a), to_mpf(mctx, b))
    for name, v in zip((name_a, name_b), pair):
        if not mctx.isfinite(v):
            raise DomainError("%s must be finite, got %s" % (name, v))
        if not _in_range(mctx, v):
            raise DomainError(
                "%s = %s is outside the supported range 2^-%d <= |%s| < 2^%d"
                % (name, mctx.nstr(v, 5), COORDINATE_MAG_MAX, name, COORDINATE_MAG_MAX)
            )
    return pair


@dataclass(frozen=True)
class VoigtArgument:
    """A first-quadrant evaluation point, with its polar data precomputed.

    theta = arctan(x/y) is measured from the positive y side, so theta = 0
    is the real-w axis (x = 0) and theta = pi/2 is the Stokes line (y = 0).
    phi = pi - 2 theta, formed as 2 atan2(y, x): the difference would cancel
    when y << x, and it stays exactly 0 on the line.
    """

    x: object
    y: object
    r: object
    theta: object
    phi: object

    def __post_init__(self):
        if self.x < 0 or self.y < 0:
            raise DomainError(
                "VoigtArgument lives in the first quadrant; reduce (x, y) first"
            )

    @classmethod
    def from_xy(cls, x, y, ctx: PrecisionContext = DEFAULT_CONTEXT) -> "VoigtArgument":
        mctx = ctx.mp()
        xx, yy = _finite_pair(mctx, x, y, "x", "y")
        if xx < 0 or yy < 0:
            raise DomainError(
                "VoigtArgument lives in the first quadrant; reduce (x, y) first"
            )
        r = mctx.hypot(xx, yy)
        if r == 0:
            return cls(x=xx, y=yy, r=r, theta=mctx.mpf(0), phi=mctx.pi)
        return cls(x=xx, y=yy, r=r, theta=mctx.atan2(xx, yy), phi=2 * mctx.atan2(yy, xx))

    @classmethod
    def from_polar(cls, r, theta, ctx: PrecisionContext = DEFAULT_CONTEXT) -> "VoigtArgument":
        mctx = ctx.mp()
        rr, th = _finite_pair(mctx, r, theta, "r", "theta")
        if rr < 0:
            raise DomainError("radius must be nonnegative, got %s" % (rr,))
        if th < 0 or th > mctx.pi / 2:
            raise DomainError("theta must lie in [0, pi/2], got %s" % (th,))
        # land exactly on the axes when theta is an exact endpoint, so that
        # downstream special cases trigger
        if th == 0:
            return cls.from_xy(0, rr, ctx)
        if th == mctx.pi / 2:
            return cls.from_xy(rr, 0, ctx)
        x, y = rr * mctx.sin(th), rr * mctx.cos(th)
        # a radius near the lower bound can put x or y below it; the
        # refusal names the r and theta the caller gave
        if not (_in_range(mctx, x) and _in_range(mctx, y)):
            raise DomainError(
                "r = %s at theta = %s is outside the supported range: x = r sin theta "
                "and y = r cos theta must each be 0 or within 2^-%d <= |v| < 2^%d"
                % (mctx.nstr(rr, 5), mctx.nstr(th, 5), COORDINATE_MAG_MAX, COORDINATE_MAG_MAX)
            )
        return cls.from_xy(x, y, ctx)

    def z(self, ctx: PrecisionContext = DEFAULT_CONTEXT):
        """z = w^2 rounded at the context precision."""
        w = ctx.mp().mpc(self.y, self.x)
        return w * w


@dataclass(frozen=True, slots=True)  # callers keep many; slots make each smaller
class Evaluation:
    """One computed (K, L) pair and how it was obtained.

    For the remainder routines the fields hold the hatted quantities (the
    exact truncation remainders) rather than K and L themselves.
    """

    K: object
    L: object
    method: str
    err_estimate: object = None


def reduce_to_first_quadrant(
    x, y, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> Tuple[VoigtArgument, int, int]:
    """Map any real (x, y) to its first-quadrant representative.

    Returns (argument, sign_K, sign_L) such that
    K(x, y) = sign_K * K(|x|, |y|) and L(x, y) = sign_L * L(|x|, |y|).
    """
    mctx = ctx.mp()
    xx, yy = _finite_pair(mctx, x, y, "x", "y")
    sign_K = -1 if yy < 0 else 1
    sign_L = -1 if xx < 0 else 1
    return VoigtArgument.from_xy(abs(xx), abs(yy), ctx), sign_K, sign_L


def voigt_exact_erfc(arg: VoigtArgument, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Evaluation:
    """K - iL = e^{w^2} erfc(w), with exact special values on the axes; by
    mpmath's erfc, never the ``numerics.erfcx`` kernel this oracle judges.

    w^2 = y^2 - x^2 + 2ixy is formed exactly: rounded, it would carry an
    absolute error of about x^2 10^-dps into the exponent, and so cost
    about 2 log10(x) digits of K and L at large x."""
    mctx = ctx.mp(extra=GUARD_DIGITS)
    out = ctx.mp()
    eps = ctx.eps(out)
    if arg.x == 0:
        # w real: K = e^{y^2} erfc(y), L = 0 identically
        K = mctx.exp(mctx.fmul(arg.y, arg.y, exact=True)) * mctx.erfc(arg.y)
        return Evaluation(K=out.mpf(K), L=out.mpf(0), method="oracle-erfc",
                          err_estimate=eps * out.mpf(K))
    # mpmath's erfc squares w at its own working precision too; give it
    # the 2 log10(x) digits that squaring costs, beyond the guard digits
    loss = math.ceil(2 * mctx.mag(arg.x) * math.log10(2)) - GUARD_DIGITS
    wctx = mp_context(mctx.dps + round_widening(max(0, loss)))
    w = wctx.mpc(arg.y, arg.x)
    f = wctx.exp(wctx.fmul(w, w, exact=True)) * wctx.erfc(w)
    if arg.y == 0:
        # the real part collapses to a pure Gaussian; keep it in closed form
        K = mctx.exp(-mctx.fmul(arg.x, arg.x, exact=True))
    else:
        K = f.real
    L = -f.imag
    return Evaluation(
        K=out.mpf(K),
        L=out.mpf(L),
        method="oracle-erfc",
        err_estimate=eps * (abs(out.mpf(K)) + abs(out.mpf(L))),
    )


def _quad_convolution(arg: VoigtArgument, ctx: PrecisionContext):
    wctx = mp_context(ctx.digits + GUARD_DIGITS)
    x = wctx.convert(arg.x)
    y = wctx.convert(arg.y)
    pi = wctx.pi
    tail = max(8, float(x) + 8)

    if arg.y == 0:
        # K(x, 0): the smoothing width is zero, so the Gaussian factors out
        # of the Cauchy kernel
        gauss = wctx.exp(-x * x)

        def f_K(t):
            return 2 * gauss / (pi * (1 + t * t))

        res_K = integrate_semi_infinite(
            f_K, ctx, pole_hints=(wctx.mpc(0, 1),), extra_points=(1, tail)
        )
        if arg.x == 0:
            return res_K, None
        # principal-value form of L(x, 0), folded to a half line where the
        # 1/u singularity cancels exactly: the integrand extends continuously
        # with value (2x/pi) e^{-x^2} at u = 0

        def f_L(u):
            return 2 * gauss * wctx.exp(-u * u) * wctx.sinh(2 * x * u) / (pi * u)

        res_L = integrate_semi_infinite(f_L, ctx, extra_points=(x, tail))
        return res_K, res_L

    def f_K(t):
        g = wctx.exp(-t * t)
        return (
            y * g / (((x - t) ** 2 + y * y) * pi)
            + y * g / (((x + t) ** 2 + y * y) * pi)
        )

    def f_L(t):
        g = wctx.exp(-t * t)
        return (
            (x - t) * g / (((x - t) ** 2 + y * y) * pi)
            + (x + t) * g / (((x + t) ** 2 + y * y) * pi)
        )

    hints = (wctx.mpc(x, y),)
    pts = tuple(p for p in (x - y, x, x + y, tail) if p > 0)
    res_K = integrate_semi_infinite(f_K, ctx, pole_hints=hints, extra_points=pts)
    res_L = integrate_semi_infinite(f_L, ctx, pole_hints=hints, extra_points=pts)
    return res_K, res_L


def _quad_fourier(arg: VoigtArgument, ctx: PrecisionContext):
    if arg.y == 0:
        raise DomainError(
            "the Fourier route needs y > 0 for convergence; use the convolution route"
        )
    wctx = mp_context(ctx.digits + GUARD_DIGITS)
    x = wctx.convert(arg.x)
    y = wctx.convert(arg.y)
    pref = 1 / wctx.sqrt(wctx.pi)
    T = 2 * math.sqrt((ctx.digits + GUARD_DIGITS) * math.log(10))
    step = math.pi / max(float(x), 1.0)
    pts = tuple(j * step for j in range(1, int(T / step) + 1)) + (T,)

    def f_K(t):
        return pref * wctx.exp(-y * t - t * t / 4) * wctx.cos(x * t)

    def f_L(t):
        return pref * wctx.exp(-y * t - t * t / 4) * wctx.sin(x * t)

    res_K = integrate_semi_infinite(f_K, ctx, extra_points=pts)
    res_L = integrate_semi_infinite(f_L, ctx, extra_points=pts)
    return res_K, res_L


def voigt_quadrature(
    arg: VoigtArgument, ctx: PrecisionContext = DEFAULT_CONTEXT, route: str = "convolution"
) -> Evaluation:
    """(K, L) by direct integration of the defining integrals.

    route: "convolution" (the default) integrates the Gaussian-against-Cauchy
    forms over the real line, and is the only route valid at y = 0;
    "fourier" integrates the damped half-line cosine/sine forms, valid for
    y > 0.
    """
    if route not in ("convolution", "fourier"):
        raise DomainError("unknown quadrature route %r" % (route,))
    out = ctx.mp()
    if route == "fourier":
        res_K, res_L = _quad_fourier(arg, ctx)
    else:
        res_K, res_L = _quad_convolution(arg, ctx)
    if res_L is None:
        K = out.mpf(res_K.value)
        return Evaluation(K=K, L=out.mpf(0), method="oracle-quadrature",
                          err_estimate=out.mpf(res_K.err_estimate))
    return Evaluation(
        K=out.mpf(res_K.value),
        L=out.mpf(res_L.value),
        method="oracle-quadrature",
        err_estimate=out.mpf(res_K.err_estimate + res_L.err_estimate),
    )


def _remainder_prefactors(mctx, arg: VoigtArgument, m: int):
    absz = mctx.convert(arg.r) ** 2
    nu = m + mctx.mpf(1) / 2
    alpha = nu - absz
    return absz, nu, alpha


def _remainder_quadrature(arg: VoigtArgument, m: int, ctx: PrecisionContext) -> Evaluation:
    if arg.phi == 0:
        raise DomainError(
            "the remainder integrand has a pole on the path at theta = pi/2; "
            "use the gamma route there"
        )
    mctx = ctx.mp(extra=GUARD_DIGITS)
    absz, nu, alpha = _remainder_prefactors(mctx, arg, m)
    psi = 2 * mctx.convert(arg.theta)
    phi = mctx.convert(arg.phi)

    # saddle of the exponent sits at tau = 1 when alpha <= 1; past optimal
    # truncation the algebraic factor pushes the peak out to tau_star and
    # the integrand exceeds its endpoint scale by e^{peak}, which must be
    # paid for in working precision
    a_f = float(alpha)
    z_f = float(absz)
    tau_star = max(1.0, 1.0 + (a_f - 1.0) / z_f)
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

    pole = wctx.expj(-wctx.convert(phi))
    pts = (1.0, tau_star, 2 * tau_star + 1)
    res = integrate_semi_infinite(
        integrand, ctx, pole_hints=(pole,), extra_points=pts, extra_dps=extra
    )

    pref = mctx.expj(phi * nu) / (mctx.pi * mctx.mpc(0, 1)) * mctx.exp(-absz)
    val = pref * mctx.mpc(res.value)
    out = ctx.mp()
    err = out.mpf(abs(pref) * res.err_estimate)
    return Evaluation(
        K=out.mpf(val.real), L=out.mpf(-val.imag),
        method="remainder-quadrature", err_estimate=err,
    )


def _gamma_remainders(arg: VoigtArgument, m_max: int, ctx: PrecisionContext):
    """The incomplete-gamma ladder up to m_max, and the map from its entry m
    to the exact remainder after m terms."""
    mctx = ctx.mp(extra=GUARD_DIGITS)
    z = arg.z(PrecisionContext(digits=ctx.digits + GUARD_DIGITS))
    ladder = upper_incomplete_gamma_half_ladder(m_max, z, ctx)
    inv_sqrtpi = 1 / mctx.sqrt(mctx.pi)
    out = ctx.mp()
    eps = ctx.eps(out)

    def remainder(m: int) -> Evaluation:
        # (-1)^m Gamma(m + 1/2) e^z Gamma(1/2 - m, z) / pi, where the ladder
        # holds e^z Gamma(1/2 - m, z) and
        # Gamma(m + 1/2) / sqrt(pi) = (1/2)_m = (2m)! / (4^m m!) exactly
        half_poch = Fraction(math.factorial(2 * m), 4 ** m * math.factorial(m))
        val = (-1) ** m * mctx.convert(half_poch) * inv_sqrtpi * mctx.mpc(ladder[m])
        K = out.mpf(val.real)
        L = out.mpf(-val.imag)
        return Evaluation(K=K, L=L, method="remainder-gamma",
                          err_estimate=eps * (abs(K) + abs(L)))

    return remainder


def remainder_exact(
    arg: VoigtArgument, m: int, ctx: PrecisionContext = DEFAULT_CONTEXT, route: str = "auto"
) -> Evaluation:
    """The exact remainder (hat-K, hat-L) after m algebraic terms.

    Satisfies K - iL = S_m + (hat-K - i hat-L) where S_m is the m-term
    algebraic partial sum; see ``expansions.algebraic_partial_sums``.

    route: "quadrature" evaluates a contour-rotated real integral (pole off
    the path only for theta < pi/2, and m >= 1); "gamma" evaluates
    (-1)^m Gamma(m + 1/2) e^z Gamma(1/2 - m, z) / pi by backward recurrence
    (m <= GAMMA_RECURRENCE_CAP); "auto" picks gamma whenever
    m <= GAMMA_RECURRENCE_CAP, and past the cap quadrature away from the
    Stokes line, gamma (which then refuses the depth) within EPS_POLE of it.
    At m = 0 the remainder is the whole K - iL.
    """
    if m < 0:
        raise DomainError("remainder order m must be nonnegative, got %r" % (m,))
    if arg.r == 0:
        raise DomainError("the remainder is undefined at the origin")
    if route not in ("auto", "quadrature", "gamma"):
        raise DomainError("unknown remainder route %r" % (route,))
    if route == "auto":
        mctx = ctx.mp()
        near_pole = arg.theta > mctx.pi / 2 - mctx.mpf(EPS_POLE)
        route = "gamma" if m <= GAMMA_RECURRENCE_CAP or near_pole else "quadrature"
    if route == "quadrature":
        if m == 0:
            raise DomainError(
                "the quadrature form needs m >= 1; at m = 0 the remainder is "
                "the whole function (use voigt_exact_erfc)"
            )
        return _remainder_quadrature(arg, m, ctx)
    return _gamma_remainders(arg, m, ctx)(m)


def remainder_ladder(
    arg: VoigtArgument, m_max: int, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> List[Evaluation]:
    """Exact remainders for every m = 0..m_max from one backward sweep.

    Entry m satisfies the same identity as ``remainder_exact``; entry 0 is
    the full K - iL. One recurrence pass makes scanning all truncation
    orders cheap.
    """
    if m_max < 0:
        raise DomainError("m_max must be nonnegative, got %r" % (m_max,))
    if arg.r == 0:
        raise DomainError("the remainder is undefined at the origin")
    remainder = _gamma_remainders(arg, m_max, ctx)
    return [remainder(m) for m in range(m_max + 1)]
