"""Reference evaluations: exact routes and a quadrature cross-check.

Everything downstream is judged against this module. It provides two
independent ways to compute the line-profile pair (K, L) at a first-quadrant
argument, and the exact remainder left by truncating the algebraic
expansion after m terms:

* ``voigt_exact_erfc``: K - iL = e^{w^2} erfc(w) with w = y + ix, via the
  complementary error function. Fast and exact to working precision.
* ``voigt_quadrature``: direct numerical integration of the defining
  convolution integral, sharing no code with the erfc route: one folded
  integral at every point, widened by log10 x digits past x = 1e5; K on
  y = 0 in closed form.
* ``remainder_exact``: the terminant remainder, from e^z Gamma(1/2 - m, z)
  by a downward fixed-point sweep of its recurrence up to the sweep's depth
  cap, and past it, off the Stokes line, by Legendre's continued fraction.

At run time each quantity has one route at each point. The tests keep the
second ones as cross-checks: the half-line Fourier integral of K - iL, and
the contour integral of the remainder.

Arguments outside the first quadrant must pass through
``reduce_to_first_quadrant`` first; K is even in x and flips sign with y,
L is even in y and flips sign with x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .exceptions import DomainError
from .numerics import (
    DEFAULT_CONTEXT,
    GAMMA_RECURRENCE_CAP,
    GUARD_DIGITS,
    PrecisionContext,
    _constants,
    _float_log,
    integrate_semi_infinite,
    mp_context,
    round_widening,
    to_mpf,
    upper_incomplete_gamma_half_fraction,
    upper_incomplete_gamma_half_ladder,
)

# Past GAMMA_RECURRENCE_CAP, remainder_exact takes Legendre's fraction, whose
# steps grow about as (pi/2 - theta)^-2, only outside this collar of the
# Stokes line; within it the ladder, and its cap, take over.
EPS_POLE = 0.05

# A nonzero coordinate must have a binary exponent within this bound:
# 2^-2048 (about 3.1e-617) <= |v| < 2^2048 (about 3.2e616). The work grows without limit
# past it: the erfc oracle widens by 2 log10 x digits (11 s at x = 1e800 and
# 57 s at 1e1500, against 2 s at 1e400), theorem2 widens its coefficients by
# about 9 log10(1/phi) digits (24 s at y = 1e-20000, x = 1), and mpmath's
# exact squaring fails outright near 1e(+-)1e21.
COORDINATE_MAG_MAX = 2048

# voigt_quadrature refuses more digits than this. Its work grows steeply
# past it: at (3, 4), on a 2-vCPU host with Python 3.11 and pure-Python
# mpmath 1.3, it took 0.41 s at 100 digits, 1.2 s at 150, 11 s at 175 and
# 13 s at 200, and at (3, 0) 0.29, 0.56 and 2.8 s at 100 to 175 digits.
QUADRATURE_DIGITS_MAX = 150


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
        return cls._from_checked(mctx, *_finite_pair(mctx, x, y, "x", "y"))

    @classmethod
    def _from_checked(cls, mctx, x, y) -> "VoigtArgument":
        # x, y: checked mpf of mctx; one outside the first quadrant is refused
        r = mctx.hypot(x, y)
        if r == 0:
            return cls(x=x, y=y, r=r, theta=mctx.mpf(0), phi=mctx.pi)
        return cls(x=x, y=y, r=r, theta=mctx.atan2(x, y), phi=2 * mctx.atan2(y, x))

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
            return cls._from_checked(mctx, mctx.mpf(0), rr)
        if th == mctx.pi / 2:
            return cls._from_checked(mctx, rr, mctx.mpf(0))
        cos_th, sin_th = mctx.cos_sin(th)
        x, y = rr * sin_th, rr * cos_th
        # a radius near the lower bound can put x or y below it; the
        # refusal names the r and theta the caller gave
        if not (_in_range(mctx, x) and _in_range(mctx, y)):
            raise DomainError(
                "r = %s at theta = %s is outside the supported range: x = r sin theta "
                "and y = r cos theta must each be 0 or within 2^-%d <= |v| < 2^%d"
                % (mctx.nstr(rr, 5), mctx.nstr(th, 5), COORDINATE_MAG_MAX, COORDINATE_MAG_MAX)
            )
        return cls._from_checked(mctx, x, y)


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
    eps = ctx.eps()
    # e^{w^2} erfc(w) ~ 1/(sqrt(pi) w) (1 - 1/(2 w^2) + ...): past 2 r^2 = 10^dps the
    # leading term is the answer to dps digits, and e^{-x^2} lies far below K
    if (2 * mctx.mag(arg.r) - 1) * math.log10(2) > mctx.dps:
        f = 1 / (_constants(mctx).sqrt_pi * mctx.mpc(arg.y, arg.x))
    elif arg.x == 0:
        # w real: K = e^{y^2} erfc(y), L = 0 identically. mpmath's real erfc
        # converts y^2 to a float, which overflows from about y = 1.3e154, so
        # from y = 2^511 on K is U(1/2, 1/2, y^2)/sqrt(pi) (DLMF 13.6.7)
        y2 = mctx.fmul(arg.y, arg.y, exact=True)
        if mctx.mag(arg.y) > 511:
            f = mctx.mpc(mctx.hyperu(0.5, 0.5, y2) / _constants(mctx).sqrt_pi)
        else:
            f = mctx.mpc(mctx.exp(y2) * mctx.erfc(arg.y))
    else:
        # mpmath's erfc squares w at its own working precision too; give it
        # the 2 log10(x) digits that squaring costs, beyond the guard digits
        loss = math.ceil(2 * mctx.mag(arg.x) * math.log10(2)) - GUARD_DIGITS
        wctx = mp_context(mctx.dps + round_widening(max(0, loss)))
        w = wctx.mpc(arg.y, arg.x)
        f = wctx.exp(wctx.fmul(w, w, exact=True)) * wctx.erfc(w)
    # on y = 0 the real part collapses to a pure Gaussian, kept in closed
    # form with -x^2 exact: a rounded one errs by about x^2 10^-dps
    K = f.real if arg.y else mctx.exp(mctx.fneg(mctx.fmul(arg.x, arg.x, exact=True), exact=True))
    K, L = out.mpf(K), out.mpf(-f.imag)
    return Evaluation(K=K, L=L, method="oracle-erfc", err_estimate=eps * (abs(K) + abs(L)))


def voigt_quadrature(arg: VoigtArgument, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Evaluation:
    """(K, L) by direct integration of the defining convolution integral.

    K - iL is (1/pi) int e^{-t^2} / (y + i(x - t)) dt over the real line, the
    Gaussian against the Cauchy kernel: one folded integral at every point,
    whose real part gives K and minus its imaginary part L. On y = 0 the
    kernel's real part is a delta at t = x, so K is e^{-x^2} in closed form,
    with -x^2 exact. The error estimate is the quadrature's, plus 10^(1-digits)
    (|K| + |L|).

    Nodes near the Gaussian's peak s = x lie about x 10^-dps apart, so past
    x = 10^GUARD_DIGITS the integral runs log10 x digits wider; more than
    ``QUADRATURE_DIGITS_MAX`` digits, widening included, is a DomainError.
    """
    log10_x = _float_log(arg.x) / math.log(10) if arg.x > 1 else 0
    widen = round_widening(max(0, math.ceil(log10_x) - GUARD_DIGITS))
    if ctx.digits + widen > QUADRATURE_DIGITS_MAX:
        raise DomainError(
            "quadrature covers at most %d digits (QUADRATURE_DIGITS_MAX), got %d + %d for "
            "x = %s; voigt_exact_erfc has no such cap"
            % (QUADRATURE_DIGITS_MAX, ctx.digits, widen, ctx.mp().nstr(arg.x, 5)))
    wctx = mp_context(ctx.digits + GUARD_DIGITS + widen)
    x, y = wctx.convert(arg.x), wctx.convert(arg.y)
    pi, prec = wctx.pi, wctx.prec

    # folded about the kernel's peak t = x -+ s, so that nodes near it hold
    # s = |t - x| to full relative precision; e^{-(x -+ s)^2} is
    # e^{-(x - s)^2} times 2 + d and d, d = expm1(-4xs) in [-1, 0], since
    # their difference, which carries L, would cancel at tiny x, and a
    # rounded exponent of order x^2 would cost log10(x^2) digits at large x
    def f(s):
        t = -4 * x * s
        # d is -1 to the last bit once e^t < 2^-prec, and e^t - 1 cannot
        # cancel once t <= -1, where it costs a third of expm1
        d = -1 if t < -prec else wctx.exp(t) - 1 if t <= -1 else wctx.expm1(t)
        e = wctx.exp(-(x - s) ** 2)
        if not y:  # the imaginary part alone
            return e * d / (pi * s)
        g = e / (pi * (y * y + s * s))
        return wctx.mpc(g * y * (2 + d), g * s * d)

    # the Gaussian peaks at s = x (a float of x would overflow past 1.8e308)
    # and is below 10^-dps left of x - c, c^2 > dps ln 10, so the panel
    # ending at the peak starts there; off the axis one panel per decade
    # from y up to 1 resolves the kernel's spike of width y at s = 0
    c = math.ceil(math.sqrt(wctx.dps * math.log(10))) + 1
    decades = max(1, 1 - math.floor(float(wctx.log10(y)))) if y else 0
    pts = (x, x + 8) + ((x - c,) if x > c else ()) + tuple(y * 10 ** k for k in range(decades))
    res = integrate_semi_infinite(f, ctx, extra_points=pts, extra_dps=widen)
    if y:
        K, L = res.value.real, -res.value.imag
    else:
        K, L = wctx.exp(wctx.fneg(wctx.fmul(x, x, exact=True), exact=True)), -res.value
    out = ctx.mp()
    K, L = out.mpf(K), out.mpf(L)
    return Evaluation(K=K, L=L, method="oracle-quadrature",
                      err_estimate=out.mpf(res.err_estimate + ctx.eps() * (abs(K) + abs(L))))


def remainder_exact(
    arg: VoigtArgument, m: int, ctx: PrecisionContext = DEFAULT_CONTEXT, route: str = "auto"
) -> Evaluation:
    """The exact remainder (hat-K, hat-L) after m algebraic terms.

    Satisfies K - iL = S_m + (hat-K - i hat-L) where S_m is the m-term
    algebraic partial sum; see ``expansions.algebraic_partial_sums``. At
    m = 0 the remainder is the whole K - iL.

    It is (-1)^m (1/2)_m / sqrt(pi) times e^z Gamma(1/2 - m, z), z = w^2,
    w = y + ix. The latter comes from one of two kernels, each taking w,
    squaring it exactly and widening for its own losses: up to
    GAMMA_RECURRENCE_CAP ``upper_incomplete_gamma_half_ladder``'s sweep;
    past the cap, "auto" (the default) takes
    ``upper_incomplete_gamma_half_fraction`` outside the EPS_POLE collar,
    and inside it, as at every m for route="gamma", the sweep refuses.
    The prefactor is Gamma(m + 1/2)/pi, and the product is formed at
    GUARD_DIGITS past the working precision.
    """
    if m < 0:
        raise DomainError("remainder order m must be nonnegative, got %r" % (m,))
    if arg.r == 0:
        raise DomainError("the remainder is undefined at the origin")
    if route not in ("auto", "gamma"):
        raise DomainError("unknown remainder route %r" % (route,))
    fraction = (route == "auto" and m > GAMMA_RECURRENCE_CAP
                and arg.theta <= ctx.mp().pi / 2 - EPS_POLE)
    kernel = (upper_incomplete_gamma_half_fraction if fraction
              else upper_incomplete_gamma_half_ladder)
    mctx = ctx.mp(extra=GUARD_DIGITS)
    g = kernel(m, mctx.mpc(arg.y, arg.x), ctx)
    # (1/2)_m / sqrt(pi) = Gamma(m + 1/2)/pi, by mpmath's gamma at the
    # context's own prec: its rf sets the prec of the shared context for a
    # moment, and threads doing so at once can leave it changed for good
    val = (-1) ** m * mctx.gamma(mctx.fadd(m, 0.5, exact=True)) / mctx.pi * mctx.mpc(g)
    out = ctx.mp()
    K, L = out.mpf(val.real), out.mpf(-val.imag)
    return Evaluation(K=K, L=L, method="remainder-fraction" if fraction else "remainder-gamma",
                      err_estimate=ctx.eps() * (abs(K) + abs(L)))
