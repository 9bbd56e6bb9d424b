"""Precision-configurable arithmetic and the asymptotic-series, erfcx, gamma
and quadrature primitives.

Everything downstream (oracles, coefficients, expansions) runs on the
primitives defined here. The precision model is a software extended-precision
layer with a configurable number of decimal digits, defaulting to 40: the
exponentially small remainders studied by this library sit at magnitudes like
e^{-36} ~ 2e-16, and the identity tests at |w| = 6 lose roughly
2|w|^2 log10(e) ~ 31 digits to cancellation, so IEEE doubles are not even in
the running.

mpmath supplies the underlying arbitrary-precision arithmetic. Each precision
gets its own ``MPContext`` instance rather than touching mpmath's global
context; instances are created once, cached per decimal-digit count, and
never mutated afterwards, which keeps every operation in this package a pure
function of its inputs and safe for unrestricted concurrent use.

Branch conventions: principal branch for sqrt and log everywhere. All square
roots of complex quantities below are principal (argument in (-pi, pi]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

from mpmath.ctx_mp import MPContext

from .exceptions import DomainError, PrecisionError, QuadratureError

# Extra working digits carried by every operation so that results are
# correctly rounded at the advertised precision.
GUARD_DIGITS = 5

# Downward incomplete-gamma recurrence: hard cap on the number of steps.
GAMMA_RECURRENCE_CAP = 200


@lru_cache(maxsize=None)
def mp_context(dps: int) -> MPContext:
    """A shared mpmath context at ``dps`` decimal digits.

    Treated as immutable after creation; do not assign to ``.dps`` on the
    returned object.
    """
    ctx = MPContext()
    ctx.dps = dps
    return ctx


def round_widening(extra: int) -> int:
    """``extra`` working digits rounded up to a multiple of 10.

    Every context ``mp_context`` creates stays cached, so precision widened
    by a continuously varying amount would grow that cache without bound;
    rounding keeps the widened precisions on a few shared contexts.
    """
    return -(-extra // 10) * 10


@dataclass(frozen=True)
class PrecisionContext:
    """Requested precision for a computation.

    ``digits`` is the number of decimal significant digits results are good
    to. Operations run internally with guard digits (and, where a formula
    cancels, with explicitly widened precision) so that well-conditioned
    results carry relative error at most 10^(1-digits).
    """

    digits: int = 40

    def __post_init__(self):
        if self.digits < 16:
            raise DomainError("digits must be at least 16, got %r" % (self.digits,))

    def mp(self, extra: int = 0):
        """Working mpmath context: guard digits plus ``extra`` widening."""
        return mp_context(self.digits + GUARD_DIGITS + max(0, extra))

    def eps(self, ctx=None):
        """One unit of advertised relative accuracy, 10^(1-digits)."""
        ctx = ctx if ctx is not None else self.mp()
        return ctx.mpf(10) ** (1 - self.digits)


DEFAULT_CONTEXT = PrecisionContext()


def to_mpf(ctx, x):
    """Convert a real input to mpf, parsing strings at context precision."""
    if isinstance(x, str):
        return ctx.mpf(x)
    return ctx.convert(x)


def to_mpc(ctx, z):
    """Convert a complex-like input to mpc, parsing strings at context
    precision."""
    if isinstance(z, str):
        return ctx.mpc(ctx.mpf(z))
    return ctx.mpc(ctx.convert(z))


def _series_length(r2, m, prec: int) -> int:
    # How many terms of asymptotic_series to sum. The k-th term has modulus
    # |t_0| (1/2)_k / r2^k, which shrinks while k < r2 + 1/2. A finite cut m
    # whose terms all shrink (m - 1 < r2) drops a tail of at most m times its
    # first term, so g = ceil(log2 m) guard bits keep that tail below
    # 2^-prec |t_0|; the asymptotic series of erfcx (m None, cut at its
    # least term) misses by about its first omitted term, so g = 0. The sum
    # runs through the first term below 2^-(prec + g) |t_0|.
    if m is None:
        m, guard = int(r2 + 0.5), 0
    elif m - 1 < r2:
        guard = (m - 1).bit_length()
    else:
        return m  # a cut past the least term sums every term
    limit = (prec + guard) * math.log(2)
    if not r2 > limit:
        # log((1/2)_k / r2^k) >= k log(k / r2) - k >= -r2: no term is small enough
        return m
    log_r2 = math.log(r2.man) + r2.exp * math.log(2)  # r2 may exceed the float range
    log_term = 0.0
    for n in range(1, m):
        log_term += math.log(n - 0.5) - log_r2
        if log_term <= -limit:
            return n + 1
    return m


def asymptotic_series(w, r2, mctx, m=None):
    """(1/(w sqrt(pi))) sum_{k<n} (-1)^k (1/2)_k w^{-2k}, the asymptotic
    series of erfcx(w) and the m-term algebraic partial sum of K - iL at
    w = y + ix, summed in the mpmath context ``mctx`` (w an mpc of it).

    r2 (an mpf) is the r^2 the cut was planned from: |w|^2 up to rounding.
    The number of terms n is fixed up front, from float logs: at most m,
    and fewer where the terms fall below the working precision first. That
    early stop applies only while every term before m shrinks, m - 1 < r2;
    a cut past the least term sums all m terms. Without m the series stops
    at its least term at the latest, as erfcx needs. Once r2 exceeds about
    prec ln 2 the stop caps n near prec ln 2 / ln r2, so the work no longer
    grows with m.
    """
    n = _series_length(r2, m, mctx.prec)
    if n == 0:
        return mctx.mpc(0)
    q = -1 / (2 * w * w)  # term_k / term_{k-1} = q (2k - 1)
    term = total = mctx.mpc(1)
    for k in range(1, n):
        term *= q * (2 * k - 1)
        total += term
    return total / (w * mctx.sqrt(mctx.pi))


def erfcx(z, mctx):
    """e^{z^2} erfc(z) for Re z >= 0, at the precision of the mpmath
    context ``mctx``, by one of two branches picked from z and mctx.dps:

    * |z|^2 > dps ln 10: ``asymptotic_series`` U(1/2, 1/2, z^2)/sqrt(pi)
      = (1/(z sqrt(pi))) sum (-1)^k (1/2)_k z^{-2k}, whose least term is
      below 10^-dps there at every arg z; it stops at the first term below
      the working precision, or at the least term;
    * otherwise e^{z^2} - (2z/sqrt(pi)) 1F1(1; 3/2; z^2), the second term
      being e^{z^2} erf z (DLMF 7.11.4). The Kummer series is summed by
      mpmath's ``hypsum``, at a precision widened by the Re(z^2) log10(e)
      digits the difference cancels (fewer than dps); ``hypsum`` raises
      its own precision for the cancellation inside the series when
      Re(z^2) < 0; a real z is summed in real arithmetic. A series that
      does not converge is a PrecisionError.

    mpmath's erf and erfc are used by neither branch, so the oracle
    ``voigt_exact_erfc``, which uses them, shares no code with this kernel.
    """
    zz = to_mpc(mctx, z)
    if not (mctx.isfinite(zz) and zz.real >= 0):
        raise DomainError("erfcx covers finite z with Re z >= 0, got %s" % (zz,))
    r2 = mctx.fadd(mctx.fmul(zz.real, zz.real, exact=True),
                   mctx.fmul(zz.imag, zz.imag, exact=True), exact=True)
    if float(r2) > mctx.dps * math.log(10):  # inf past the float range
        return asymptotic_series(zz, r2, mctx)
    cancel = max(0, math.ceil(float((zz * zz).real) * math.log10(math.e)))
    wctx = mp_context(mctx.dps + round_widening(cancel + 10))
    # a real z (the ladder's base case on the imaginary w axis) takes the
    # real summator, 1.2-1.4x faster than the complex one at zero imag
    zw = wctx.convert(zz.real if zz.imag == 0 else zz)
    z2 = zw * zw
    try:
        kummer = wctx.hypsum(1, 1, ("Z", "Q"), (1, wctx.mpq(3, 2)), z2)
    except (ValueError, wctx.NoConvergence) as exc:
        raise PrecisionError(
            "erfcx: the Kummer series 1F1(1; 3/2; z^2) at z = %s did not "
            "converge (%s)" % (mctx.nstr(zz, 8), exc)
        ) from exc
    return mctx.mpc(wctx.exp(z2) - 2 * zw / wctx.sqrt(wctx.pi) * kummer)


def _gamma_widening(absz: float, digits: int) -> int:
    # the |z| log10(e) digits the downward sweep loses, plus a guard; the loss check catches more
    return digits + round_widening(math.ceil(absz * math.log10(math.e)) + 10)


def upper_incomplete_gamma_half_ladder(
    m_max: int, z, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> list:
    """All of e^z Gamma(1/2 - m, z) for m = 0..m_max, by one downward sweep;
    the entries are scaled by e^z.

    With G_a = e^z Gamma(a, z): base case G_{1/2} = sqrt(pi) erfcx(sqrt(z))
    with the principal square root, then G_{a-1} = (G_a - z^{a-1})/(a-1)
    repeatedly, z^{a-1} advanced by one multiplication by 1/z. The sweep
    runs at precision widened per the cancellation rule; an a-posteriori
    loss check turns silent digit loss into an explicit error.

    The check carries a running bound on the absolute error of G_a, in
    units of 10^-dps of the sweep: each step adds |G_a| + |z^{a-1}| and
    divides by |a - 1|. The bound is kept as a float log2 and the moduli
    enter through their binary exponents, |x| <= 2^mag(x); the digits
    attained are the least log10 |G_a|/bound over the sweep, with
    |G_a| >= 2^(mag(G_a) - 2). So the bound stays an upper bound, and the
    digits a lower bound, without an mpmath modulus per step.
    """
    if m_max < 0:
        raise DomainError("m_max must be nonnegative, got %r" % (m_max,))
    if m_max > GAMMA_RECURRENCE_CAP:
        raise DomainError(
            "recurrence depth %d exceeds the configured cap %d"
            % (m_max, GAMMA_RECURRENCE_CAP)
        )
    probe = to_mpc(ctx.mp(), z)
    if probe == 0:
        raise DomainError("the incomplete-gamma ladder requires z != 0")
    absz = float(abs(probe))

    effective = _gamma_widening(absz, ctx.digits)
    attained = 0.0
    for attempt in range(2):
        wctx = mp_context(effective)
        mag = wctx.mag
        zz = to_mpc(wctx, z)
        inv_z = 1 / zz
        g = wctx.sqrt(wctx.pi) * erfcx(wctx.sqrt(zz), wctx)
        a = wctx.mpf(1) / 2
        za = zz ** (a - 1)  # z^{a-1}, kept in step with a
        ladder = [g]
        # err: log2 of the error bound over 10^-effective; lost: the most
        # bits by which that bound has come within |g|. A zero g ends the
        # sweep with every digit lost.
        mg = err = mag(g)
        lost = 0.0
        for k in range(1, m_max + 1):
            if not g:
                break
            mz = mag(za)
            top = max(err, mg, mz)
            err = top + math.log2(
                2.0 ** (err - top) + 2.0 ** (mg - top) + 2.0 ** (mz - top)
            ) - math.log2(k - 0.5)
            a -= 1
            g = (g - za) / a
            za *= inv_z
            ladder.append(g)
            mg = mag(g)
            lost = max(lost, err + 2 - mg)
        attained = 0.0 if not g else effective - lost * math.log10(2)
        if attained >= ctx.digits:
            return ladder
        effective += round_widening(int(math.ceil(ctx.digits - attained)) + 10)
    raise PrecisionError(
        "incomplete-gamma recurrence at m=%d, |z|=%.3g attained only %.0f of "
        "%d requested digits despite widening" % (m_max, absz, attained, ctx.digits),
        attained=attained,
    )


class QuadratureResult(NamedTuple):
    value: object
    err_estimate: object


# Error estimates reported by the double-exponential rule are scaled by this
# factor before being compared with the tolerance, so that reported <= actual
# never happens on reasonable integrands.
QUAD_SAFETY = 10


def _round_natural(mctx, value):
    # round to the target context, keeping a real result real
    try:
        return mctx.mpf(value)
    except (TypeError, ValueError):
        return mctx.mpc(value)


def integrate_semi_infinite(
    f: Callable,
    ctx: PrecisionContext = DEFAULT_CONTEXT,
    *,
    pole_hints: Sequence = (),
    extra_points: Sequence = (),
    extra_dps: int = 0,
) -> QuadratureResult:
    """Integral of ``f`` over (0, inf) by double-exponential quadrature.

    ``pole_hints`` are complex locations of nearby poles of ``f``; each hint
    with positive real part triggers extra subdivision points bracketing its
    real part at a distance of its imaginary part, which is what tanh-sinh
    panels need to converge geometrically past a nearby singularity.
    ``extra_points`` are additional real split abscissae (saddles, peaks).
    The integrand must decay fast enough at infinity for the transformed
    rule to converge; all integrands in this package decay exponentially.

    Returns the value together with a conservative absolute error estimate.
    If the estimate cannot be driven below the absolute tolerance
    10^(6-digits), raises QuadratureError carrying the best value and the gap.
    """
    tol_ctx = ctx.mp(extra_dps)
    # an mpf: as a float it would underflow to 0 from 330 digits on
    tol = tol_ctx.mpf(10) ** (6 - ctx.digits)

    splits = set()
    for p in pole_hints:
        pc = to_mpc(tol_ctx, p)
        re, im = float(pc.real), abs(float(pc.imag))
        if re <= 0:
            continue
        # only a pole close to the path needs bracketing
        if im < 0.7 * (1.0 + re):
            for s in (re - im, re + im):
                if s > 0:
                    splits.add(s)
            if im == 0.0:
                raise DomainError(
                    "pole hint %s lies on the integration path" % (pc,)
                )
    for s in extra_points:
        sf = float(to_mpf(tol_ctx, s))
        if sf > 0:
            splits.add(sf)

    attempt_dps = ctx.digits + GUARD_DIGITS + max(0, extra_dps)
    best = None
    best_err = None
    maxdegree = None
    for attempt in range(3):
        wctx = mp_context(attempt_dps)
        points = [wctx.mpf(0)]
        points.extend(wctx.mpf(s) for s in sorted(splits))
        points.append(wctx.inf)
        try:
            if maxdegree is None:
                value, raw_err = wctx.quad(f, points, error=True)
            else:
                value, raw_err = wctx.quad(f, points, error=True, maxdegree=maxdegree)
        except Exception as exc:
            raise QuadratureError("quadrature failed: %s" % (exc,)) from exc
        # floor the estimate at roundoff level of the working precision
        floor = abs(value) * wctx.mpf(10) ** (5 - attempt_dps)
        err = QUAD_SAFETY * raw_err + floor
        if best_err is None or err < best_err:
            best, best_err = value, err
        if err <= tol:
            return QuadratureResult(_round_natural(tol_ctx, value), tol_ctx.mpf(err))
        attempt_dps += 10
        maxdegree = 8 + 2 * attempt
    raise QuadratureError(
        "quadrature did not reach tol=%s (best error estimate %s)" % (tol, best_err),
        best=_round_natural(tol_ctx, best),
        gap=tol_ctx.mpf(best_err),
    )
