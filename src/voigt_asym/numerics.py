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

No other module reads mpmath's raw number format; they reach it through
the helpers ``_fixed``, ``_fixed_mul``, ``_from_fixed`` and ``_float_log``.

Branch conventions: principal branch for sqrt and log everywhere. All square
roots of complex quantities below are principal (argument in (-pi, pi]).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

from mpmath.ctx_mp import MPContext
from mpmath.libmp import from_man_exp, round_nearest, to_fixed

from .exceptions import DomainError, PrecisionError, QuadratureError

# Extra working digits carried by every operation so that results are
# correctly rounded at the advertised precision.
GUARD_DIGITS = 5

# Downward incomplete-gamma recurrence: hard cap on the number of steps.
GAMMA_RECURRENCE_CAP = 200

_LOG2_3 = math.log2(3)


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

    def eps(self):
        """One unit of advertised relative accuracy, 10^(1-digits), as an mpf
        of the working context ``mp()``."""
        return _constants(self.mp()).eps


DEFAULT_CONTEXT = PrecisionContext()

# theta within this collar (in radians, as a fraction of pi) of the Stokes
# line is outside the stated validity of the non-uniform expansion
THETA_COLLAR_OVER_PI = 0.02

# past this theta the non-uniform expansion still evaluates but its accuracy
# is visibly degrading; callers get a warning rather than a refusal
STOKES_WARN_OVER_PI = 0.40

# Numbers of one context, computed once by ``_constants``: eps = 10^(1 - digits)
# for digits = dps - GUARD_DIGITS; phi's upper bound, and theorem1's collar
# and warning bounds in theta (collar with its slack)
Constants = namedtuple(
    "Constants", "sqrt_pi sqrt_2pi sqrt2 three_halves eps phi_max collar stokes_warn")


@lru_cache(maxsize=None)
def _constants(mctx) -> Constants:
    pi, ten = mctx.pi, mctx.mpf(10)
    return Constants(
        mctx.sqrt(pi), mctx.sqrt(2 * pi), mctx.sqrt(2), mctx.mpq(3, 2),
        ten ** (GUARD_DIGITS + 1 - mctx.dps), pi * (1 + ten ** (-10)),
        pi * (mctx.mpf(1) / 2 - mctx.mpf(THETA_COLLAR_OVER_PI)) + ten ** (-12),
        pi * mctx.mpf(STOKES_WARN_OVER_PI),
    )


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


def _fixed(v, wp: int):
    """An mpf as an integer scaled by 2^wp, an mpc as the pair (re, im).

    The fixed-point sweeps (the ladder and the fraction below, the
    coefficient pass) run on such integers, through this helper,
    ``_fixed_mul``, ``_fixed_div`` and ``_from_fixed`` alone. A conversion,
    a product's shift and a quotient floor each part once: an error below 1
    unit of 2^-wp per part, and below sqrt 2 in modulus for a complex pair.
    ``_from_fixed`` rounds back to nearest.
    """
    if hasattr(v, "_mpc_"):
        return to_fixed(v._mpc_[0], wp), to_fixed(v._mpc_[1], wp)
    return to_fixed(v._mpf_, wp)


def _fixed_mul(x: tuple, y: tuple, wp: int) -> tuple:
    (xr, xi), (yr, yi) = x, y  # the complex product, one shift per part
    return (xr * yr - xi * yi) >> wp, (xr * yi + xi * yr) >> wp


def _fixed_div(x: tuple, y: tuple, wp: int) -> tuple:
    (xr, xi), (yr, yi) = x, y  # the complex quotient, one floor per part
    d = yr * yr + yi * yi
    return ((xr * yr + xi * yi) << wp) // d, ((xi * yr - xr * yi) << wp) // d


def _from_fixed(mctx, z: tuple, wp: int):
    # a pair scaled by 2^wp as an mpc of mctx, each part rounded to nearest
    (re, im), prec = z, mctx.prec
    return mctx.make_mpc((from_man_exp(re, -wp, prec, round_nearest),
                          from_man_exp(im, -wp, prec, round_nearest)))


def _abs2(mctx, v):
    # |v|^2 = Re^2 + Im^2 of an mpc (or mpf), exact
    return mctx.fadd(mctx.fmul(v.real, v.real, exact=True),
                     mctx.fmul(v.imag, v.imag, exact=True), exact=True)


def _float_log(v) -> float:
    # ln v of a positive mpf as a float, also past the float range
    return math.log(v.man) + v.exp * math.log(2)


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
    log_r2 = _float_log(r2)
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
    return total / (w * _constants(mctx).sqrt_pi)


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
    r2 = _abs2(mctx, zz)
    if float(r2) > mctx.dps * math.log(10):  # inf past the float range
        return asymptotic_series(zz, r2, mctx)
    cancel = max(0, math.ceil(float((zz * zz).real) * math.log10(math.e)))
    wctx = mp_context(mctx.dps + round_widening(cancel + 10))
    # a real z (the ladder's base case on the imaginary w axis) takes the
    # real summator, 1.2-1.4x faster than the complex one at zero imag
    zw = wctx.convert(zz.real if zz.imag == 0 else zz)
    z2 = zw * zw
    try:
        kummer = wctx.hypsum(1, 1, ("Z", "Q"), (1, _constants(wctx).three_halves), z2)
    except (ValueError, wctx.NoConvergence) as exc:
        raise PrecisionError(
            "erfcx: the Kummer series 1F1(1; 3/2; z^2) at z = %s did not "
            "converge (%s)" % (mctx.nstr(zz, 8), exc)
        ) from exc
    return mctx.mpc(wctx.exp(z2) - 2 * zw / _constants(wctx).sqrt_pi * kummer)


def _bits(v: tuple) -> int:
    return max(v[0].bit_length(), v[1].bit_length())  # of a fixed-point pair


def _sweep_loss(m: int, log2_z: float) -> float:
    # log10 of the sweep's amplification prod_{k<m} max(1, 2|z|/(2k+1)),
    # times 1/min(1, |z|/(m + 1/2)), the smallness of the |u_m| it ends on.
    # The n factors above 1 are those with 2k + 1 < 2|z|; their product is
    # (2|z|)^n / (2n - 1)!!, with (2n - 1)!! = (2n)! / (2^n n!)
    n = m if log2_z > 60 else min(m, max(0, math.ceil(2.0 ** log2_z - 0.5)))
    odd = (math.lgamma(2 * n + 1) - math.lgamma(n + 1)) / math.log(2) - n
    loss = n * (1 + log2_z) - odd + max(0.0, math.log2(m + 0.5) - log2_z)
    return loss * math.log10(2)


def _gamma_widening(loss: float, digits: int) -> int:
    # the digits the sweep loses, plus a guard; the loss check catches more
    return digits + round_widening(math.ceil(loss) + 10)


def upper_incomplete_gamma_half_ladder(
    m_max: int, w, ctx: PrecisionContext = DEFAULT_CONTEXT
):
    """e^z Gamma(1/2 - m_max, z) at z = w^2, w = y + ix != 0 with y >= 0 and
    x >= 0, the end of one downward sweep of the incomplete-gamma recurrence
    (DLMF 8.8.2), as an mpc good to ctx.digits.

    The sweep runs on the scaled values u_k = e^z Gamma(1/2 - k, z) w^{2k+1},
    which stay O(1): near 1 while k << |z|, and near |z|/k past it. As
    arg w lies in [0, pi/2], w is the principal sqrt z, so u_0 = sqrt(pi) w
    erfcx(w), and G_{a-1} = (G_a - z^{a-1})/(a - 1) for G_a = e^z Gamma(a, z)
    becomes

        u_{k+1} = 2z (1 - u_k) / (2k + 1),

    summed on Python integers scaled by 2^wp (mpmath's fixed-point idiom,
    by ``_fixed``): each step is one ``_fixed_mul`` and one floor division
    by 2k + 1 per component. The result is u_m w^{-2m-1}. z is squared
    exactly from w as the sweep's context holds it, before its one floor.

    The sweep multiplies the error of u_k by |2z/(2k+1)| per step, so its
    precision is the requested digits widened by the log10 of
    prod_{k<m} max(1, 2|z|/(2k+1)), and of max(1, (m + 1/2)/|z|) for the
    |u_m| it ends on, plus 10 digits, rounded up to a multiple of 10; log2|z|
    comes from the exact |z| = x^2 + y^2 in binary, never from a float of
    |z|. At the optimal cut m ~ |z| the product is about e^{|z|}/sqrt 2, the
    |z| log10 e digits the sweep loses there; at m << |z| it is about
    m log10(2|z|).

    An a-posteriori loss check bounds the error e_k of u_k in units of 2^-wp.
    It presumes z is w^2 exactly: the sweep would multiply a mismatch between
    u_0, formed from w, and 2z by up to the 10^loss it widens for, and no
    term below counts it. The base case is allowed e_0 = 32 max(1, |u_0|),
    for the roundings of erfcx's series (a few dozen terms at most) and of
    two products. In a step, 1 - u_k is exact; the floors of the helpers'
    error model fall on 2z 2^wp (below sqrt 2, times |1 - u_k|) and on the
    product's shift (below sqrt 2), and the division floors the quotient
    once more (below sqrt 2), so

        e_{k+1} <= |2z/(2k+1)| e_k + sqrt(2) ((2 + |u_k|)/(2k+1) + 1)
                <= |2z/(2k+1)| e_k + sqrt(2) (3 + |u_k|).

    The bound is kept as a float log2, with |u_k| < 2^(b - wp + 1/2) for b
    the larger bit length of its two integers, and |u_m| >= 2^(b - wp - 1).
    The digits attained are log10 |u_m| / e_m less one bit; the rounding of
    the final power is far below the 10 guard digits. A sweep short of the
    requested digits is run once more, widened by the shortfall plus 10
    digits; a second shortfall is a PrecisionError carrying ``attained``.
    """
    if m_max < 0:
        raise DomainError("m_max must be nonnegative, got %r" % (m_max,))
    if m_max > GAMMA_RECURRENCE_CAP:
        raise DomainError(
            "recurrence depth %d exceeds the configured cap %d"
            % (m_max, GAMMA_RECURRENCE_CAP)
        )
    mctx = ctx.mp()
    if not (w and mctx.isfinite(w) and w.real >= 0 and w.imag >= 0):
        raise DomainError("the incomplete-gamma ladder requires a finite w != 0 in the "
                          "first quadrant, got %s" % (w,))
    abs_z = _abs2(mctx, w)
    log2_z = _float_log(abs_z) / math.log(2)
    log2_2z = 1 + log2_z
    effective = _gamma_widening(_sweep_loss(m_max, log2_z), ctx.digits)
    attained = 0.0
    for attempt in range(2):
        wctx = mp_context(effective)
        wp = wctx.prec
        root = wctx.mpc(w)
        u = _constants(wctx).sqrt_pi * root * erfcx(root, wctx)
        ur, ui = _fixed(u, wp)
        two_z = _fixed(wctx.fmul(root, root, exact=True), wp + 1)
        one = 1 << wp
        # err: log2 of the bound on the error of u_k, in units of 2^-wp
        err = 5 + max(0, _bits((ur, ui)) - wp + 0.5)
        for k in range(m_max):
            b = _bits((ur, ui)) - wp
            grown = err + log2_2z - math.log2(2 * k + 1)
            added = 1.5 + max(_LOG2_3, b + 0.5)  # log2 sqrt(2) (3 + |u_k|)
            top = max(grown, added)
            err = top + math.log2(1 + 2.0 ** (min(grown, added) - top))
            pr, pi = _fixed_mul(two_z, (one - ur, -ui), wp)
            ur, ui = pr // (2 * k + 1), pi // (2 * k + 1)
        b = _bits((ur, ui))
        attained = max(0.0, (b - 2 - err) * math.log10(2)) if b else 0.0
        if attained >= ctx.digits:
            return _from_fixed(wctx, (ur, ui), wp) * root ** (-2 * m_max - 1)
        effective += round_widening(int(math.ceil(ctx.digits - attained)) + 10)
    raise PrecisionError(
        "incomplete-gamma recurrence at m=%d, |z|=%s attained only %.0f of "
        "%d requested digits despite widening"
        % (m_max, mctx.nstr(abs_z, 3), attained, ctx.digits),
        attained=attained,
    )


def _fraction_sweep(m: int, z: tuple, wp: int, stop: float, limit: int):
    # at most limit pairs of steps on z scaled by 2^wp: F = q 2^-scale as (q, scale, pairs)
    a1, a2, b1, b2 = (1 << wp, 0), (2 << wp, 0), z, (2 * z[0] + ((2 * m + 1) << wp), 2 * z[1])
    log2_prod, sa, sb = math.log2(2 * m + 1), 0, 0  # log2 a_1 ... a_n; A's and B's shifts
    for j in range(1, limit + 1):
        e = 2 * m + 1 + 2 * j
        t = _fixed_mul(z, a2, wp)
        a1 = t[0] + 2 * j * a1[0], t[1] + 2 * j * a1[1]
        a2 = 2 * a1[0] + e * a2[0], 2 * a1[1] + e * a2[1]
        t = _fixed_mul(z, b2, wp)
        b1 = t[0] + 2 * j * b1[0], t[1] + 2 * j * b1[1]
        b2 = 2 * b1[0] + e * b2[0], 2 * b1[1] + e * b2[1]
        log2_prod += math.log2(2 * j * e)
        s = max(0, _bits(a1) - wp, _bits(a2) - wp)
        a1, a2, sa = (a1[0] >> s, a1[1] >> s), (a2[0] >> s, a2[1] >> s), sa + s
        s = max(0, _bits(b1) - wp, _bits(b2) - wp)
        b1, b2, sb = (b1[0] >> s, b1[1] >> s), (b2[0] >> s, b2[1] >> s), sb + s
        # a_1 ... a_n / |A_n B_{n-1}|, with |X| >= 2^(bits - 1 + shift - wp)
        if log2_prod - _bits(a2) - _bits(b1) - sa - sb + 2 * wp + 2 <= -stop:
            return _fixed_div(a2, b2, wp), wp - sa + sb, j
    raise PrecisionError("Legendre's fraction at m = %d did not stop within its Gragg-Warner "
                         "limit of %d pairs" % (m, limit))


def upper_incomplete_gamma_half_fraction(m: int, w, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """e^z Gamma(1/2 - m, z) at z = w^2, w = y + ix with y > 0 and x >= 0, by
    Legendre's continued fraction (DLMF 8.9.2), as an mpc good to ctx.digits.

    With c = m + 1/2 it is w^{1-2m} F for the S-fraction in 1/z
    F = 1/(z + c/(1 + 1/(z + (c + 1)/(1 + 2/(z + ...))))) (Cuyt et al.,
    Handbook of Continued Fractions for Special Functions, 2008). Its
    convergents F_n = A_n/B_n, X_n = b_n X_{n-1} + a_n X_{n-2}, run with
    (a_n, b_n) = (2j, z) at n = 2j + 1 and (2m + 1 + 2j, 2) at n = 2j + 2 on
    integers scaled by 2^wp: z, exact from x and y, is floored once, z X_{n-1}
    is a ``_fixed_mul``, each pair of steps ends by shifting A's and B's last
    two convergents to wp bits, and F is one ``_fixed_div``.

    Stopping rule: with A_n B_{n-1} - A_{n-1} B_n = +-a_1 ... a_n, bit
    lengths bound |F_n - F_{n-1}|/|F_n| within a factor 8. The loop stops at
    the first even n where H times that is below 2^-p, p the working prec,
    H = 1 at arg w <= pi/4 and 1/sin(2 arg w) past it: |F - F_n| <= H
    |F_n - F_{n-1}| <= 2^-p |F_n| (Henrici and Pfluger 1966).

    Bound: F's coefficients in 1/z are c, 1, c + 1, 2, ...; the Gragg-Warner
    bound for S-fractions, with ln((s - 1)/(s + 1)) <= -2/s on 1, 2, 3, ...
    alone, gives ln|F - F_{2J+1}| <= ln(2/(ry)) - y (sqrt(y^2 + 4J + 4)
    - sqrt(y^2 + 4)), and |F| >= y/(r (r^2 + c)) as F is a Stieltjes
    transform of a probability measure of mean c (DLMF 8.6.4). So the rule
    has fired by J = T^2/(4y^2) + (T/2) sqrt(1 + 4/y^2) pairs, T = p ln 2
    + ln(64 H (r^2 + c)/y^2); a loop that reaches J is a PrecisionError.

    Rounding: each pair's floors err below 2^(2 - wp) relative to the pairs
    of convergents they touch, carried into F without growth by these
    dominant solutions: F errs below 2^(4 - wp) (n + 1) |F| after n pairs
    (tested against the loop at wp + 200 bits), so wp = p + bit_length(J)
    + 6. p is the prec of ctx.mp() widened by the about log10 m digits the
    power w^{1-2m} costs, rounded up by ``round_widening``, and by
    GUARD_DIGITS more: the margin past ctx.digits that the ladder's 10
    guard digits give its value.
    """
    mctx = ctx.mp(extra=GUARD_DIGITS + round_widening(len(str(m))))
    w = mctx.mpc(w)
    y, x = w.real, w.imag
    if m < 0 or not (mctx.isfinite(w) and y > 0 and x >= 0):
        raise DomainError("the fraction needs m >= 0, y > 0, x >= 0; got m = %r, w = %s" % (m, w))
    p, y2, r2 = mctx.prec, mctx.fmul(y, y, exact=True), _abs2(mctx, w)
    log_h = _float_log(r2 / (2 * x * y)) if x > y else 0.0
    T = p * math.log(2) + math.log(64) + log_h + _float_log(r2 + m + 1) - _float_log(y2)
    limit = int(mctx.ceil(T * T / (4 * y2) + T / 2 * mctx.sqrt(1 + 4 / y2)))
    wp = p + limit.bit_length() + 6
    z = _fixed(mctx.fmul(w, w, exact=True), wp)
    q, scale, _ = _fraction_sweep(m, z, wp, p + log_h / math.log(2), limit)
    return _from_fixed(mctx, q, scale) * w ** (1 - 2 * m)


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
    extra_points: Sequence = (),
    extra_dps: int = 0,
) -> QuadratureResult:
    """Integral of ``f`` over (0, inf) by double-exponential quadrature.

    ``extra_points`` are the real abscissae that split the path into
    tanh-sinh panels; nonpositive ones are dropped, and the rest are kept at
    the working precision, so one may lie below the float range. The caller
    places them at peaks and saddles, and around each pole of ``f`` near
    the path: a panel converges geometrically only while the poles stay far
    from it compared with its width. ``f`` may be complex. It must decay
    fast enough at infinity for the transformed rule to converge; all
    integrands in this package decay exponentially.

    Returns the value together with a conservative absolute error estimate.
    If the estimate cannot be driven below the absolute tolerance
    10^(6-digits), raises QuadratureError carrying the best value and the gap.
    """
    tol_ctx = ctx.mp(extra_dps)
    # an mpf: as a float it would underflow to 0 from 330 digits on
    tol = tol_ctx.mpf(10) ** (6 - ctx.digits)
    splits = sorted({s for s in (to_mpf(tol_ctx, p) for p in extra_points) if s > 0})

    attempt_dps = ctx.digits + GUARD_DIGITS + max(0, extra_dps)
    best = None
    best_err = None
    maxdegree = None
    for attempt in range(3):
        wctx = mp_context(attempt_dps)
        points = [wctx.mpf(0)]
        points.extend(wctx.mpf(s) for s in splits)
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
