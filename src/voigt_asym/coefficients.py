"""Expansion coefficients and Stokes geometry.

This module holds every coefficient entering the exponentially improved
expansions: the Laplace-method coefficients A_2k(phi, alpha) built from the
h_j sums, the uniform (Stokes-smoothing) coefficients B_2k and their hatted
companions, the pole proximity measure c(phi), and the error-function
smoothing factor E(phi).

``coefficient_set`` is the one way to get A, B and B^: a single pass fills
every order k = 0..k_max at one (phi, alpha). It builds u, the binomials
C(alpha, n) and the h_j once, from h_j = C(alpha, j) + u h_{j-1}. The
rational ingredients of A_2k, the Stirling coefficients gamma_k and the
table c_{j,k}, come from the exact series reversion of (1/2) w^2 =
t - log(1 + t), computed once per process; nothing is typed in by hand.
Off the Stokes line the pass is memoized in a small least-recently-used
cache, so theorem1 and theorem2 at one point share one pass.

The geometry, fixed throughout: a first-quadrant point has theta = arg w in
[0, pi/2] and phi = pi - 2 theta in [0, pi]. phi = 0 is the Stokes line. The
quantity u = e^{i phi}/(1 - e^{i phi}) that powers the h_j sums blows up as
phi -> 0, and the closed form for B_2k then suffers catastrophic cancellation
between its A-part and its c(phi)^{-2k-1} part, even though B_2k itself stays
bounded. At every phi > 0 one rule widens the pass by the cancellation depth
of its top order, (2 k_max + 3) log10(PHI_SWITCH/phi) digits, zero from
PHI_SWITCH on. At phi = 0 exactly, B_2k is its limit, a polynomial in alpha
for every k <= K_MAX, derived once per process from the same reversion
tables as an exact Laurent expansion whose pole is checked to cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Tuple

from mpmath.libmp import mpc_pos

from .exceptions import DomainError, UnsupportedOrderError
from .numerics import (
    DEFAULT_CONTEXT,
    PrecisionContext,
    erfcx,
    round_widening,
    to_mpf,
)
from .oracle import COORDINATE_MAG_MAX

# From this phi (radians) on, the closed form of B_2k cancels by under 3 digits
# at every k <= K_MAX, which guard digits absorb. benchmarks/tracer.py reads it.
PHI_SWITCH = 2.0

# A positive phi below 2^PHI_MIN_EXP (about 9.5e-1234) is refused: the B
# widening grows as (2 k_max + 3) log10(PHI_SWITCH/phi) digits, some 16,000
# at this bound and without limit below it, while phi = 2 atan2(y, x) of
# supported coordinates stays above 2^(PHI_MIN_EXP + 1).
PHI_MIN_EXP = -2 * COORDINATE_MAG_MAX

# Coefficient tables stop here; beyond is an error, never an extrapolation.
K_MAX = 5

# (2k-1)!! = 2^k (1/2)_k for k = 0..K_MAX
_DOUBLE_FACTORIAL = tuple(math.prod(range(1, 2 * k, 2)) for k in range(K_MAX + 1))


def _check_phi(mctx, phi):
    p = to_mpf(mctx, phi)
    if not 0 <= p <= mctx.pi * (1 + mctx.mpf(10) ** (-10)):  # NaN fails too
        raise DomainError("phi must lie in [0, pi], got %s" % (p,))
    if 0 < p < mctx.ldexp(1, PHI_MIN_EXP):
        raise DomainError(
            "phi = %s is below the supported 2^%d; use phi = 0 for the Stokes line"
            % (mctx.nstr(p, 5), PHI_MIN_EXP)
        )
    return p


def _polynomial(mctx, coeffs, x):
    value = mctx.mpf(0)
    for c in reversed(coeffs):
        value = value * x + mctx.convert(c)
    return value


def _h_sums(alpha, u, n: int) -> list:
    """h_0..h_n with h_j = sum_{r <= j} C(alpha, j - r) u^r, by the
    recurrence h_j = C(alpha, j) + u h_{j-1}; C(alpha, j) is the falling
    product. Works in the arithmetic of alpha and u (exact for Fractions)."""
    binom = alpha * 0 + 1  # one, in alpha's arithmetic (alpha may be zero)
    h = [binom]
    for j in range(1, n + 1):
        binom *= (alpha - (j - 1)) / j
        h.append(binom + u * h[-1])
    return h


def _c_raw(mctx, phi):
    # principal square root of 2(1 - i phi - e^{-i phi}) = 4 sin^2(phi/2)
    # - 2i (phi - sin phi), in the closed fourth quadrant for phi in [0, pi],
    # so the principal branch is the continuous one with c ~ phi near 0.
    # phi - sin phi costs c log10(1/phi) digits, more than the guard digits
    # cover below phi = 1e-3, where it comes from its series instead
    cos_half, sin_half = mctx.cos_sin(phi / 2)
    if phi < 0.001:
        term = diff = phi**3 / 6
        k = 1
        while abs(term) > mctx.eps * diff:
            term *= -phi * phi / ((2 * k + 2) * (2 * k + 3))
            diff += term
            k += 1
    else:
        diff = phi - 2 * sin_half * cos_half
    return mctx.sqrt(mctx.mpc(4 * sin_half * sin_half, -2 * diff))


def c_of_phi(phi, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """Pole-proximity measure c(phi): the root of (1/2) c^2 = 1 - i phi
    - e^{-i phi} on the branch with c(phi) ~ phi near phi = 0. Lies in the
    closed fourth quadrant for phi in [0, pi]."""
    mctx = ctx.mp()
    return _c_raw(mctx, _check_phi(mctx, phi))


def E_of_phi(phi, r, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """Stokes smoothing factor E(phi) = sqrt(2 pi) e^{zeta^2} erfc(zeta)
    with zeta = c(phi) r / sqrt(2), evaluated as sqrt(2 pi) erfcx(zeta) by
    the scaled kernel (zeta lies in the closed fourth quadrant, its domain),
    which never forms e^{-zeta^2} only to cancel it. E(0) = sqrt(2 pi)."""
    mctx = ctx.mp()
    p = _check_phi(mctx, phi)
    rr = to_mpf(mctx, r)
    if not rr > 0:
        raise DomainError("E_of_phi needs r > 0, got %s" % (rr,))
    zeta = _c_raw(mctx, p) * rr / mctx.sqrt(2)
    return mctx.sqrt(2 * mctx.pi) * erfcx(zeta, mctx)


def _b_widening(mctx, phi, k: int) -> int:
    # B_2k cancels across about (2k+3) log10(PHI_SWITCH/phi) digits; log10 of
    # the mpf itself widens a phi below the float range (1e-400, say) too
    return round_widening(max(0, math.ceil((2 * k + 3) * float(mctx.log10(PHI_SWITCH / phi)))))


@dataclass(frozen=True)
class CoefficientSet:
    """A_2k, B_2k, and B^_2k for k = 0..k_max at one (phi, alpha).

    ``A`` is None at phi = 0, where h_j and with them the A_2k are singular.
    """

    A: Optional[Tuple]
    B: Tuple
    Bhat: Tuple


def coefficient_set(
    phi, alpha, k_max: int, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> CoefficientSet:
    """Every expansion coefficient of order k = 0..k_max at (phi, alpha).

    A_2k = (-1)^k gamma_k + sum_{j=2}^{2k} c_{j,k} h_j(phi, alpha);
    B_2k = e^{i phi alpha} A_2k / (1 - e^{i phi})
    - i (-1)^k 2^k (1/2)_k / c(phi)^{2k+1}, run with internal precision
    widened by the (2 k_max + 3) log10(PHI_SWITCH/phi) digits its parts cancel;
    B^_2k = -2 i e^{i phi (1/2 - alpha)} B_2k. At phi = 0, B_2k is its
    limit, a real polynomial in alpha derived exactly for every k <= K_MAX.

    At phi > 0 the pass is memoized on (phi, alpha, k_max, ctx.digits),
    phi and alpha as the mpf values of the working context, in a
    least-recently-used cache of 8 entries, so theorem1 and theorem2 at one
    point share one pass. Every refusal runs before the cache is consulted.
    """
    if not 0 <= k_max <= K_MAX:
        raise UnsupportedOrderError(
            "coefficient sets stop at k_max = %d, got %r" % (K_MAX, k_max)
        )
    mctx = ctx.mp()
    p = _check_phi(mctx, phi)
    a = to_mpf(mctx, alpha)
    if not mctx.isfinite(a):
        raise DomainError("alpha must be finite, got %s" % (a,))
    if p == 0:
        B = tuple(mctx.mpc(_polynomial(mctx, poly, a)) for poly in _stokes_limits()[: k_max + 1])
        return CoefficientSet(A=None, B=B, Bhat=tuple(-2j * b for b in B))
    return _coefficient_pass(p, a, k_max, ctx)


# theorem1 and theorem2 at one point ask for the same pass back to back; a
# few entries serve that. The bound stays below the 11 angles per radius of
# the scan benchmark, whose traced replay of a radius must meet none of the
# passes its untraced run of the same ops left behind
@lru_cache(maxsize=8)
def _coefficient_pass(phi, alpha, k_max: int, ctx: PrecisionContext) -> CoefficientSet:
    """The pass of ``coefficient_set`` at phi > 0, phi and alpha being mpf
    of ``ctx.mp()``. The key holds ctx, so each precision has its own entry.
    The pass runs in that context widened by ``_b_widening``, and its
    numbers are rounded to ``ctx.mp()``: by libmp, as mctx.mpc(v) rounds but
    in a third of the time."""
    mctx = ctx.mp()
    wctx = ctx.mp(extra=_b_widening(mctx, phi, k_max))
    parts = _closed_forms(wctx, wctx.convert(phi), wctx.convert(alpha), k_max)
    rounded = (tuple(mctx.make_mpc(mpc_pos(v._mpc_, mctx.prec, "n")) for v in p) for p in parts)
    return CoefficientSet(*rounded)


@lru_cache(maxsize=None)
def _laplace_tables_in(mctx):
    """(-1)^k gamma_k and the c_{j,k} rows as numbers of ``mctx``, cached."""
    gamma, cjk = _laplace_tables()
    return (
        tuple(mctx.mpc(mctx.convert((-1) ** k * g)) for k, g in enumerate(gamma)),
        tuple(tuple(mctx.convert(c) for c in row) for row in cjk),
    )


def _closed_forms(mctx, phi, alpha, k_max: int):
    signed_gamma, cjk = _laplace_tables_in(mctx)
    e = mctx.expj(phi)
    h = _h_sums(alpha, e / (1 - e), 2 * k_max)
    to_B = mctx.expj(phi * alpha) / (1 - e)
    to_Bhat = -2j * mctx.expj(phi * (mctx.mpf(1) / 2 - alpha))
    c = _c_raw(mctx, phi)
    c_sq = c * c
    c_pow = c  # c^{2k+1}
    A, B, Bhat = [], [], []
    for k in range(k_max + 1):
        a_k = signed_gamma[k]
        for j, c_jk in enumerate(cjk[k], start=2):
            a_k += c_jk * h[j]
        b_k = to_B * a_k - 1j * (-1) ** k * _DOUBLE_FACTORIAL[k] / c_pow
        A.append(a_k)
        B.append(b_k)
        Bhat.append(to_Bhat * b_k)
        c_pow *= c_sq
    return A, B, Bhat


# ---------------------------------------------------------------------------
# Series reversion: the rational ingredients of A_2k, in exact arithmetic.
# ---------------------------------------------------------------------------

def _series_mul(a: List[Fraction], b: List[Fraction], n: int) -> List[Fraction]:
    out = [Fraction(0)] * n
    for i, ai in enumerate(a[:n]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: n - i]):
            if bj:
                out[i + j] += ai * bj
    return out


def _series_recip(a: List[Fraction], n: int) -> List[Fraction]:
    # reciprocal of a power series with a[0] != 0
    if a[0] == 0:
        raise DomainError("series reciprocal needs a nonzero constant term")
    inv0 = Fraction(1) / a[0]
    out = [inv0] + [Fraction(0)] * (n - 1)
    for i in range(1, n):
        s = Fraction(0)
        for j in range(1, min(i, len(a) - 1) + 1):
            s += a[j] * out[i - j]
        out[i] = -inv0 * s
    return out


def _series_sqrt(a: List[Fraction], n: int) -> List[Fraction]:
    # square root of a power series with a[0] = 1
    if a[0] != 1:
        raise DomainError("series square root implemented for unit constant term")
    out = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for i in range(1, n):
        s = Fraction(0)
        for j in range(1, i):
            s += out[j] * out[i - j]
        ai = a[i] if i < len(a) else Fraction(0)
        out[i] = (ai - s) / 2
    return out


@dataclass(frozen=True)
class ReversionSeries:
    """The reverted saddle variable t(w) and the ratio w/t as exact series.

    ``t_of_w[i]`` is the coefficient of w^i in t(w) (so [0] = 0, [1] = 1);
    ``w_over_t[i]`` is the coefficient of w^i in w/t(w) (so [0] = 1).
    """

    t_of_w: Tuple[Fraction, ...]
    w_over_t: Tuple[Fraction, ...]
    order: int


def reversion_series(order: int = 12) -> ReversionSeries:
    """Invert (1/2) w^2 = t - log(1 + t) as exact rational series.

    Writing 2(t - log(1+t)) = t^2 S(t), the map is w = t sqrt(S(t)) and the
    inverse coefficients come from Lagrange inversion:
    [w^n] t(w) = (1/n) [t^{n-1}] S(t)^{-n/2}.
    """
    if order < 2:
        raise DomainError("reversion order must be at least 2")
    n = order + 1
    # S(t) = sum_i 2 (-1)^i / (i + 2) t^i
    S = [Fraction(2 * (-1) ** i, i + 2) for i in range(n)]
    inv_sqrt_S = _series_recip(_series_sqrt(S, n), n)
    t_of_w: List[Fraction] = [Fraction(0), Fraction(1)]
    power = inv_sqrt_S  # S^{-m/2}, one multiplication per m
    for m in range(2, n):
        power = _series_mul(power, inv_sqrt_S, n)
        t_of_w.append(power[m - 1] / m)
    t_over_w = t_of_w[1:]  # t(w)/w, constant term 1
    w_over_t = _series_recip(t_over_w, n - 1)
    return ReversionSeries(t_of_w=tuple(t_of_w), w_over_t=tuple(w_over_t), order=order)


@lru_cache(maxsize=None)
def _laplace_tables() -> Tuple[Tuple[Fraction, ...], Tuple[Tuple[Fraction, ...], ...]]:
    """(gamma, cjk): the Stirling coefficients gamma_k and the rows
    cjk[k] = (c_{2,k}, ..., c_{2k,k}) for k = 0..K_MAX, exact.

    The Laplace integrand contributes w t(w)^{j-1} alongside h_j, so
    c_{j,k} = (2k-1)!! [w^{2k-1}] t(w)^{j-1}, and the h-free term
    (2k-1)!! [w^{2k}] (w/t) is (-1)^k gamma_k. Built once per process.
    """
    series = reversion_series(2 * K_MAX + 1)
    t = list(series.t_of_w)
    n = 2 * K_MAX  # coefficients up to w^{2 K_MAX - 1} are read
    t_pows = [[Fraction(1)] + [Fraction(0)] * (n - 1)]  # t^0, t^1, ...
    for _ in range(2 * K_MAX - 1):
        t_pows.append(_series_mul(t_pows[-1], t, n))
    gamma = tuple(
        (-1) ** k * _DOUBLE_FACTORIAL[k] * series.w_over_t[2 * k] for k in range(K_MAX + 1)
    )
    cjk = tuple(
        tuple(_DOUBLE_FACTORIAL[k] * t_pows[j - 1][2 * k - 1] for j in range(2, 2 * k + 1))
        for k in range(K_MAX + 1)
    )
    return gamma, cjk


@lru_cache(maxsize=None)
def _stokes_limits() -> Tuple[Tuple[Fraction, ...], ...]:
    """The phi -> 0 limits of B_0..B_{2 K_MAX} as polynomials in alpha,
    constant coefficient first, exact. Built once per process, on the first
    phi = 0 request.

    With phi = i t every factor of B_2k is a real rational series in t:
    u = 1/(e^t - 1), e^{i phi alpha}/(1 - e^{i phi}) = e^{-t alpha}/(1 - e^{-t})
    and c = i t sqrt(S(t)) with S(t) = 2(e^t - 1 - t)/t^2, so
    t^{2k+1} B_2k = (t/(1 - e^{-t})) e^{-t alpha} t^{2k} A_2k
    - (2k-1)!! S(t)^{-k-1/2}. Its coefficients of t^0..t^{2k} are the pole
    and must cancel; that of t^{2k+1} is the constant term of the Laurent
    series, which the substitution leaves unchanged, so the limit is real.
    It has degree 2k+1 in alpha, so its values at alpha = 0..2k+1 fix it.
    """
    gamma, cjk = _laplace_tables()
    n = 2 * K_MAX + 2  # t^0..t^{2 K_MAX + 1}
    exp_t = [Fraction(1, math.factorial(i)) for i in range(n + 2)]
    t_u = _series_recip(exp_t[1:], n)  # t u = t/(e^t - 1)
    to_B = _series_mul(exp_t, t_u, n)  # t/(1 - e^{-t})
    S = [2 * e for e in exp_t[2:]]
    poles = [_series_recip(_series_sqrt(S, n), n)]  # S^{-k-1/2}
    inv_S = _series_recip(S, n)
    for _ in range(K_MAX):
        poles.append(_series_mul(poles[-1], inv_S, n))
    values = [[] for _ in range(K_MAX + 1)]  # values[k][alpha]
    for alpha in range(n):
        # t^j h_j = C(alpha, j) t^j + (t u) t^{j-1} h_{j-1}
        h = [[Fraction(1)] + [Fraction(0)] * (n - 1)]
        for j in range(1, 2 * K_MAX + 1):
            h.append(_series_mul(t_u, h[-1], n))
            h[-1][j] += math.comb(alpha, j)
        head = _series_mul(to_B, [Fraction((-alpha) ** i, math.factorial(i)) for i in range(n)], n)
        for k in range(K_MAX + 1):
            t_A = [Fraction(0)] * n  # t^{2k} A_2k
            t_A[2 * k] = (-1) ** k * gamma[k]
            for j, c in enumerate(cjk[k], start=2):
                for i, v in enumerate(h[j][: n - 2 * k + j]):
                    t_A[i + 2 * k - j] += c * v
            t_B = _series_mul(head, t_A, 2 * k + 2)
            t_B = [b - _DOUBLE_FACTORIAL[k] * s for b, s in zip(t_B, poles[k])]
            if any(t_B[:-1]):
                raise ArithmeticError(
                    "the pole of B_%d does not cancel at phi = 0 (alpha = %d)" % (2 * k, alpha)
                )
            values[k].append(t_B[-1])
    return tuple(_interpolate(v[: 2 * k + 2]) for k, v in enumerate(values))


def _interpolate(values: List[Fraction]) -> Tuple[Fraction, ...]:
    # coefficients of the polynomial of least degree through (x, values[x]),
    # x = 0..len - 1, by Lagrange's formula
    n = len(values)
    poly = [Fraction(0)] * n
    for x, y in enumerate(values):
        basis = [Fraction(1)]
        for node in range(n):
            if node != x:
                factor = [Fraction(-node, x - node), Fraction(1, x - node)]
                basis = _series_mul(basis, factor, len(basis) + 1)
        poly = [p + y * b for p, b in zip(poly, basis)]
    return tuple(poly)
