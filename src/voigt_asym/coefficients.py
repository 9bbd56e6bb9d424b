"""Expansion coefficients and Stokes geometry.

This module holds every coefficient entering the exponentially improved
expansions: the Laplace-method coefficients A_2k(phi, alpha) built from the
h_j sums, the uniform (Stokes-smoothing) coefficients B_2k and their hatted
companions, the pole proximity measure c(phi), and the error-function
smoothing factor E(phi).

One pass per (phi, alpha, precision) serves every order k <= K_MAX from one
pair cos, sin(phi/2), building each order when first read: u = (-1 + i
cot(phi/2))/2, the h_j = C(alpha, j) + u h_{j-1} and the A_2k for theorem1;
B_2k and c(phi) for theorem2, from one phase p = e^{i phi (alpha - 1/2)} and
e^{i phi alpha}/(1 - e^{i phi}) = i p/(2 sin(phi/2)); B^_2k = -2i conj(p)
B_2k for ``coefficient_set`` alone. Those few transcendental inputs are
floating point; the h_j, A_2k, B_2k and the pole powers c^{-2k-1} are
summed in one fixed-point sweep on Python integers scaled by 2^wp (by the
fixed-point helpers of ``numerics``), wp the widened precision plus
``PASS_GUARD_BITS``, chosen from the rounding bound ``_Pass`` states, and
each coefficient is rounded once to the working context. Off the Stokes
line passes are memoized on (phi, alpha, digits) in a small LRU cache, so
both estimates at any orders share one per point, and ``table1`` builds 2
passes. The Stirling gamma_k and the table c_{j,k} come from the exact
series reversion of (1/2) w^2 = t - log(1 + t), once per process, and
enter the sweep as integers per wp; nothing is typed in by hand.

The geometry, fixed throughout: a first-quadrant point has theta = arg w in
[0, pi/2] and phi = pi - 2 theta in [0, pi]. phi = 0 is the Stokes line. The
quantity u = e^{i phi}/(1 - e^{i phi}) that powers the h_j sums blows up as
phi -> 0, and the closed form for B_2k then suffers catastrophic cancellation
between its A-part and its c(phi)^{-2k-1} part, even though B_2k itself stays
bounded; every pass at phi > 0 is widened for the top order K_MAX
(``_b_widening``). At phi = 0 exactly, B_2k is its limit, a polynomial in
alpha for every k <= K_MAX, derived once per process from the same tables
as an exact Laurent expansion whose pole is checked to cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Tuple

from .exceptions import DomainError, UnsupportedOrderError
from .numerics import (
    DEFAULT_CONTEXT,
    PrecisionContext,
    _constants,
    _fixed,
    _fixed_mul,
    _float_log,
    _from_fixed,
    erfcx,
    round_widening,
    to_mpf,
)
from .oracle import COORDINATE_MAG_MAX

# From this phi (radians) on, the closed form of B_2k cancels by under 3 digits
# at every k <= K_MAX, which guard digits absorb. benchmarks/tracer.py reads it.
PHI_SWITCH = 2.0

# A positive phi below 2^PHI_MIN_EXP (about 9.5e-1234) is refused: the B
# widening grows as (2 K_MAX + 3) log10(PHI_SWITCH/phi) digits, some 16,000
# at this bound and without limit below it, while phi = 2 atan2(y, x) of
# supported coordinates stays above 2^(PHI_MIN_EXP + 1).
PHI_MIN_EXP = -2 * COORDINATE_MAG_MAX

# Coefficient tables stop here; beyond is an error, never an extrapolation.
K_MAX = 5

# Bits the fixed-point coefficient pass carries past its widened context's
# prec, for the floors its rounding bound counts (see _Pass)
PASS_GUARD_BITS = 24

# (2k-1)!! = 2^k (1/2)_k for k = 0..K_MAX
_DOUBLE_FACTORIAL = tuple(math.prod(range(1, 2 * k, 2)) for k in range(K_MAX + 1))


def _check_phi(mctx, phi):
    p = to_mpf(mctx, phi)
    if not 0 <= p <= _constants(mctx).phi_max:  # NaN fails too
        raise DomainError("phi must lie in [0, pi], got %s" % (p,))
    if 0 < p and mctx.mag(p) <= PHI_MIN_EXP:  # p < 2^PHI_MIN_EXP
        raise DomainError(
            "phi = %s is below the supported 2^%d; use phi = 0 for the Stokes line"
            % (mctx.nstr(p, 5), PHI_MIN_EXP)
        )
    return p


def _h_sweep(alpha: int, u: tuple, n: int, wp: int) -> list:
    """h_0..h_n by h_j = C(alpha, j) + u h_{j-1}, on integers scaled by
    2^wp: ``alpha`` one of them, ``u`` and each h_j a pair (re, im). The
    binomial C(alpha, j) = C(alpha, j-1) (alpha - j + 1)/j takes one floor
    for its product and one for its division by j, and u h_{j-1} one per
    part."""
    one = 1 << wp
    binom, h = one, [(one, 0)]
    for j in range(1, n + 1):
        binom = ((binom * (alpha - (j - 1) * one)) >> wp) // j
        hr, hi = _fixed_mul(u, h[-1], wp)
        h.append((binom + hr, hi))
    return h


def _c_raw(mctx, phi, cos_half, sin_half):
    # principal square root of 2(1 - i phi - e^{-i phi}) = 4 sin^2(phi/2)
    # - 2i (phi - sin phi), in the closed fourth quadrant for phi in [0, pi],
    # so the principal branch is the continuous one with c ~ phi near 0.
    # phi - sin phi cancels across about 2 log10(1/phi) digits, fewer than the
    # 13 log10(PHI_SWITCH/phi) that _b_widening gives the pass's mctx
    return mctx.sqrt(mctx.mpc(4 * sin_half * sin_half, -2 * (phi - 2 * sin_half * cos_half)))


def _E_of_c(mctx, c, r):
    # E(phi) = sqrt(2 pi) erfcx(zeta), zeta = c(phi) r / sqrt 2, from a c(phi) at hand
    return _constants(mctx).sqrt_2pi * erfcx(c * r / _constants(mctx).sqrt2, mctx)


def _b_widening(phi) -> int:
    # B_2k cancels across about (2k+3) log10(PHI_SWITCH/phi) digits, most at
    # k = K_MAX; the float log takes a phi below the float range too, and
    # one just below PHI_SWITCH (float log 0) gets 1
    if phi >= PHI_SWITCH:
        return 0
    log10_ratio = (math.log(PHI_SWITCH) - _float_log(phi)) / math.log(10)
    return round_widening(max(1, math.ceil((2 * K_MAX + 3) * log10_ratio)))


@dataclass(frozen=True)
class CoefficientSet:
    """A_2k, B_2k, and B^_2k for k = 0..k_max at one (phi, alpha), with the
    c(phi) of their pole terms. ``A`` is None at phi = 0, where h_j and with
    them the A_2k are singular."""

    A: Optional[Tuple]
    B: Tuple
    Bhat: Tuple
    c: object


def coefficient_set(
    phi, alpha, k_max: int, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> CoefficientSet:
    """Every expansion coefficient of order k = 0..k_max at (phi, alpha).

    A_2k = (-1)^k gamma_k + sum_{j=2}^{2k} c_{j,k} h_j(phi, alpha);
    B_2k = e^{i phi alpha} A_2k / (1 - e^{i phi})
    - i (-1)^k 2^k (1/2)_k / c(phi)^{2k+1}, run widened by the digits the
    parts of the top order K_MAX cancel (``_b_widening``); B^_2k =
    -2 i e^{i phi (1/2 - alpha)} B_2k. At phi = 0, B_2k is its limit, a
    real polynomial in alpha. The set holds c(phi) too, the pole-proximity
    measure: the root of (1/2) c^2 = 1 - i phi - e^{-i phi} with c ~ phi
    near phi = 0, in the closed fourth quadrant for phi in [0, pi] (0 at
    phi = 0).

    At phi > 0 the pass is memoized on (phi, alpha, ctx.digits), phi and
    alpha as mpf values of the working context, in an LRU cache of 8
    entries that every order shares. Every refusal, k_max's first, runs
    before the cache is consulted.
    """
    if not 0 <= k_max <= K_MAX:
        raise UnsupportedOrderError(
            "coefficient sets stop at k_max = %d, got %r" % (K_MAX, k_max)
        )
    return _pass(phi, alpha, ctx).as_set(k_max)


def _pass(phi, alpha, ctx: PrecisionContext) -> "_Pass":
    # the pass after every refusal of phi and alpha: memoized at phi > 0
    mctx = ctx.mp()
    p = _check_phi(mctx, phi)
    a = to_mpf(mctx, alpha)
    if not mctx.isfinite(a):
        raise DomainError("alpha must be finite, got %s" % (a,))
    return (_coefficient_pass if p else _Pass)(p, a, ctx)


class _Pass:
    """The coefficients at one (phi, alpha, ctx), each order built when first
    read: A_2k (theorem1), B_2k with c(phi) (theorem2), B^_2k in ``as_set``.
    At phi = 0 every B_2k is its derived limit and there is no A. A new top
    order redoes its family from the h_j on into new tuples, so threads never
    see one half built.

    At phi > 0 the pass is a fixed-point sweep. The transcendental inputs
    come from the context widened by ``_b_widening``: cos and sin of phi/2
    and u = (-1 + i cot(phi/2))/2, then for the B_2k the phase p, c(phi),
    t = i p/(2 sin(phi/2)) and 1/c. Each is converted once to integers
    scaled by 2^wp, wp = that context's prec + PASS_GUARD_BITS; gamma_k and
    c_{j,k} are integer tables per wp. On them

        h_j = C(alpha, j) + u h_{j-1},
        A_2k = (-1)^k gamma_k + sum_j c_{j,k} h_j,
        B_2k = t A_2k - i (-1)^k (2k-1)!! c^{-2k-1},

    the pole powers as integer products, and B^_2k = -2i conj(p) B_2k.
    Each coefficient is rounded once into ctx.mp().

    Every conversion and every product's shift floors by the error model of
    the fixed-point helpers in ``numerics``, and each division by j floors
    once more. With |x| the modulus of an exact input or result and
    eps = 2^-wp for the product of two errors, the errors in units of 2^-wp
    are at most

        C(alpha, j):  e_0 = 0, e_j = ((|alpha - j + 1| + eps) e_{j-1}
                      + |C(alpha, j - 1)| + 1)/j + 1
        h_j:          d_0 = 0, d_j = e_j + (|u| + eps) d_{j-1}
                      + |h_{j-1}| + sqrt 2
        A_2k:         a_k = 3 + sum_{j=2}^{2k} ((|c_{j,k}| + eps) d_j + |h_j|)
        1/c^2:        s = 2 sqrt(2) |1/c| + 2 eps + sqrt 2
        c^{-2k-1}:    q_0 = sqrt 2, q_k = (|1/c|^2 + eps s) q_{k-1}
                      + |1/c|^{2k-1} s + sqrt 2
        B_2k:         b_k = (|t| + sqrt(2) eps) a_k + sqrt(2) (|A_2k| + 1)
                      + (2k-1)!! q_k.

    Near the Stokes line these grow as |u|^j and |1/c|^{2k+1}, about
    phi^{-2k-1} at B_2k, as the parts of B_2k do; B_2k cancels across that
    growth, and ``_b_widening`` widens the pass for it. Apart from the
    growth they count floors: over the tests' draws (phi down to 1e-60,
    alpha in (-1, 1) and at -389.5 and 10.5, k <= K_MAX, 16 to 100 digits)
    each bound stays below 2^11 times the moduli of its coefficient's terms
    (gamma_k, the c_{j,k} h_j and the pole term). PASS_GUARD_BITS = 24
    covers those 11 bits with 13 to spare, so a coefficient errs by less
    than 2^-prec times the moduli of its terms: one rounding at the widened
    precision, as a floating-point pass would.
    """

    def __init__(self, phi, alpha, ctx: PrecisionContext):
        self._mctx = mctx = ctx.mp()
        if not phi:  # the phase p of B^ = -2i conj(p) B is 1 there
            limits = ([mctx.convert(c) for c in reversed(q)] for q in _stokes_limits())
            B = tuple(mctx.mpc(mctx.polyval(q, alpha)) for q in limits)
            self._wp, self._A, self._forms = None, None, (B, mctx.mpc(0), None)
            return
        self._wctx = wctx = ctx.mp(extra=_b_widening(phi))
        self._wp = wp = wctx.prec + PASS_GUARD_BITS
        self._at = wctx.convert(phi), wctx.convert(alpha)
        self._half = cos_half, sin_half = wctx.cos_sin(self._at[0] / 2)
        self.sin_half = sin_half
        # alpha and u = (-1 + i cot(phi/2))/2 as the sweep's integers
        cot_half = _fixed(cos_half / sin_half, wp - 1)
        self._sweep_in = _fixed(alpha, wp), (-1 << (wp - 1), cot_half)
        self._A, self._forms = (), ((),)

    def _rounded(self, values) -> tuple:
        if self._wp is None:  # the limits, already numbers of ctx.mp()
            return tuple(values)
        return tuple(_from_fixed(self._mctx, v, self._wp) for v in values)

    def _A_to(self, k: int) -> tuple:
        # A_0 up to at least A_2k, from the h_j
        A = self._A
        if len(A) <= k:
            wp = self._wp
            h = _h_sweep(*self._sweep_in, 2 * k, wp)[2:]
            signed_gamma, cjk = _laplace_tables_fixed(wp)
            A = self._A = tuple(
                (g + (sum(c * hr for c, (hr, _) in zip(row, h)) >> wp),
                 sum(c * hi for c, (_, hi) in zip(row, h)) >> wp)
                for g, row in zip(signed_gamma[: k + 1], cjk)
            )
        return A

    def A(self, k: int) -> tuple:
        """A_0..A_2k."""
        return self._rounded(self._A_to(k)[: k + 1])

    def _forms_to(self, k: int) -> tuple:
        # B_0 up to at least B_2k, with c(phi) rounded and B^'s phase p
        forms = self._forms
        if len(forms[0]) <= k:
            wctx, wp, (phi, alpha) = self._wctx, self._wp, self._at
            cos_half, sin_half = self._half
            p = wctx.expj(phi * (alpha - 0.5))
            c = _c_raw(wctx, phi, cos_half, sin_half)
            to_B = _fixed(1j * p / (2 * sin_half), wp)
            pole = _fixed(1 / c, wp)  # c^{-2k-1}
            inv_c_sq = _fixed_mul(pole, pole, wp)
            B = []
            for j, a_j in enumerate(self._A_to(k)):
                sign_df = (-1) ** j * _DOUBLE_FACTORIAL[j]
                br, bi = _fixed_mul(to_B, a_j, wp)
                B.append((br + sign_df * pole[1], bi - sign_df * pole[0]))
                pole = _fixed_mul(pole, inv_c_sq, wp)
            c = self._mctx.mpc(c)
            forms = self._forms = tuple(B), c, p
        return forms

    def uniform(self, k: int):
        """B_0..B_2k and c(phi)."""
        B, c, _ = self._forms_to(k)
        return self._rounded(B[: k + 1]), c

    def as_set(self, k_max: int) -> CoefficientSet:
        B, c, p = self._forms_to(k_max)
        B = B[: k_max + 1]
        if p is None:
            Bhat = [-2j * b for b in B]
        else:  # -2i conj(p) = -2 Im p - 2i Re p
            pr, pi = _fixed(p, self._wp)
            Bhat = [_fixed_mul((-2 * pi, -2 * pr), b, self._wp) for b in B]
        A = None if self._A is None else self.A(k_max)
        return CoefficientSet(A, self._rounded(B), self._rounded(Bhat), c)


# the estimates at one point ask for the same pass at any orders; a few
# entries serve that, and each precision has its own. The bound stays below
# the 11 angles per radius of the scan benchmark, whose traced replay of a
# radius must meet none of the passes its untraced run left behind
_coefficient_pass = lru_cache(maxsize=8)(_Pass)


@lru_cache(maxsize=None)
def _laplace_tables_fixed(wp: int):
    """(-1)^k gamma_k and the c_{j,k} rows as integers scaled by 2^wp,
    floored, cached per wp."""
    gamma, cjk = _laplace_tables()
    return (
        tuple(((-1) ** k * g.numerator << wp) // g.denominator for k, g in enumerate(gamma)),
        tuple(tuple((c.numerator << wp) // c.denominator for c in row) for row in cjk),
    )


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


def _reversion_series(order: int) -> Tuple[List[Fraction], List[Fraction]]:
    """Invert (1/2) w^2 = t - log(1 + t) as exact rational series, to w^order.

    Returns (t_of_w, w_over_t): ``t_of_w[i]`` is the coefficient of w^i in
    t(w) (so [0] = 0, [1] = 1), ``w_over_t[i]`` that of w^i in w/t(w) (so
    [0] = 1). Writing 2(t - log(1+t)) = t^2 S(t), the map is w = t sqrt(S(t))
    and the inverse coefficients come from Lagrange inversion:
    [w^n] t(w) = (1/n) [t^{n-1}] S(t)^{-n/2}.
    """
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
    return t_of_w, _series_recip(t_over_w, n - 1)


@lru_cache(maxsize=None)
def _laplace_tables() -> Tuple[Tuple[Fraction, ...], Tuple[Tuple[Fraction, ...], ...]]:
    """(gamma, cjk): the Stirling coefficients gamma_k and the rows
    cjk[k] = (c_{2,k}, ..., c_{2k,k}) for k = 0..K_MAX, exact.

    The Laplace integrand contributes w t(w)^{j-1} alongside h_j, so
    c_{j,k} = (2k-1)!! [w^{2k-1}] t(w)^{j-1}, and the h-free term
    (2k-1)!! [w^{2k}] (w/t) is (-1)^k gamma_k. Built once per process.
    """
    t, w_over_t = _reversion_series(2 * K_MAX + 1)
    n = 2 * K_MAX  # coefficients up to w^{2 K_MAX - 1} are read
    t_pows = [[Fraction(1)] + [Fraction(0)] * (n - 1)]  # t^0, t^1, ...
    for _ in range(2 * K_MAX - 1):
        t_pows.append(_series_mul(t_pows[-1], t, n))
    gamma = tuple(
        (-1) ** k * _DOUBLE_FACTORIAL[k] * w_over_t[2 * k] for k in range(K_MAX + 1)
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
