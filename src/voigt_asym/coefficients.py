"""Expansion coefficients and Stokes geometry.

This module holds every coefficient entering the exponentially improved
expansions: the Laplace-method coefficients A_2k(phi, alpha) built from the
h_k sums, the Stirling coefficients gamma_k, the c_{j,k} table, the uniform
(Stokes-smoothing) coefficients B_2k and their hatted companions, the pole
proximity measure c(phi), and the error-function smoothing factor E(phi).

The geometry, fixed throughout: a first-quadrant point has theta = arg w in
[0, pi/2] and phi = pi - 2 theta in [0, pi]. phi = 0 is the Stokes line. The
quantity u = e^{i phi}/(1 - e^{i phi}) that powers the h_k sums blows up as
phi -> 0, and the closed form for B_2k then suffers catastrophic cancellation
between its A-part and its c(phi)^{-2k-1} part, even though B_2k itself stays
bounded. Below PHI_SWITCH the closed form is therefore evaluated with
explicitly widened internal precision sized to the cancellation depth, which
keeps both branches in agreement to full context precision across the switch.
At phi = 0 exactly, the limits are served from stored polynomials in alpha
(available for B_0, B_2, B_4 only; higher orders are refused there).

An independent reversion pipeline regenerates the A-coefficients from scratch
in exact rational arithmetic and diffs them against the stored tables; it is
a build-time self test, not a runtime path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .exceptions import DomainError, SingularInputError, UnsupportedOrderError
from .numerics import (
    DEFAULT_CONTEXT,
    PrecisionContext,
    mp_context,
    pochhammer,
    round_widening,
    to_mpf,
)

# Below this phi (radians) the B-coefficient closed form needs widened
# precision; at phi = 0 exactly the stored limits take over.
PHI_SWITCH = 0.15

# Coefficient tables stop here; beyond is an error, never an extrapolation.
K_MAX = 5

# Stirling coefficients gamma_0..gamma_5.
STIRLING_GAMMA: Tuple[Fraction, ...] = (
    Fraction(1),
    Fraction(-1, 12),
    Fraction(1, 288),
    Fraction(139, 51840),
    Fraction(-571, 2488320),
    Fraction(-163879, 209018880),
)

# c_{j,k} for k = 1..5, 2 <= j <= 2k. Entries absent here are zero.
CJK_TABLE: Dict[int, Dict[int, Fraction]] = {
    1: {2: Fraction(1)},
    2: {2: Fraction(1, 12), 3: Fraction(2), 4: Fraction(3)},
    3: {
        2: Fraction(1, 288),
        3: Fraction(1, 6),
        4: Fraction(25, 4),
        5: Fraction(20),
        6: Fraction(15),
    },
    4: {
        2: Fraction(-139, 51840),
        3: Fraction(1, 144),
        4: Fraction(49, 96),
        5: Fraction(77, 3),
        6: Fraction(525, 4),
        7: Fraction(210),
        8: Fraction(105),
    },
    5: {
        2: Fraction(-571, 2488320),
        3: Fraction(-139, 25920),
        4: Fraction(221, 17280),
        5: Fraction(149, 72),
        6: Fraction(12565, 96),
        7: Fraction(1883, 2),
        8: Fraction(9555, 4),
        9: Fraction(2520),
        10: Fraction(945),
    },
}

# phi -> 0 limits of B_2k as polynomials in alpha (constant coefficients
# first). Only k = 0, 1, 2 are known; the values are real.
B_LIMIT_POLYNOMIALS: Dict[int, Tuple[Fraction, ...]] = {
    0: (Fraction(2, 3), Fraction(-1)),
    1: (Fraction(23, 270), Fraction(-5, 12), Fraction(1, 2), Fraction(-1, 6)),
    2: (
        Fraction(23, 3024),
        Fraction(-21, 160),
        Fraction(3, 8),
        Fraction(-7, 18),
        Fraction(1, 6),
        Fraction(-1, 40),
    ),
}

# Coefficient of the O(phi) imaginary term of B_0 near phi = 0:
# B_0 = 2/3 - alpha - (i/12)(1 - 6 alpha + 6 alpha^2) phi + ...
B0_SLOPE_POLYNOMIAL: Tuple[Fraction, ...] = (
    Fraction(-1, 12),
    Fraction(1, 2),
    Fraction(-1, 2),
)

_DOUBLE_FACTORIAL = (1, 1, 3, 15, 105, 945)  # (2k-1)!! for k = 0..5


def stirling_gamma(k: int) -> Fraction:
    """gamma_k from the stored table, k <= 5."""
    if not 0 <= k <= K_MAX:
        raise UnsupportedOrderError("stirling_gamma is tabulated for 0 <= k <= 5, got %r" % (k,))
    return STIRLING_GAMMA[k]


def cjk(j: int, k: int) -> Fraction:
    """Table entry c_{j,k}; zero above the table diagonal (j > 2k)."""
    if not 1 <= k <= K_MAX:
        raise UnsupportedOrderError("cjk is tabulated for 1 <= k <= 5, got k=%r" % (k,))
    if j < 2:
        raise UnsupportedOrderError("cjk starts at j = 2, got j=%r" % (j,))
    if j > 2 * k:
        return Fraction(0)
    return CJK_TABLE[k][j]


def binomial_alpha(alpha, n: int):
    """Generalized binomial coefficient C(alpha, n) by the falling product.

    Exact (a Fraction) for int/float/Fraction alpha; an mpf otherwise.
    """
    if n < 0:
        raise DomainError("binomial order must be nonnegative")
    if isinstance(alpha, (int, float, Fraction)):
        a = Fraction(alpha)
        out = Fraction(1)
        for i in range(n):
            out *= Fraction(a - i, i + 1)
        return out
    out = alpha * 0 + 1  # one, in alpha's arithmetic (alpha may be zero)
    for i in range(n):
        out *= (alpha - i) / (i + 1)
    return out


def _check_phi(mctx, phi, allow_zero: bool):
    p = to_mpf(mctx, phi)
    if p < 0 or p > mctx.pi * (1 + mctx.mpf(10) ** (-10)):
        raise DomainError("phi must lie in [0, pi], got %s" % (p,))
    if p == 0 and not allow_zero:
        raise SingularInputError(
            "phi = 0 is a singular point here (u = e^{i phi}/(1 - e^{i phi}) is unbounded)"
        )
    return p


def _h_k_raw(mctx, phi, alpha, k: int):
    e = mctx.expj(phi)
    u = e / (1 - e)
    total = mctx.mpc(0)
    upow = mctx.mpc(1)
    for r in range(k + 1):
        total += mctx.convert(binomial_alpha(alpha, k - r)) * upow
        upow *= u
    return total


def h_k(phi, alpha, k: int, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """h_k(phi, alpha) = sum over r <= k of C(alpha, k-r) u^r with
    u = e^{i phi}/(1 - e^{i phi}). Singular at phi = 0."""
    if k < 0:
        raise DomainError("h_k order must be nonnegative, got %r" % (k,))
    mctx = ctx.mp()
    p = _check_phi(mctx, phi, allow_zero=False)
    a = to_mpf(mctx, alpha)
    return _h_k_raw(mctx, p, a, k)


def _A2k_raw(mctx, phi, alpha, k: int):
    total = mctx.mpc(mctx.convert((-1) ** k * STIRLING_GAMMA[k]))
    for j in range(2, 2 * k + 1):
        total += mctx.convert(CJK_TABLE[k][j]) * _h_k_raw(mctx, phi, alpha, j)
    return total


def A2k(phi, alpha, k: int, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """Laplace coefficient A_2k(phi, alpha) = (-1)^k gamma_k
    + sum_{j=2}^{2k} c_{j,k} h_j(phi, alpha). Singular at phi = 0."""
    if not 0 <= k <= K_MAX:
        raise UnsupportedOrderError("A2k is available for 0 <= k <= 5, got %r" % (k,))
    mctx = ctx.mp()
    p = _check_phi(mctx, phi, allow_zero=False)
    a = to_mpf(mctx, alpha)
    return _A2k_raw(mctx, p, a, k)


def _c_raw(mctx, phi):
    # principal square root of 2(1 - i phi - e^{-i phi}); the radicand stays
    # in the closed fourth quadrant for phi in [0, pi], so the principal
    # branch is the continuous one with c ~ phi near 0
    return mctx.sqrt(2 * (1 - 1j * phi - mctx.expj(-phi)))


def c_of_phi(phi, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """Pole-proximity measure c(phi): the root of (1/2) c^2 = 1 - i phi
    - e^{-i phi} on the branch with c(phi) ~ phi near phi = 0. Lies in the
    closed fourth quadrant for phi in [0, pi]."""
    mctx = ctx.mp()
    p = _check_phi(mctx, phi, allow_zero=True)
    return _c_raw(mctx, p)


def E_of_phi(phi, r, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """Stokes smoothing factor E(phi) = sqrt(2 pi) e^{zeta^2} erfc(zeta)
    with zeta = c(phi) r / sqrt(2). E(0) = sqrt(2 pi)."""
    mctx = ctx.mp()
    p = _check_phi(mctx, phi, allow_zero=True)
    rr = to_mpf(mctx, r)
    if not rr > 0:
        raise DomainError("E_of_phi needs r > 0, got %s" % (rr,))
    zeta = _c_raw(mctx, p) * rr / mctx.sqrt(2)
    return mctx.sqrt(2 * mctx.pi) * mctx.exp(zeta * zeta) * mctx.erfc(zeta)


@dataclass(frozen=True)
class StokesGeometry:
    """c(phi), zeta = c(phi) r / sqrt(2), and E(phi) for one (phi, r)."""

    phi: object
    c: object
    zeta: object
    E: object

    @classmethod
    def build(cls, phi, r, ctx: PrecisionContext = DEFAULT_CONTEXT) -> "StokesGeometry":
        mctx = ctx.mp()
        p = _check_phi(mctx, phi, allow_zero=True)
        rr = to_mpf(mctx, r)
        c = _c_raw(mctx, p)
        zeta = c * rr / mctx.sqrt(2)
        E = mctx.sqrt(2 * mctx.pi) * mctx.exp(zeta * zeta) * mctx.erfc(zeta)
        return cls(phi=p, c=c, zeta=zeta, E=E)


def _b_widening(phi_float: float, k: int) -> int:
    # closed form cancels across ~ (2k+1) log10(1/phi) digits; provision
    # that with margin
    return round_widening(int(math.ceil((2 * k + 3) * math.log10(1.0 / phi_float))) + 30)


def _B2k_closed_raw(mctx, phi, alpha, k: int):
    c = _c_raw(mctx, phi)
    poch = mctx.convert(pochhammer(Fraction(1, 2), k))
    return (
        mctx.expj(phi * alpha) * _A2k_raw(mctx, phi, alpha, k) / (1 - mctx.expj(phi))
        - 1j * (-1) ** k * 2**k * poch / c ** (2 * k + 1)
    )


def B2k(phi, alpha, k: int, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """Uniform-expansion coefficient B_2k(phi, alpha).

    For phi > 0 this is the closed form
    e^{i phi alpha} A_2k / (1 - e^{i phi}) - i (-1)^k 2^k (1/2)_k / c(phi)^{2k+1},
    evaluated with widened internal precision below PHI_SWITCH where its two
    parts cancel. At phi = 0 the stored limit polynomials serve k <= 2; the
    limits of higher orders are not tabulated and are refused there.
    """
    if not 0 <= k <= K_MAX:
        raise UnsupportedOrderError("B2k is available for 0 <= k <= 5, got %r" % (k,))
    mctx = ctx.mp()
    p = _check_phi(mctx, phi, allow_zero=True)
    a = to_mpf(mctx, alpha)
    if p == 0:
        if k not in B_LIMIT_POLYNOMIALS:
            raise UnsupportedOrderError(
                "B_%d at phi = 0 is not tabulated (limits exist for B_0, B_2, B_4 only)"
                % (2 * k,)
            )
        coeffs = B_LIMIT_POLYNOMIALS[k]
        value = mctx.mpf(0)
        for c in reversed(coeffs):
            value = value * a + mctx.convert(c)
        return mctx.mpc(value, 0)
    if p < PHI_SWITCH:
        wctx = mp_context(ctx.digits + 5 + _b_widening(float(p), k))
        val = _B2k_closed_raw(wctx, wctx.convert(p), wctx.convert(a), k)
        return mctx.mpc(val)
    return _B2k_closed_raw(mctx, p, a, k)


def b2k_limit(alpha, k: int, ctx: PrecisionContext = DEFAULT_CONTEXT, probe_phi: str = "1e-14"):
    """Numerical phi -> 0+ probe of B_2k, for auditing the reality
    conjecture at orders whose exact limits are not tabulated.

    Evaluates the closed form at a tiny positive phi with precision widened
    to cover the full cancellation depth; the result differs from the true
    limit by O(probe_phi). Not a substitute for the stored phi = 0 data.
    """
    if not 0 <= k <= K_MAX:
        raise UnsupportedOrderError("b2k_limit is available for 0 <= k <= 5, got %r" % (k,))
    phi_f = float(probe_phi)
    if not 0 < phi_f < PHI_SWITCH:
        raise DomainError("probe_phi must be a small positive angle")
    wctx = mp_context(ctx.digits + 5 + _b_widening(phi_f, k))
    val = _B2k_closed_raw(wctx, wctx.mpf(probe_phi), wctx.convert(to_mpf(wctx, alpha)), k)
    return ctx.mp().mpc(val)


def b0_phi_slope(alpha, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """d B_0 / d phi at phi = 0: the purely imaginary
    -(i/12)(1 - 6 alpha + 6 alpha^2)."""
    mctx = ctx.mp()
    a = to_mpf(mctx, alpha)
    value = mctx.mpf(0)
    for c in reversed(B0_SLOPE_POLYNOMIAL):
        value = value * a + mctx.convert(c)
    return mctx.mpc(0, value)


def Bhat2k(phi, alpha, k: int, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """Hatted coefficient B^_2k = -2 i e^{i phi (1/2 - alpha)} B_2k.

    Equivalently A_2k/cos(theta) - (-1)^k 2^{k+1} (1/2)_k e^{i phi (1/2
    - alpha)} / c^{2k+1}; the two forms are asserted equal in the test
    suite where both are computable.
    """
    mctx = ctx.mp()
    p = _check_phi(mctx, phi, allow_zero=True)
    a = to_mpf(mctx, alpha)
    b = B2k(p, a, k, ctx)
    return -2j * mctx.expj(p * (mctx.mpf(1) / 2 - a)) * b


def _bhat2k_alt(phi, alpha, k: int, ctx: PrecisionContext = DEFAULT_CONTEXT):
    # second form of the hatted coefficient; needs phi > 0 for A_2k
    mctx = ctx.mp()
    p = _check_phi(mctx, phi, allow_zero=False)
    a = to_mpf(mctx, alpha)
    theta = (mctx.pi - p) / 2
    c = _c_raw(mctx, p)
    poch = mctx.convert(pochhammer(Fraction(1, 2), k))
    return _A2k_raw(mctx, p, a, k) / mctx.cos(theta) - (-1) ** k * 2 ** (
        k + 1
    ) * poch * mctx.expj(p * (mctx.mpf(1) / 2 - a)) / c ** (2 * k + 1)


@dataclass(frozen=True)
class CoefficientSet:
    """A_2k, B_2k, and B^_2k for k = 0..k_max at one (phi, alpha)."""

    phi: object
    alpha: object
    k_max: int
    A: Tuple
    B: Tuple
    Bhat: Tuple

    @classmethod
    def build(cls, phi, alpha, k_max: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> "CoefficientSet":
        if not 0 <= k_max <= K_MAX:
            raise UnsupportedOrderError(
                "coefficient sets stop at k_max = 5, got %r" % (k_max,)
            )
        mctx = ctx.mp()
        p = _check_phi(mctx, phi, allow_zero=False)
        a = to_mpf(mctx, alpha)
        A = tuple(A2k(p, a, k, ctx) for k in range(k_max + 1))
        B = tuple(B2k(p, a, k, ctx) for k in range(k_max + 1))
        Bh = tuple(Bhat2k(p, a, k, ctx) for k in range(k_max + 1))
        return cls(phi=p, alpha=a, k_max=k_max, A=A, B=B, Bhat=Bh)


# ---------------------------------------------------------------------------
# Reversion pipeline: regenerate the A-coefficients in exact rationals.
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


def _series_pow(a: List[Fraction], p: int, n: int) -> List[Fraction]:
    out = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for _ in range(p):
        out = _series_mul(out, a, n)
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
    for m in range(2, n):
        t_of_w.append(_series_pow(inv_sqrt_S, m, n)[m - 1] / m)
    t_over_w = t_of_w[1:]  # t(w)/w, constant term 1
    w_over_t = _series_recip(t_over_w, n - 1)
    return ReversionSeries(t_of_w=tuple(t_of_w), w_over_t=tuple(w_over_t), order=order)


@dataclass(frozen=True)
class ReversionReport:
    """Outcome of regenerating the A-coefficient tables from the reversion."""

    order: int
    passed: bool
    per_k: Dict[int, bool]
    mismatches: Tuple[str, ...]
    series: ReversionSeries
    gamma_terms: Dict[int, Fraction]
    cjk_terms: Dict[Tuple[int, int], Fraction]


def regenerate_A_via_reversion(order: int = K_MAX) -> ReversionReport:
    """Recompute every A_2k ingredient for k <= order from first principles
    and diff against the stored tables.

    The Laplace integrand contributes w t(w)^{j-1} alongside h_j, so the
    coefficient of h_j in A_2k is (2k-1)!! [w^{2k-1}] t(w)^{j-1}, and the
    h-free term is (2k-1)!! [w^{2k}] (w/t), which must reproduce
    (-1)^k gamma_k. All arithmetic is exact; "pass" means equality of
    Fractions, not closeness of floats.
    """
    if not 1 <= order <= K_MAX:
        raise UnsupportedOrderError(
            "regeneration is supported for 1 <= order <= 5, got %r" % (order,)
        )
    n_terms = 2 * order + 2
    series = reversion_series(n_terms)
    t = list(series.t_of_w)
    w_over_t = list(series.w_over_t)

    mismatches: List[str] = []
    per_k: Dict[int, bool] = {}
    gamma_terms: Dict[int, Fraction] = {}
    cjk_terms: Dict[Tuple[int, int], Fraction] = {}

    # powers of t as series in w, up to t^{2*order - 1}
    n = n_terms + 1
    t_pows: List[List[Fraction]] = [[Fraction(1)] + [Fraction(0)] * (n - 1)]
    for _ in range(2 * order - 1):
        t_pows.append(_series_mul(t_pows[-1], t, n))

    for k in range(1, order + 1):
        ok = True
        dfact = _DOUBLE_FACTORIAL[k]
        const = dfact * w_over_t[2 * k]
        gamma_terms[k] = const
        expected_const = (-1) ** k * STIRLING_GAMMA[k]
        if const != expected_const:
            ok = False
            mismatches.append(
                "k=%d: h-free term %s != (-1)^k gamma_k = %s" % (k, const, expected_const)
            )
        # j = 1 contributes [w^{2k-1}] of t^0, which vanishes for k >= 1
        if (Fraction(1) if 2 * k - 1 == 0 else Fraction(0)) != 0:
            ok = False
            mismatches.append("k=%d: unexpected j=1 contribution" % (k,))
        for j in range(2, 2 * k + 1):
            regen = dfact * t_pows[j - 1][2 * k - 1]
            cjk_terms[(j, k)] = regen
            if regen != CJK_TABLE[k][j]:
                ok = False
                mismatches.append(
                    "k=%d j=%d: regenerated %s != table %s"
                    % (k, j, regen, CJK_TABLE[k][j])
                )
        per_k[k] = ok

    return ReversionReport(
        order=order,
        passed=all(per_k.values()),
        per_k=per_k,
        mismatches=tuple(mismatches),
        series=series,
        gamma_terms=gamma_terms,
        cjk_terms=cjk_terms,
    )
