"""Published reference data for the coefficient tests.

The library derives gamma_k and c_{j,k} from the series reversion at run
time; the values below are the published tables those must equal, exactly:
gamma_k, c_{j,k}, and the Stokes-line limits of B_0, B_2 and B_4. The
phi-slope of B_0 at the Stokes line is here too, which the finite-difference
slope of the library's coefficients must match. ``pochhammer`` gives the
exact rising factorials, (1/2)_k among them, that the checks use.
``h_sums`` is the h_j recurrence in the arithmetic of its inputs, exact for
Fractions, against which the library's integer sweep is checked.
``bhat2k_alt`` is the second closed form of the hatted coefficient, kept
here as an independent check on the one the library evaluates, and
``c_closed_form`` is c(phi) from its defining radicand, where the library
takes a half-angle form and, at small phi, a series.
"""

from __future__ import annotations

from fractions import Fraction

from voigt_asym import coefficient_set, mp_context

# Stirling coefficients gamma_0..gamma_5.
STIRLING_GAMMA = (
    Fraction(1),
    Fraction(-1, 12),
    Fraction(1, 288),
    Fraction(139, 51840),
    Fraction(-571, 2488320),
    Fraction(-163879, 209018880),
)

# c_{j,k} for k = 1..5, 2 <= j <= 2k. Entries absent here are zero.
CJK_TABLE = {
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

# phi -> 0 limits of B_0, B_2, B_4 as polynomials in alpha, constant
# coefficient first; the limits are real.
B_LIMIT_POLYNOMIALS = {
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

# Coefficient of the O(phi) imaginary term of B_0 near phi = 0, constant
# coefficient first: B_0 = 2/3 - alpha - (i/12)(1 - 6 alpha + 6 alpha^2) phi + ...
B0_SLOPE_POLYNOMIAL = (Fraction(-1, 12), Fraction(1, 2), Fraction(-1, 2))


def pochhammer(a, k: int) -> Fraction:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1), exact for an int,
    Fraction or dyadic float ``a``."""
    acc = Fraction(1)
    for j in range(k):
        acc *= Fraction(a) + j
    return acc


def h_sums(alpha, u, n: int) -> list:
    """h_0..h_n with h_j = sum_{r <= j} C(alpha, j - r) u^r, by the
    recurrence h_j = C(alpha, j) + u h_{j-1}; C(alpha, j) is the falling
    product. Works in the arithmetic of alpha and u (exact for Fractions)."""
    binom = alpha * 0 + 1  # one, in alpha's arithmetic (alpha may be zero)
    h = [binom]
    for j in range(1, n + 1):
        binom *= (alpha - (j - 1)) / j
        h.append(binom + u * h[-1])
    return h


def h_power_sum(mctx, phi, alpha, j):
    """h_j = sum_{r <= j} C(alpha, j - r) u^r summed term by term, with
    u = e^{i phi}/(1 - e^{i phi}) and each binomial from its own product."""
    e = mctx.expj(phi)
    u = e / (1 - e)
    total = mctx.mpc(0)
    for r in range(j + 1):
        n = j - r
        binom = mctx.mpf(1)
        for i in range(n):
            binom *= (alpha - i) / (i + 1)
        total += binom * u**r
    return total


def c_closed_form(phi, ctx):
    """c(phi) = sqrt(2 (1 - i phi - e^{-i phi})), the principal root, as an
    mpc of ctx. The radicand's real and imaginary parts cancel across
    about 2 log10(1/phi) digits; the working precision adds log2(1/phi)
    digits, more than that."""
    mctx = ctx.mp()
    p = mctx.convert(phi)
    if not p:
        return mctx.mpc(0)
    wctx = mp_context(mctx.dps + 10 + max(0, -mctx.mag(p)))
    p = wctx.convert(p)
    return mctx.mpc(wctx.sqrt(2 * (1 - wctx.mpc(0, p) - wctx.expj(-p))))


def bhat2k_alt(phi, alpha, k, ctx):
    """B^_2k = A_2k/cos(theta) - (-1)^k 2^{k+1} (1/2)_k e^{i phi (1/2 - alpha)}
    / c^{2k+1}, theta = (pi - phi)/2; needs phi > 0 for A_2k."""
    mctx = ctx.mp()
    p, a = mctx.convert(phi), mctx.convert(alpha)
    theta = (mctx.pi - p) / 2
    c = c_closed_form(p, ctx)
    poch = mctx.convert(pochhammer(Fraction(1, 2), k))
    A = coefficient_set(p, a, k, ctx).A[k]
    return A / mctx.cos(theta) - (-1) ** k * 2 ** (k + 1) * poch * mctx.expj(
        p * (mctx.mpf(1) / 2 - a)
    ) / c ** (2 * k + 1)
