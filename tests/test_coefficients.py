"""Coefficient-algebra tests: the h_j building blocks, the one-pass A and B
families, the Stokes variable c(phi) and smoothing factor E(phi), and the
exact-rational reversion that is the run-time source of gamma_k and c_{j,k}.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

import pytest

from coefficient_reference import (
    B0_SLOPE_POLYNOMIAL,
    B_LIMIT_POLYNOMIALS,
    CJK_TABLE,
    STIRLING_GAMMA,
    bhat2k_alt,
    h_power_sum,
    h_sums,
    pochhammer,
)
from voigt_asym import (
    DomainError,
    PrecisionContext,
    mp_context,
    UnsupportedOrderError,
    coefficient_set,
    VoigtArgument,
)
from voigt_asym import coefficients
from voigt_asym.coefficients import (
    K_MAX,
    PASS_GUARD_BITS,
    PHI_MIN_EXP,
    PHI_SWITCH,
    _E_of_c,
    _b_widening,
    _h_sweep,
    _laplace_tables,
    _reversion_series,
    _stokes_limits,
)
from voigt_asym.oracle import COORDINATE_MAG_MAX


def _u(mctx, phi):
    e = mctx.expj(phi)
    return e / (1 - e)


# the scale of the integer h_j sweeps below, and a context for error bounds
WP = 200
BOUND_CTX = mp_context(30)


def _dyadic(x) -> Fraction:
    # an mpf as the exact Fraction it is
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


def _scaled(x: Fraction) -> int:
    # a Fraction as the sweep takes it: scaled by 2^WP and floored
    return (x.numerator << WP) // x.denominator


def _modulus(pair, wp: int):
    # |re + i im| 2^-wp of a pair of the sweep's integers
    return BOUND_CTX.hypot(*(BOUND_CTX.ldexp(v, -wp) for v in pair))


def _mpf(x: Fraction):
    return BOUND_CTX.mpf(x.numerator) / x.denominator


def _sweep_bounds(alpha: Fraction, u_abs, h_abs, eps) -> list:
    """d_0..d_n of the _Pass docstring: the error bound of the integer h_j in
    units of 2^-wp, from the exact alpha and the moduli |u| and |h_j|."""
    mctx = BOUND_CTX
    binom = [_mpf(b) for b in h_sums(alpha, Fraction(0), len(h_abs) - 1)]
    alpha = _mpf(alpha)
    e, d = 0, [0]
    for j in range(1, len(h_abs)):
        e = ((abs(alpha - j + 1) + eps) * e + abs(binom[j - 1]) + 1) / j + 1
        d.append(e + (u_abs + eps) * d[-1] + h_abs[j - 1] + mctx.sqrt(2))
    return d


def _assert_sweep_within_bound(alpha: Fraction, u: Fraction, n: int):
    # the integer sweep at real u against the exact Fraction recurrence
    got = _h_sweep(_scaled(alpha), (_scaled(u), 0), n, WP)
    want = h_sums(alpha, u, n)
    eps = BOUND_CTX.ldexp(1, -WP)
    bound = _sweep_bounds(alpha, _mpf(abs(u)), [_mpf(abs(h)) for h in want], eps)
    for j, ((hr, hi), h, b) in enumerate(zip(got, want, bound)):
        assert hi == 0
        assert _mpf(abs(hr - h * 2**WP)) <= b, (alpha, u, j)


# ------------------------------------------------------------------- h_j

def test_h0_is_one_everywhere(ctx40):
    # h_0 = 2^wp exactly, whatever alpha and u the pass converts
    mctx = ctx40.mp()
    for phi in ("0.3", "1.0", "3.0"):
        for alpha in ("0.25", "0.5", "1.0"):
            run = coefficients._Pass(mctx.mpf(phi), mctx.mpf(alpha), ctx40)
            assert _h_sweep(*run._sweep_in, 0, run._wp) == [(1 << run._wp, 0)]
    assert h_sums(Fraction(1, 2), Fraction(-1, 2), 0) == [1]


def test_h1_closed_form(ctx40):
    # h_1 = alpha + u with no floor: both are the pass's own integers
    mctx = ctx40.mp()
    phi = mctx.mpf("0.7")
    alpha = mctx.mpf("0.3")
    run = coefficients._Pass(phi, alpha, ctx40)
    a, u = run._sweep_in
    got = _h_sweep(a, u, 1, run._wp)[1]
    assert got == (a + u[0], u[1])
    value = mctx.mpc(*(mctx.ldexp(v, -run._wp) for v in got))
    assert abs(value - (alpha + _u(mctx, phi))) < mctx.mpf(10) ** (-38)


def test_h2_on_stokes_line_is_one_thirtysecond(ctx40):
    # u = -1/2 at phi = pi, so h_2(pi, 1/4) collapses to a small rational,
    # exact in the sweep's integers, and A_2 = 1/12 + h_2 with it
    mctx = ctx40.mp()
    got = _h_sweep(_scaled(Fraction(1, 4)), (_scaled(Fraction(-1, 2)), 0), 2, WP)[2]
    assert got == (_scaled(Fraction(1, 32)), 0)
    assert h_sums(Fraction(1, 4), Fraction(-1, 2), 2)[2] == Fraction(1, 32)
    alpha = mctx.mpf("0.25")
    A2 = coefficient_set(mctx.pi, alpha, 1, ctx40).A[1]
    assert abs(A2 - (mctx.mpf(1) / 12 + mctx.mpf(1) / 32)) < mctx.mpf(10) ** (-38)


def test_h_k_rejects_phi_zero(ctx40):
    # h_j, and with them the A_2k, are singular on the Stokes line: the pass
    # returns no A there, only the stored B limits
    coeffs = coefficient_set(0, "0.25", 1, ctx40)
    assert coeffs.A is None
    assert len(coeffs.B) == len(coeffs.Bhat) == 2


def test_binomial_alpha_rational_path():
    # at u = 0 the sums reduce to the binomials C(alpha, j), exact for Fractions
    assert h_sums(Fraction(1, 4), Fraction(0), 2)[2] == Fraction(1, 4) * Fraction(-3, 4) / 2
    assert h_sums(Fraction(1, 2), Fraction(0), 0) == [1]
    # the recurrence h_j = C(alpha, j) + u h_{j-1} equals the defining sum
    alpha, u = Fraction(3, 7), Fraction(-5, 2)
    binom = [Fraction(1)]
    for n in range(1, 11):
        binom.append(binom[-1] * (alpha - n + 1) / n)
    h = h_sums(alpha, u, 10)
    for j in range(11):
        assert h[j] == sum(binom[j - r] * u**r for r in range(j + 1))
    # the integer sweep meets the Fraction recurrence within its stated
    # bound, for alpha and u exact in binary or floored, small or large
    for alpha in (Fraction(3, 7), Fraction(1, 4), Fraction(-779, 2), Fraction(21, 2)):
        for u in (Fraction(0), Fraction(-5, 2), Fraction(-1, 2), Fraction(10**30, 3)):
            _assert_sweep_within_bound(alpha, u, 2 * K_MAX)


def test_alpha_zero_matches_fraction_path(ctx40):
    # C(0, n) is 1 for n = 0 and 0 after; the integer sweep must agree with
    # the exact recurrence instead of dividing zero by itself
    mctx = ctx40.mp()
    exact = h_sums(Fraction(0), Fraction(0), 2 * K_MAX)
    assert _h_sweep(0, (0, 0), 2 * K_MAX, WP) == [(_scaled(h), 0) for h in exact]
    phi = mctx.mpf(1)
    got = coefficient_set(phi, 0, K_MAX, ctx40).A
    for k in range(K_MAX + 1):
        ref = mctx.mpc(mctx.convert((-1) ** k * STIRLING_GAMMA[k]))
        for j in range(2, 2 * k + 1):
            ref += mctx.convert(CJK_TABLE[k][j]) * h_power_sum(mctx, phi, mctx.mpf(0), j)
        assert abs(got[k] - ref) <= mctx.mpf(10) ** (-35) * max(1, abs(ref))
    for p in ("1", "0.05"):  # both branches of the pass
        for v in coefficient_set(p, 0, K_MAX, ctx40).Bhat:
            assert mctx.isfinite(abs(v))


# ------------------------------------------------ the reversion as the source

def test_stirling_gamma_values():
    gamma, _ = _laplace_tables()
    assert gamma[0] == 1
    assert gamma[1] == Fraction(-1, 12)
    assert gamma[5] == Fraction(-163879, 209018880)
    assert len(gamma) == K_MAX + 1
    with pytest.raises(UnsupportedOrderError):
        coefficient_set("1", "0.5", K_MAX + 1)


def test_cjk_values():
    _, cjk = _laplace_tables()
    assert cjk[2][2 - 2] == Fraction(1, 12)
    assert cjk[3][5 - 2] == 20
    assert cjk[5][10 - 2] == 945
    # row k holds j = 2..2k; past the diagonal c_{j,k} vanishes, since
    # t(w)^{j-1} starts at w^{j-1}
    assert [len(row) for row in cjk] == [max(0, 2 * k - 1) for k in range(K_MAX + 1)]
    with pytest.raises(UnsupportedOrderError):
        coefficient_set("1", "0.5", -1)


def test_cjk_table_relations():
    # the three closed-form families the runtime table satisfies
    gamma, cjk = _laplace_tables()
    for k in range(1, K_MAX + 1):
        assert cjk[k][0] == (-1) ** (k - 1) * gamma[k - 1]
        assert cjk[k][-1] == 2**k * pochhammer(Fraction(1, 2), k)
    for k in range(2, K_MAX + 1):
        assert cjk[k][1] == 2 * (-1) ** k * gamma[k - 2]


# -------------------------------------------------------------------- A_2k

def test_A0_is_one(ctx40):
    mctx = ctx40.mp()
    v = coefficient_set(mctx.mpf("0.9"), mctx.mpf("0.5"), 0, ctx40).A[0]
    assert abs(v - 1) < mctx.mpf(10) ** (-38)


def test_A2_closed_form(ctx40):
    mctx = ctx40.mp()
    phi, alpha = mctx.mpf("1.3"), mctx.mpf("0.25")
    got = coefficient_set(phi, alpha, 1, ctx40).A[1]
    want = mctx.mpf(1) / 12 + h_power_sum(mctx, phi, alpha, 2)
    assert abs(got - want) < mctx.mpf(10) ** (-37)


def test_A4_closed_form(ctx40):
    mctx = ctx40.mp()
    phi, alpha = mctx.mpf("2.1"), mctx.mpf("0.7")
    got = coefficient_set(phi, alpha, 2, ctx40).A[2]
    want = (
        mctx.mpf(1) / 288
        + h_power_sum(mctx, phi, alpha, 2) / 12
        + 2 * h_power_sum(mctx, phi, alpha, 3)
        + 3 * h_power_sum(mctx, phi, alpha, 4)
    )
    assert abs(got - want) < mctx.mpf(10) ** (-36) * max(1, abs(want))


def test_A2k_order_and_domain_errors(ctx40):
    with pytest.raises(UnsupportedOrderError):
        coefficient_set("1.0", "0.5", 6, ctx40)
    assert coefficient_set(0, "0.5", 1, ctx40).A is None
    with pytest.raises(DomainError):
        coefficient_set(-1, "0.5", 1, ctx40)
    with pytest.raises(DomainError):
        coefficient_set("3.2", "0.5", 1, ctx40)


def test_A2k_real_on_stokes_line(ctx40):
    rng = random.Random(515)
    mctx = ctx40.mp()
    tol = mctx.mpf(10) ** (-(ctx40.digits - 5))
    for _ in range(10):
        alpha = mctx.mpf(repr(rng.uniform(0.0, 1.0)))
        for v in coefficient_set(mctx.pi, alpha, 5, ctx40).A:
            assert abs(v.imag) <= tol * max(1, abs(v))


def test_one_pass_serves_every_order(ctx40):
    # a pass to k_max = 5 repeats the lower passes order by order, on both
    # sides of the switch (where the widening grows with k_max)
    mctx = ctx40.mp()
    tol = mctx.mpf(10) ** (5 - ctx40.digits)
    for phi in ("0.01", "0.149", "0.7", "3.1"):
        full = coefficient_set(phi, "0.3", K_MAX, ctx40)
        for k_max in range(K_MAX):
            part = coefficient_set(phi, "0.3", k_max, ctx40)
            for name in ("A", "B", "Bhat"):
                for lo, hi in zip(getattr(part, name), getattr(full, name)):
                    assert abs(lo - hi) <= tol * abs(hi)


def test_memoized_pass_keys_each_precision(coefficient_pass):
    # phi and alpha exact in binary have equal mpf values at 40 and at 100
    # digits, so only the precision in the key tells the two passes apart;
    # each comes back at its own precision, on both sides of the switch
    for phi in (0.125, 0.5):
        sets = {}
        for digits in (40, 100, 40, 100):
            ctx = PrecisionContext(digits=digits)
            got = coefficient_set(phi, 0.25, 3, ctx)
            assert all(type(v) is ctx.mp().mpc for part in (got.A, got.B, got.Bhat) for v in part)
            assert got == sets.setdefault(digits, got)
        assert sets[40] != sets[100]
    info = coefficient_pass.cache_info()
    assert (info.hits, info.misses) == (4, 4)


def test_memo_bound_is_small():
    # one entry serves theorem2 then theorem1 at a point; a radius of the
    # scan benchmark has 11 angles, and a bound at or above that would let
    # the replay of its ops time cache hits
    assert coefficients._coefficient_pass.cache_info().maxsize <= 10


def test_tiny_phi_widens_from_its_own_exponent(ctx40):
    # 1e-400 is below the float range: the widening is read from the mpf,
    # and B_2k sits within O(phi) of its limit
    mctx = ctx40.mp()
    coeffs = coefficient_set("1e-400", "0.5", 2, ctx40)
    limits = coefficient_set(0, "0.5", 2, ctx40)
    for got, want in zip(coeffs.B, limits.B):
        assert abs(got - want) < mctx.mpf(10) ** (-38)
    assert all(mctx.isfinite(abs(a)) for a in coeffs.A)


# ---------------------------------------------------------------- reversion

def test_reversion_series_low_order_coefficients():
    t_of_w, w_over_t = _reversion_series(12)
    want_t = [
        Fraction(0),
        Fraction(1),
        Fraction(1, 3),
        Fraction(1, 36),
        Fraction(-1, 270),
        Fraction(1, 4320),
        Fraction(1, 17010),
    ]
    assert t_of_w[:7] == want_t
    want_ratio = [
        Fraction(1),
        Fraction(-1, 3),
        Fraction(1, 12),
        Fraction(-2, 135),
        Fraction(1, 864),
        Fraction(1, 2835),
    ]
    assert w_over_t[:6] == want_ratio


def test_reversion_regenerates_A2_exactly():
    # A_2 = 1/12 + h_2: the h-free term (-1)^k gamma_k and c_{2,1} = 1
    gamma, cjk = _laplace_tables()
    assert -gamma[1] == Fraction(1, 12)
    assert cjk[1] == (Fraction(1),)


def test_reversion_regenerates_A4_moment_set():
    # the w^4 moment of the Laplace integrand carries the coefficient set
    # {1/864, 1/36, 2/3, 1} against h_1..; scaled by the Gaussian moment
    # (2k-1)!! = 3 it lands on the published row
    gamma, cjk = _laplace_tables()
    assert _reversion_series(12)[1][4] == Fraction(1, 864)
    assert gamma[2] == 3 * Fraction(1, 864)
    assert cjk[2] == (3 * Fraction(1, 36), 3 * Fraction(2, 3), 3 * Fraction(1))


def test_reversion_full_depth_passes():
    # exact equality with the published tables at every order, from one
    # cached build
    gamma, cjk = _laplace_tables()
    assert gamma == STIRLING_GAMMA
    for k in range(1, K_MAX + 1):
        assert dict(enumerate(cjk[k], start=2)) == CJK_TABLE[k]
    assert cjk[0] == ()
    assert _laplace_tables() is _laplace_tables()


# ------------------------------------------------------------------ c, E

def c_of_phi(phi, ctx):
    # c(phi) as the coefficient pass carries it; alpha does not enter it
    return coefficient_set(phi, 0, 0, ctx).c


def test_c_of_phi_at_zero(ctx40):
    assert c_of_phi(0, ctx40) == 0


def test_c_of_phi_small_phi_series(ctx40):
    # c ~ phi - i phi^2/6 - phi^3/36 + i phi^4/270 near zero
    mctx = ctx40.mp()
    phi = mctx.mpf("0.01")
    got = c_of_phi(phi, ctx40)
    series = (
        phi
        - mctx.mpc(0, 1) * phi**2 / 6
        - phi**3 / 36
        + mctx.mpc(0, 1) * phi**4 / 270
    )
    assert abs(got - series) < mctx.mpf(10) ** (-12)


def test_c_of_phi_tiny_phi_keeps_every_digit():
    # the radicand 2(1 - i phi - e^{-i phi}) ~ phi^2 cancels across
    # 2 log10(1/phi) digits, beyond the working precision at these phi;
    # c = phi sqrt(1 - i phi/3 - phi^2/12 + i phi^3/60 + phi^4/360) + O(phi^6),
    # whose last two terms matter only at 100 digits and phi = 1e-30
    for digits in (16, 40, 100):
        ctx = PrecisionContext(digits=digits)
        mctx = ctx.mp()
        j = mctx.mpc(0, 1)
        for text in ("1e-30", "1e-400"):
            phi = mctx.mpf(text)
            want = phi * mctx.sqrt(
                1 - j * phi / 3 - phi**2 / 12 + j * phi**3 / 60 + phi**4 / 360)
            got = c_of_phi(phi, ctx)
            assert abs(got - want) <= mctx.mpf(10) ** (1 - digits) * abs(want), (digits, text)
        # either side of phi = 1e-3, against the closed form at 40 more
        # digits than it cancels
        ref = mp_context(mctx.dps + 40)
        for text in ("0.000999", "0.001001", "0.15"):
            phi = ref.mpf(text)
            want = ref.sqrt(2 * (1 - 1j * phi - ref.expj(-phi)))
            got = ref.mpc(c_of_phi(text, ctx))
            assert abs(got - want) <= ref.mpf(10) ** (1 - digits) * abs(want), (digits, text)


def test_phi_below_the_bound_is_refused(ctx40):
    # phi = 2 atan2(y, x) of supported coordinates stays above 2^(PHI_MIN_EXP
    # + 1); a smaller positive phi would widen the B pass without limit
    mctx = ctx40.mp()
    low = mctx.ldexp(1, PHI_MIN_EXP)
    assert PHI_MIN_EXP == -2 * COORDINATE_MAG_MAX
    assert c_of_phi(low, ctx40) != 0
    for phi in (low * (1 - mctx.eps), "1e-20000"):
        with pytest.raises(DomainError, match="below the supported"):
            coefficient_set(phi, "0.5", 5, ctx40)
    # the smallest phi a supported point can have is inside, by a factor 2
    arg = VoigtArgument.from_xy(mctx.ldexp(1, COORDINATE_MAG_MAX) * (1 - mctx.eps),
                                mctx.ldexp(1, -COORDINATE_MAG_MAX), ctx40)
    assert 2 * low * (1 - mctx.eps) < arg.phi
    assert _E_of_c(mctx, c_of_phi(arg.phi, ctx40), 5) != 0


def test_c_of_phi_on_stokes_line(ctx40):
    mctx = ctx40.mp()
    got = c_of_phi(mctx.pi, ctx40)
    want = mctx.sqrt(2 * (2 - mctx.mpc(0, 1) * mctx.pi))
    assert abs(got - want) < mctx.mpf(10) ** (-30)
    assert got.real > 0 and got.imag < 0
    residual = got * got / 2 - (1 - mctx.mpc(0, 1) * mctx.pi - mctx.expj(-mctx.pi))
    assert abs(residual) < mctx.mpf(10) ** (-30)


def test_c_of_phi_grid_residual_and_continuity(ctx40):
    mctx = ctx40.mp()
    n = 1000
    spacing = mctx.pi / (n - 1)
    tol = mctx.mpf(10) ** (1 - ctx40.digits)
    prev = None
    for j in range(n):
        phi = spacing * j
        c = c_of_phi(phi, ctx40)
        residual = c * c / 2 - (1 - mctx.mpc(0, 1) * phi - mctx.expj(-phi))
        assert abs(residual) < tol
        if prev is not None:
            assert abs(c - prev) < 10 * spacing
        prev = c


def test_E_at_zero_is_sqrt_two_pi(ctx40):
    mctx = ctx40.mp()
    for r in ("1", "3.5", "6"):
        v = _E_of_c(mctx, c_of_phi(0, ctx40), mctx.mpf(r))
        assert abs(v - mctx.sqrt(2 * mctx.pi)) < mctx.mpf(10) ** (-38)


def test_E_decay_on_stokes_line(ctx40):
    # zeta sits in the fourth quadrant, so E follows the erfc large-argument
    # behaviour sqrt(2 pi)/(zeta sqrt(pi)) up to the 1/(2 zeta^2) correction
    mctx = ctx40.mp()
    r = mctx.mpf("3.5")
    zeta = c_of_phi(mctx.pi, ctx40) * r / mctx.sqrt(2)
    approx = mctx.sqrt(2 * mctx.pi) / (zeta * mctx.sqrt(mctx.pi))
    got = _E_of_c(mctx, c_of_phi(mctx.pi, ctx40), r)
    assert abs(got / approx - 1) < mctx.mpf("0.05")


# -------------------------------------------------------------------- B_2k

def _limit(a, k, ctx):
    return coefficient_set(0, a, k, ctx).B[k]


def test_B0_limit_polynomial(ctx40):
    mctx = ctx40.mp()
    for alpha in ("0.25", "0.5", "0.9"):
        a = mctx.mpf(alpha)
        got = _limit(a, 0, ctx40)
        assert abs(got - (mctx.mpf(2) / 3 - a)) < mctx.mpf(10) ** (-38)


def test_B2_limit_polynomial(ctx40):
    mctx = ctx40.mp()
    a = mctx.mpf("0.25")
    want = (
        mctx.mpf(23) / 270 - 5 * a / 12 + a * a / 2 - a**3 / 6
    )
    assert abs(_limit(a, 1, ctx40) - want) < mctx.mpf(10) ** (-38)


def test_B4_limit_polynomial(ctx40):
    mctx = ctx40.mp()
    a = mctx.mpf("0.7")
    want = (
        mctx.mpf(23) / 3024
        - 21 * a / 160
        + 3 * a * a / 8
        - 7 * a**3 / 18
        + a**4 / 6
        - a**5 / 40
    )
    assert abs(_limit(a, 2, ctx40) - want) < mctx.mpf(10) ** (-38)


def test_B2k_limit_order_error_at_phi_zero(ctx40):
    # at phi = 0 every order up to K_MAX answers with a real limit, and the
    # orders past it are refused there as everywhere else
    mctx = ctx40.mp()
    B = coefficient_set(0, "0.5", K_MAX, ctx40).B
    assert len(B) == K_MAX + 1
    assert all(b.imag == 0 and mctx.isfinite(b.real) for b in B)
    with pytest.raises(UnsupportedOrderError):
        coefficient_set(0, "0.5", K_MAX + 1, ctx40)


def test_b2k_limit_probe_matches_stored_polynomials(ctx40):
    # the closed form at a tiny phi probes the published limits, which the
    # derived ones equal exactly
    mctx = ctx40.mp()
    for k, poly in B_LIMIT_POLYNOMIALS.items():
        assert _stokes_limits()[k] == poly
        for alpha in ("0.1", "0.5", "0.95"):
            a = mctx.mpf(alpha)
            probe = coefficient_set("1e-14", a, k, ctx40).B[k]
            stored = sum(mctx.convert(c) * a**i for i, c in enumerate(poly))
            assert abs(probe - stored) < mctx.mpf(10) ** (-12)


def test_b2k_limit_covers_higher_orders(ctx40):
    # B_2k(0) has degree 2k + 1 in alpha with leading coefficient
    # -(2k-1)!!/(2k+1)!, which only c_{2k,k} h_{2k} reaches; the limits past
    # the published ones meet that and the closed form at a tiny phi
    mctx = ctx40.mp()
    a = mctx.mpf("0.4")
    for k in range(3, K_MAX + 1):
        poly = _stokes_limits()[k]
        assert len(poly) == 2 * k + 2
        assert poly[-1] == -(2**k) * pochhammer(Fraction(1, 2), k) / math.factorial(2 * k + 1)
        probe = coefficient_set("1e-14", a, k, ctx40).B[k]
        assert abs(probe - _limit(a, k, ctx40)) < mctx.mpf(10) ** (-12)


def test_B2k_branch_agreement_at_switch(ctx40):
    # the widened small-phi evaluation and the plain closed form must meet
    # at the switch point without a visible seam
    mctx = ctx40.mp()
    delta = mctx.mpf(10) ** (-12)
    for alpha in ("0.25", "0.5"):
        a = mctx.mpf(alpha)
        below = coefficient_set(PHI_SWITCH - delta, a, 2, ctx40).B
        above = coefficient_set(PHI_SWITCH + delta, a, 2, ctx40).B
        for lo, hi in zip(below, above):
            assert abs(lo - hi) < mctx.mpf(10) ** (-10)


def test_b_widening_lands_on_few_precisions(ctx40):
    # every widened precision is cached for good, so the widening is rounded
    # up to a multiple of 10 digits; it never drops below the cancellation
    # rule (2k+3) log10(PHI_SWITCH/phi) at the top order k = K_MAX, for
    # which every pass is widened, and it is zero from PHI_SWITCH on
    mctx = ctx40.mp()
    rng = random.Random(1989)
    seen = set()
    for _ in range(200):
        phi = rng.uniform(0, math.pi) or PHI_SWITCH / 2
        widened = _b_widening(mctx.mpf(phi))
        assert widened >= math.ceil((2 * K_MAX + 3) * math.log10(PHI_SWITCH / phi))
        assert widened % 10 == 0
        assert (widened == 0) == (phi >= PHI_SWITCH)
        seen.add(widened)
    assert len(seen) <= 8


@functools.lru_cache(maxsize=None)
def _stokes_roots(k):
    # the real roots of B_2k's Stokes-line limit, the alpha at which B_2k
    # near the line is itself near zero
    mctx = mp_context(30)
    poly = [mctx.convert(c) for c in reversed(_stokes_limits()[k])]
    roots = mctx.polyroots(poly, maxsteps=200, extraprec=200)
    return tuple(float(mctx.re(x)) for x in roots if abs(mctx.im(x)) < 1e-20)


@pytest.mark.parametrize("digits", [16, 40, 100])
def test_coefficient_set_meets_its_contract_over_phi(digits):
    # every A, B and B^ of order k <= K_MAX agrees with the same pass at 80
    # more digits to 10^(1-digits) relative, for phi over (0, pi]: 40 draws
    # log-uniform down to 1e-60, 40 uniform, 20 at the alpha of hand-built
    # plans, and phi = 1e-1000, where c's phi - sin phi cancels across 2000
    # digits of the widened pass. At a draw within 1e-3 of a root of B_2k's
    # Stokes-line limit, B_2k (and B^_2k) are measured against
    # max(|B_2k|, 1e-3)
    rng = random.Random(1403 + digits)
    ctx, ref = PrecisionContext(digits), PrecisionContext(digits + 80)
    rctx = ref.mp()
    tol = rctx.mpf(10) ** (1 - digits)
    draws = [(10 ** rng.uniform(-60, math.log10(math.pi)), rng.uniform(-1, 1)) for _ in range(40)]
    draws += [(rng.uniform(0, math.pi) or 1.0, rng.uniform(-1, 1)) for _ in range(40)]
    draws += [(rng.uniform(0, math.pi) or 1.0, a) for a in (-389.5, 10.5) for _ in range(10)]
    draws.append(("1e-1000", rng.uniform(-1, 1)))
    for phi, alpha in draws:
        got = coefficient_set(phi, alpha, K_MAX, ctx)
        want = coefficient_set(phi, alpha, K_MAX, ref)
        for name in ("A", "B", "Bhat"):
            for k, (g, w) in enumerate(zip(getattr(got, name), getattr(want, name))):
                scale = abs(w)
                if name != "A" and any(abs(alpha - x) < 1e-3 for x in _stokes_roots(k)):
                    scale = max(scale, rctx.mpf("1e-3"))
                assert abs(g - w) <= tol * scale, (phi, alpha, name, k)


@pytest.mark.parametrize("digits", [16, 40, 100])
def test_pass_rounding_stays_within_its_stated_bound(monkeypatch, digits):
    # over the draws of the contract test above, the integer A_2k and B_2k
    # of a pass differ from the same kernel's 200 bits wider, fed the same
    # floating inputs, by no more than the bound the _Pass docstring states;
    # and that bound stays below the 2^11 times the moduli of each
    # coefficient's terms that PASS_GUARD_BITS is chosen to cover. The
    # moduli in the bound are known to the working precision, hence a slack
    rng = random.Random(1403 + digits)
    draws = [(10 ** rng.uniform(-60, math.log10(math.pi)), rng.uniform(-1, 1)) for _ in range(40)]
    draws += [(rng.uniform(0, math.pi) or 1.0, rng.uniform(-1, 1)) for _ in range(40)]
    draws += [(rng.uniform(0, math.pi) or 1.0, a) for a in (-389.5, 10.5) for _ in range(10)]
    ctx, bctx = PrecisionContext(digits), BOUND_CTX
    mctx, sqrt2, slack = ctx.mp(), bctx.sqrt(2), 1 + bctx.mpf(10) ** -12
    gamma, cjk = _laplace_tables()
    assert PASS_GUARD_BITS > 11
    for phi, alpha in draws:
        p, a = mctx.convert(phi), mctx.convert(alpha)
        run = coefficients._Pass(p, a, ctx)
        with monkeypatch.context() as patch:
            patch.setattr(coefficients, "PASS_GUARD_BITS", PASS_GUARD_BITS + 200)
            wide = coefficients._Pass(p, a, ctx)
        wp, eps = run._wp, bctx.ldexp(1, -run._wp)
        assert wide._wp == wp + 200
        B, c, _ = run._forms_to(K_MAX)
        B_wide, A, A_wide = wide._forms_to(K_MAX)[0], run._A_to(K_MAX), wide._A_to(K_MAX)
        u_abs = _modulus(wide._sweep_in[1], wide._wp)
        h_abs = [_modulus(h, wide._wp) for h in _h_sweep(*wide._sweep_in, 2 * K_MAX, wide._wp)]
        d = _sweep_bounds(_dyadic(a), u_abs, h_abs, eps)
        binom = [abs(_mpf(b)) for b in h_sums(_dyadic(a), Fraction(0), 2 * K_MAX)]
        H = [sum(binom[j - r] * u_abs**r for r in range(j + 1)) for j in range(2 * K_MAX + 1)]
        t_abs = 1 / (2 * bctx.convert(run.sin_half))  # |i p / (2 sin(phi/2))|, |p| = 1
        inv_c = 1 / abs(bctx.convert(c))
        s = 2 * sqrt2 * inv_c + 2 * eps + sqrt2
        q = sqrt2
        for k in range(K_MAX + 1):
            if k:
                q = (inv_c**2 + eps * s) * q + inv_c ** (2 * k - 1) * s + sqrt2
            cs = [abs(_mpf(x)) for x in cjk[k]]
            a_k = 3 + sum((cj + eps) * d[j] + h_abs[j] for j, cj in enumerate(cs, start=2))
            double_factorial = math.prod(range(1, 2 * k, 2))
            A_abs = _modulus(A_wide[k], wide._wp)
            b_k = (t_abs + sqrt2 * eps) * a_k + sqrt2 * (A_abs + 1) + double_factorial * q
            for name, got, want, bound in (("A", A, A_wide, a_k), ("B", B, B_wide, b_k)):
                gap = _modulus([(g << 200) - w for g, w in zip(got[k], want[k])], 200)
                assert gap <= bound * slack, (phi, alpha, name, k, gap, bound)
            terms_A = abs(_mpf(gamma[k])) + sum(cj * H[j] for j, cj in enumerate(cs, start=2))
            terms_B = t_abs * terms_A + double_factorial * inv_c ** (2 * k + 1)
            assert a_k <= 2**11 * terms_A, (phi, alpha, k)
            assert b_k <= 2**11 * terms_B, (phi, alpha, k)


def test_B2k_closed_form_on_stokes_line(ctx40):
    # direct evaluation of the defining combination at phi = pi
    mctx = ctx40.mp()
    a = mctx.mpf("0.25")
    k = 1
    coeffs = coefficient_set(mctx.pi, a, k, ctx40)
    c = c_of_phi(mctx.pi, ctx40)
    want = mctx.expj(mctx.pi * a) * coeffs.A[k] / (
        1 - mctx.expj(mctx.pi)
    ) - mctx.mpc(0, 1) * (-1) ** k * 2**k * mctx.convert(
        pochhammer(Fraction(1, 2), k)
    ) / c ** (2 * k + 1)
    assert abs(coeffs.B[k] - want) < mctx.mpf(10) ** (-36) * max(1, abs(want))


def test_b0_slope_matches_finite_difference(ctx40):
    # d B_0 / d phi at 0+ along the stored linear coefficient
    mctx = ctx40.mp()
    a = mctx.mpf("0.3")
    h = mctx.mpf(10) ** (-8)
    fd = (coefficient_set(h, a, 0, ctx40).B[0] - _limit(a, 0, ctx40)) / h
    slope = mctx.mpc(0, sum(mctx.convert(c) * a**i for i, c in enumerate(B0_SLOPE_POLYNOMIAL)))
    assert abs(fd - slope) < mctx.mpf(10) ** (-6) * max(1, abs(slope))


def test_stokes_limits_refuse_a_pole_that_does_not_cancel(monkeypatch, coefficient_pass):
    # a wrong c_{2k,k} leaves a pole in B_2k at phi = 0, which raises rather
    # than asserts, so it holds under -O too; the emptied memo keeps any
    # pass built from the wrong tables out of later tests
    gamma, cjk = _laplace_tables()
    wrong = cjk[:-1] + (tuple(2 * c for c in cjk[-1]),)
    monkeypatch.setattr(coefficients, "_laplace_tables", lambda: (gamma, wrong))
    with pytest.raises(ArithmeticError, match="pole of B_%d" % (2 * K_MAX,)):
        _stokes_limits.__wrapped__()


def test_B_limit_polynomial_table_shape():
    # one limit per order up to K_MAX, of degree 2k + 1 in alpha, exact
    limits = _stokes_limits()
    assert [len(poly) for poly in limits] == [2 * k + 2 for k in range(K_MAX + 1)]
    assert all(isinstance(c, Fraction) for poly in limits for c in poly)
    assert limits[0][0] == Fraction(2, 3)


# ------------------------------------------------------------------- Bhat

def test_Bhat_dual_forms_agree(ctx40):
    mctx = ctx40.mp()
    tol = mctx.mpf(10) ** (-(ctx40.digits - 5))
    for k, phi, alpha in ((0, "0.785", "0.25"), (1, "2.0", "0.6"), (2, "1.1", "0.9")):
        p, a = mctx.mpf(phi), mctx.mpf(alpha)
        v1 = coefficient_set(p, a, k, ctx40).Bhat[k]
        v2 = bhat2k_alt(p, a, k, ctx40)
        assert abs(v1 - v2) <= tol * max(1, abs(v1))


def test_Bhat0_on_stokes_line_substitution(ctx40):
    # at phi = pi (theta = 0) the A-form reads A_0/cos(theta) minus the pole
    # image term 2 e^{i pi (1/2 - alpha)}/c(pi)
    mctx = ctx40.mp()
    a = mctx.mpf("0.25")
    coeffs = coefficient_set(mctx.pi, a, 0, ctx40)
    want = coeffs.A[0] - 2 * mctx.expj(
        mctx.pi * (mctx.mpf(1) / 2 - a)
    ) / c_of_phi(mctx.pi, ctx40)
    assert abs(coeffs.Bhat[0] - want) < mctx.mpf(10) ** (-35) * max(1, abs(want))
