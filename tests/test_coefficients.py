"""Coefficient-algebra tests: the h_k building blocks, the A and B families,
the Stokes variable c(phi) and smoothing factor E(phi), and the exact-rational
reversion pipeline that regenerates the stored tables from first principles.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from voigt_asym import (
    A2k,
    B2k,
    Bhat2k,
    DomainError,
    SingularInputError,
    UnsupportedOrderError,
    E_of_phi,
    b0_phi_slope,
    b2k_limit,
    binomial_alpha,
    c_of_phi,
    cjk,
    h_k,
    pochhammer,
    regenerate_A_via_reversion,
    reversion_series,
    stirling_gamma,
)
from voigt_asym.coefficients import (
    B_LIMIT_POLYNOMIALS,
    CJK_TABLE,
    K_MAX,
    PHI_SWITCH,
    _b_widening,
    _bhat2k_alt,
)


# ------------------------------------------------------------------- h_k

def test_h0_is_one_everywhere(ctx40):
    mctx = ctx40.mp()
    for phi in ("0.3", "1.0", "3.0"):
        for alpha in ("0.25", "0.5", "1.0"):
            v = h_k(mctx.mpf(phi), mctx.mpf(alpha), 0, ctx40)
            assert abs(v - 1) < mctx.mpf(10) ** (-38)


def test_h1_closed_form(ctx40):
    mctx = ctx40.mp()
    phi = mctx.mpf("0.7")
    alpha = mctx.mpf("0.3")
    u = mctx.expj(phi) / (1 - mctx.expj(phi))
    got = h_k(phi, alpha, 1, ctx40)
    assert abs(got - (alpha + u)) < mctx.mpf(10) ** (-38)


def test_h2_on_stokes_line_is_one_thirtysecond(ctx40):
    # u = -1/2 at phi = pi, so h_2(pi, 1/4) collapses to a small rational
    mctx = ctx40.mp()
    got = h_k(mctx.pi, mctx.mpf("0.25"), 2, ctx40)
    assert abs(got - mctx.mpf(1) / 32) < mctx.mpf(10) ** (-38)
    assert abs(got.imag) < mctx.mpf(10) ** (-38)


def test_h_k_rejects_phi_zero(ctx40):
    with pytest.raises(SingularInputError):
        h_k(0, "0.25", 1, ctx40)


def test_binomial_alpha_rational_path():
    assert binomial_alpha(Fraction(1, 4), 2) == Fraction(1, 4) * Fraction(-3, 4) / 2
    assert binomial_alpha(Fraction(1, 2), 0) == 1


def test_alpha_zero_matches_fraction_path(ctx40):
    # C(0, n) is 1 for n = 0 and 0 after; the mpf path must agree with the
    # exact one instead of dividing zero by itself
    mctx = ctx40.mp()
    for n in range(2 * K_MAX + 1):
        assert binomial_alpha(mctx.mpf(0), n) == binomial_alpha(Fraction(0), n)
    phi = mctx.mpf(1)
    e = mctx.expj(phi)
    u = e / (1 - e)
    for k in range(K_MAX + 1):
        ref = mctx.mpc(mctx.convert((-1) ** k * stirling_gamma(k)))
        for j in range(2, 2 * k + 1):
            h = sum(mctx.convert(binomial_alpha(Fraction(0), j - i)) * u**i for i in range(j + 1))
            ref += mctx.convert(CJK_TABLE[k][j]) * h
        got = A2k(phi, 0, k, ctx40)
        assert abs(got - ref) <= mctx.mpf(10) ** (-35) * max(1, abs(ref))
        for p in ("1", "0.05"):  # both B2k branches
            assert mctx.isfinite(abs(Bhat2k(p, 0, k, ctx40)))


# --------------------------------------------------------- stored rationals

def test_stirling_gamma_values():
    assert stirling_gamma(0) == 1
    assert stirling_gamma(1) == Fraction(-1, 12)
    assert stirling_gamma(5) == Fraction(-163879, 209018880)
    with pytest.raises(UnsupportedOrderError):
        stirling_gamma(6)


def test_cjk_values():
    assert cjk(2, 2) == Fraction(1, 12)
    assert cjk(5, 3) == 20
    assert cjk(10, 5) == 945
    assert cjk(7, 3) == 0  # j beyond 2k reads as zero
    with pytest.raises(UnsupportedOrderError):
        cjk(1, 2)
    with pytest.raises(UnsupportedOrderError):
        cjk(2, 6)


def test_cjk_table_relations():
    # the three closed-form families the table satisfies
    for k in range(1, 6):
        assert cjk(2, k) == (-1) ** (k - 1) * stirling_gamma(k - 1)
        assert cjk(2 * k, k) == 2**k * pochhammer(Fraction(1, 2), k)
    for k in range(2, 6):
        assert cjk(3, k) == 2 * (-1) ** k * stirling_gamma(k - 2)


# -------------------------------------------------------------------- A_2k

def test_A0_is_one(ctx40):
    mctx = ctx40.mp()
    v = A2k(mctx.mpf("0.9"), mctx.mpf("0.5"), 0, ctx40)
    assert abs(v - 1) < mctx.mpf(10) ** (-38)


def test_A2_closed_form(ctx40):
    mctx = ctx40.mp()
    phi, alpha = mctx.mpf("1.3"), mctx.mpf("0.25")
    got = A2k(phi, alpha, 1, ctx40)
    want = mctx.mpf(1) / 12 + h_k(phi, alpha, 2, ctx40)
    assert abs(got - want) < mctx.mpf(10) ** (-37)


def test_A4_closed_form(ctx40):
    mctx = ctx40.mp()
    phi, alpha = mctx.mpf("2.1"), mctx.mpf("0.7")
    got = A2k(phi, alpha, 2, ctx40)
    want = (
        mctx.mpf(1) / 288
        + h_k(phi, alpha, 2, ctx40) / 12
        + 2 * h_k(phi, alpha, 3, ctx40)
        + 3 * h_k(phi, alpha, 4, ctx40)
    )
    assert abs(got - want) < mctx.mpf(10) ** (-36) * max(1, abs(want))


def test_A2k_order_and_domain_errors(ctx40):
    with pytest.raises(UnsupportedOrderError):
        A2k("1.0", "0.5", 6, ctx40)
    with pytest.raises(SingularInputError):
        A2k(0, "0.5", 1, ctx40)
    with pytest.raises(DomainError):
        A2k(-1, "0.5", 1, ctx40)


def test_A2k_real_on_stokes_line(ctx40):
    rng = random.Random(515)
    mctx = ctx40.mp()
    tol = mctx.mpf(10) ** (-(ctx40.digits - 5))
    for _ in range(10):
        alpha = mctx.mpf(repr(rng.uniform(0.0, 1.0)))
        for k in range(6):
            v = A2k(mctx.pi, alpha, k, ctx40)
            assert abs(v.imag) <= tol * max(1, abs(v))


# ---------------------------------------------------------------- reversion

def test_reversion_series_low_order_coefficients():
    s = reversion_series(12)
    want_t = [
        Fraction(0),
        Fraction(1),
        Fraction(1, 3),
        Fraction(1, 36),
        Fraction(-1, 270),
        Fraction(1, 4320),
        Fraction(1, 17010),
    ]
    assert list(s.t_of_w[:7]) == want_t
    want_ratio = [
        Fraction(1),
        Fraction(-1, 3),
        Fraction(1, 12),
        Fraction(-2, 135),
        Fraction(1, 864),
        Fraction(1, 2835),
    ]
    assert list(s.w_over_t[:6]) == want_ratio


def test_reversion_regenerates_A2_exactly():
    report = regenerate_A_via_reversion(1)
    assert report.passed
    assert report.per_k == {1: True}
    # A_2 = 1/12 + h_2: the regenerated h-free term is (-1)^k gamma_k
    assert report.gamma_terms[1] == Fraction(1, 12)
    assert report.cjk_terms[(2, 1)] == 1


def test_reversion_regenerates_A4_moment_set():
    # the w^4 moment of the Laplace integrand carries the coefficient set
    # {1/864, 1/36, 2/3, 1} against h_1..; scaled by the Gaussian moment
    # (2k-1)!! = 3 it lands on the stored row
    report = regenerate_A_via_reversion(2)
    assert report.passed
    s = report.series
    assert s.w_over_t[4] == Fraction(1, 864)
    assert report.cjk_terms[(2, 2)] == 3 * Fraction(1, 36)
    assert report.cjk_terms[(3, 2)] == 3 * Fraction(2, 3)
    assert report.cjk_terms[(4, 2)] == 3 * Fraction(1)


def test_reversion_full_depth_passes():
    report = regenerate_A_via_reversion(5)
    assert report.passed
    assert report.mismatches == ()
    assert set(report.per_k) == {1, 2, 3, 4, 5}
    with pytest.raises(UnsupportedOrderError):
        regenerate_A_via_reversion(6)


# ------------------------------------------------------------------ c, E

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
        v = E_of_phi(0, r, ctx40)
        assert abs(v - mctx.sqrt(2 * mctx.pi)) < mctx.mpf(10) ** (-38)


def test_E_decay_on_stokes_line(ctx40):
    # zeta sits in the fourth quadrant, so E follows the erfc large-argument
    # behaviour sqrt(2 pi)/(zeta sqrt(pi)) up to the 1/(2 zeta^2) correction
    mctx = ctx40.mp()
    r = mctx.mpf("3.5")
    zeta = c_of_phi(mctx.pi, ctx40) * r / mctx.sqrt(2)
    approx = mctx.sqrt(2 * mctx.pi) / (zeta * mctx.sqrt(mctx.pi))
    got = E_of_phi(mctx.pi, r, ctx40)
    assert abs(got / approx - 1) < mctx.mpf("0.05")


# -------------------------------------------------------------------- B_2k

def test_B0_limit_polynomial(ctx40):
    mctx = ctx40.mp()
    for alpha in ("0.25", "0.5", "0.9"):
        a = mctx.mpf(alpha)
        got = B2k(0, a, 0, ctx40)
        assert abs(got - (mctx.mpf(2) / 3 - a)) < mctx.mpf(10) ** (-38)


def test_B2_limit_polynomial(ctx40):
    mctx = ctx40.mp()
    a = mctx.mpf("0.25")
    want = (
        mctx.mpf(23) / 270 - 5 * a / 12 + a * a / 2 - a**3 / 6
    )
    assert abs(B2k(0, a, 1, ctx40) - want) < mctx.mpf(10) ** (-38)


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
    assert abs(B2k(0, a, 2, ctx40) - want) < mctx.mpf(10) ** (-38)


def test_B2k_limit_order_error_at_phi_zero(ctx40):
    for k in (3, 4, 5):
        with pytest.raises(UnsupportedOrderError):
            B2k(0, "0.5", k, ctx40)


def test_b2k_limit_probe_matches_stored_polynomials(ctx40):
    mctx = ctx40.mp()
    for k in range(3):
        for alpha in ("0.1", "0.5", "0.95"):
            a = mctx.mpf(alpha)
            probe = b2k_limit(a, k, ctx40)
            stored = B2k(0, a, k, ctx40)
            assert abs(probe - stored) < mctx.mpf(10) ** (-12)


def test_b2k_limit_covers_higher_orders(ctx40):
    mctx = ctx40.mp()
    for k in (3, 4, 5):
        v = b2k_limit(mctx.mpf("0.4"), k, ctx40)
        assert mctx.isfinite(v.real) and mctx.isfinite(v.imag)
        assert abs(v) < 10  # the limits are O(1) numbers


def test_B2k_branch_agreement_at_switch(ctx40):
    # the widened small-phi evaluation and the plain closed form must meet
    # at the switch point without a visible seam
    mctx = ctx40.mp()
    delta = mctx.mpf(10) ** (-12)
    for k in range(3):
        for alpha in ("0.25", "0.5"):
            a = mctx.mpf(alpha)
            below = B2k(PHI_SWITCH - delta, a, k, ctx40)
            above = B2k(PHI_SWITCH + delta, a, k, ctx40)
            assert abs(below - above) < mctx.mpf(10) ** (-10)


def test_b_widening_lands_on_few_precisions():
    # every widened precision is cached for good, so the widening is rounded
    # up to a multiple of 10 digits; it never drops below the cancellation rule
    rng = random.Random(1989)
    seen = set()
    for _ in range(200):
        phi = rng.uniform(0, PHI_SWITCH) or PHI_SWITCH / 2
        k = rng.randint(0, K_MAX)
        widened = _b_widening(phi, k)
        assert widened >= int(math.ceil((2 * k + 3) * math.log10(1.0 / phi))) + 30
        seen.add(widened)
    assert len(seen) <= 8


def test_B2k_closed_form_on_stokes_line(ctx40):
    # direct evaluation of the defining combination at phi = pi
    mctx = ctx40.mp()
    a = mctx.mpf("0.25")
    k = 1
    c = c_of_phi(mctx.pi, ctx40)
    want = mctx.expj(mctx.pi * a) * A2k(mctx.pi, a, k, ctx40) / (
        1 - mctx.expj(mctx.pi)
    ) - mctx.mpc(0, 1) * (-1) ** k * 2**k * mctx.convert(
        pochhammer(Fraction(1, 2), k)
    ) / c ** (2 * k + 1)
    got = B2k(mctx.pi, a, k, ctx40)
    assert abs(got - want) < mctx.mpf(10) ** (-36) * max(1, abs(want))


def test_b0_slope_matches_finite_difference(ctx40):
    # d B_0 / d phi at 0+ along the stored linear coefficient
    mctx = ctx40.mp()
    a = mctx.mpf("0.3")
    h = mctx.mpf(10) ** (-8)
    fd = (b2k_limit(a, 0, ctx40, probe_phi="1e-8") - B2k(0, a, 0, ctx40)) / h
    slope = b0_phi_slope(a, ctx40)
    assert abs(fd - slope) < mctx.mpf(10) ** (-6) * max(1, abs(slope))


def test_B_limit_polynomial_table_shape():
    assert set(B_LIMIT_POLYNOMIALS) == {0, 1, 2}
    assert B_LIMIT_POLYNOMIALS[0][0] == Fraction(2, 3)


# ------------------------------------------------------------------- Bhat

def test_Bhat_dual_forms_agree(ctx40):
    mctx = ctx40.mp()
    tol = mctx.mpf(10) ** (-(ctx40.digits - 5))
    for k, phi, alpha in ((0, "0.785", "0.25"), (1, "2.0", "0.6"), (2, "1.1", "0.9")):
        p, a = mctx.mpf(phi), mctx.mpf(alpha)
        v1 = Bhat2k(p, a, k, ctx40)
        v2 = _bhat2k_alt(p, a, k, ctx40)
        assert abs(v1 - v2) <= tol * max(1, abs(v1))


def test_Bhat0_on_stokes_line_substitution(ctx40):
    # at phi = pi (theta = 0) the A-form reads A_0/cos(theta) minus the pole
    # image term 2 e^{i pi (1/2 - alpha)}/c(pi)
    mctx = ctx40.mp()
    a = mctx.mpf("0.25")
    want = A2k(mctx.pi, a, 0, ctx40) - 2 * mctx.expj(
        mctx.pi * (mctx.mpf(1) / 2 - a)
    ) / c_of_phi(mctx.pi, ctx40)
    got = Bhat2k(mctx.pi, a, 0, ctx40)
    assert abs(got - want) < mctx.mpf(10) ** (-35) * max(1, abs(want))
