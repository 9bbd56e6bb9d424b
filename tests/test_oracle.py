"""Exact-evaluation tests: quadrant reduction, the erfc-based closed form,
the direct-integration cross-check, and the exact truncation remainders that
anchor every expansion test in the suite.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from coefficient_reference import pochhammer
from voigt_asym import (
    DomainError,
    PrecisionContext,
    VoigtArgument,
    algebraic_partial_sums,
    mp_context,
    reduce_to_first_quadrant,
    remainder_exact,
    remainder_ladder,
    voigt_exact_erfc,
    voigt_quadrature,
)
from voigt_asym.numerics import GAMMA_RECURRENCE_CAP
from voigt_asym.oracle import COORDINATE_MAG_MAX

# exact remainders at |w| = 3.5 with the m = 12 cut, frozen from the
# high-precision subtraction oracle before the terminant routes existed
FOOT_TENTH_PI = ("1.73161445e-7", "5.50694067e-7")
FOOT_THREE_EIGHTHS_PI = ("-1.30410848e-6", "-7.18528635e-8")


# ---------------------------------------------------------------- argument

def test_from_polar_snaps_axes(ctx40):
    mctx = ctx40.mp()
    a = VoigtArgument.from_polar("3.5", 0, ctx40)
    assert a.x == 0 and a.y == mctx.mpf("3.5")
    b = VoigtArgument.from_polar("3.5", mctx.pi / 2, ctx40)
    assert b.y == 0 and b.x == mctx.mpf("3.5")


@pytest.mark.parametrize("digits", [16, 40, 100])
def test_phi_keeps_its_digits_far_from_the_real_axis(digits):
    # pi - 2 theta cancels when y << x, down to 0 (the Stokes line) at
    # (1e60, 2) although y = 2; phi must keep its digits there and stay
    # exactly 0 on the line and pi at the origin
    ctx = PrecisionContext(digits=digits)
    ref = mp_context(digits + 20)
    for x in ("1e30", "1e60", "3", "0"):
        arg = VoigtArgument.from_xy(x, 2, ctx)
        want = 2 * ref.atan2(2, ref.mpf(x))
        assert abs(arg.phi - want) <= ref.mpf(10) ** (1 - digits) * want, (x, arg.phi)
    assert VoigtArgument.from_xy(5, 0, ctx).phi == 0
    assert VoigtArgument.from_xy(0, 0, ctx).phi == ctx.mp().pi


def test_argument_rejects_other_quadrants(ctx40):
    with pytest.raises(DomainError):
        VoigtArgument.from_xy(-1, 2, ctx40)
    with pytest.raises(DomainError):
        VoigtArgument.from_xy(1, -2, ctx40)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", float("nan"), float("inf")])
def test_non_finite_input_is_a_domain_error(ctx40, bad):
    for a, b in ((bad, "2"), ("2", bad)):
        with pytest.raises(DomainError):
            VoigtArgument.from_xy(a, b, ctx40)
        with pytest.raises(DomainError):
            reduce_to_first_quadrant(a, b, ctx40)
    for r, theta in ((bad, "0.3"), ("2", bad)):
        with pytest.raises(DomainError):
            VoigtArgument.from_polar(r, theta, ctx40)


def test_coordinate_exponent_bound_on_both_sides(ctx40):
    # 2^-B <= |v| < 2^B is answered; just past either end, and the literals
    # whose exact squares no longer fit in memory, are refused
    mctx = ctx40.mp()
    top = mctx.ldexp(1, COORDINATE_MAG_MAX)
    inside = (top * (1 - mctx.eps), 1 / top)
    outside = (top, (1 - mctx.eps) / top, "1e999999999999999999999", "1e-999999999999999999999")
    for v in inside:
        for a, b in ((v, 1), (1, v), (-v, -v)):
            arg, _, _ = reduce_to_first_quadrant(a, b, ctx40)
            assert arg.r > 0
    for v in outside:
        for a, b in ((v, 1), (1, v)):
            with pytest.raises(DomainError):
                VoigtArgument.from_xy(a, b, ctx40)
            with pytest.raises(DomainError):
                reduce_to_first_quadrant(a, b, ctx40)
        with pytest.raises(DomainError):
            VoigtArgument.from_polar(v, "0.3", ctx40)
    assert VoigtArgument.from_xy(0, 0, ctx40).r == 0  # zero is not bounded


def test_polar_refusal_names_the_polar_inputs(ctx40):
    # r = 4e-617 is inside the bound, but y = r cos(0.3 pi) is not; the
    # refusal is about r and theta, which the caller gave, not about y
    mctx = ctx40.mp()
    with pytest.raises(DomainError) as refused:
        VoigtArgument.from_polar("4e-617", mctx.pi * mctx.mpf("0.3"), ctx40)
    message = str(refused.value)
    assert message.startswith("r = 4.0e-617 at theta = 0.94248 ")
    assert "y = 2.35" not in message
    # at the endpoints of theta x or y is zero, and r alone is checked
    assert VoigtArgument.from_polar("4e-617", 0, ctx40).y > 0
    assert VoigtArgument.from_polar("4e-617", mctx.pi / 2, ctx40).x > 0


def test_reduce_examples(ctx40):
    a, sK, sL = reduce_to_first_quadrant(-2, 3, ctx40)
    assert (a.x, a.y, sK, sL) == (2, 3, 1, -1)
    a, sK, sL = reduce_to_first_quadrant(2, -3, ctx40)
    assert (a.x, a.y, sK, sL) == (2, 3, -1, 1)
    a, sK, sL = reduce_to_first_quadrant(0, 0, ctx40)
    assert (a.x, a.y, sK, sL) == (0, 0, 1, 1)


def test_reduce_sign_table_consistency(ctx40):
    # the four images of a point share one base evaluation; K flips with the
    # sign of y only, L with the sign of x only
    rng = random.Random(627)
    for _ in range(100):
        x = rng.uniform(0.1, 5.0)
        y = rng.uniform(0.1, 5.0)
        base, sK0, sL0 = reduce_to_first_quadrant(x, y, ctx40)
        assert (sK0, sL0) == (1, 1)
        for sx in (1, -1):
            for sy in (1, -1):
                a, sK, sL = reduce_to_first_quadrant(sx * x, sy * y, ctx40)
                assert a.x == base.x and a.y == base.y
                assert sK == (1 if sy > 0 else -1)
                assert sL == (1 if sx > 0 else -1)


def test_reduction_matches_direct_integral(ctx40):
    # anchor the sign table against the defining convolution integrals,
    # integrated directly at a third-quadrant point
    mctx = mp_context(30)
    x, y = mctx.mpf("-1.3"), mctx.mpf("-0.8")

    def f_K(t):
        return y * mctx.exp(-t * t) / (((x - t) ** 2 + y * y) * mctx.pi)

    def f_L(t):
        return (x - t) * mctx.exp(-t * t) / (((x - t) ** 2 + y * y) * mctx.pi)

    K_direct = mctx.quad(f_K, [-mctx.inf, x, mctx.inf])
    L_direct = mctx.quad(f_L, [-mctx.inf, x, mctx.inf])
    a, sK, sL = reduce_to_first_quadrant(x, y, ctx40)
    ev = voigt_exact_erfc(a, ctx40)
    assert abs(sK * ev.K - K_direct) < mctx.mpf(10) ** (-20)
    assert abs(sL * ev.L - L_direct) < mctx.mpf(10) ** (-20)


# ------------------------------------------------------------- closed form

def test_exact_on_real_axis(ctx40):
    mctx = ctx40.mp()
    ev = voigt_exact_erfc(VoigtArgument.from_xy(1, 0, ctx40), ctx40)
    assert abs(ev.K - mctx.exp(-1)) < mctx.mpf(10) ** (-38)


def test_exact_on_imaginary_axis(ctx40):
    mctx = ctx40.mp()
    for y in ("1", "2", "4"):
        ev = voigt_exact_erfc(VoigtArgument.from_xy(0, y, ctx40), ctx40)
        want = mctx.exp(mctx.mpf(y) ** 2) * mctx.erfc(mctx.mpf(y))
        assert abs(ev.K - want) < mctx.mpf(10) ** (-38) * want
        assert ev.L == 0


def _asymptotic_reference(ref, w, digits):
    # e^{w^2} erfc(w) ~ (1/(w sqrt(pi))) sum (-1)^k (1/2)_k w^{-2k}, summed
    # until the terms fall below 10^-(digits + 10): four terms suffice once
    # |w|^8 > 10^(digits + 10), up to 14 at |w| = 1e5 and 100 digits
    q = -1 / (2 * w * w)
    term = total = ref.mpc(1)
    k = 1
    while abs(term) > ref.mpf(10) ** (-(digits + 10)):
        term *= q * (2 * k - 1)
        total += term
        k += 1
    return total / (w * ref.sqrt(ref.pi))


@pytest.mark.parametrize("digits", (16, 40, 100))
def test_exact_at_large_x_matches_asymptotic_series(digits):
    # at large x the oracle must keep every digit: rounding w^2 before the
    # exponential, or inside mpmath's erfc, costs about 2 log10(x) of them
    ctx = PrecisionContext(digits=digits)
    ref = mp_context(digits + 40)
    tol = ref.mpf(10) ** (1 - digits)
    for x in ("1e5", "1e10", "1e30", "1e100"):
        for y in ("0.3", "2"):
            arg = VoigtArgument.from_xy(x, y, ctx)
            ev = voigt_exact_erfc(arg, ctx)
            want = _asymptotic_reference(ref, ref.mpc(arg.y, arg.x), digits)
            got = ref.mpc(ev.K, -ev.L)
            assert abs(abs(got) - abs(want)) <= tol * abs(want), (digits, x, y)
            assert abs(got - want) <= tol * abs(want), (digits, x, y)


def test_exact_minus_partial_sum_hits_foot_values(ctx40):
    # the m = 12 remainder at |w| = 3.5, theta = pi/10, via plain subtraction
    mctx = ctx40.mp()
    arg = VoigtArgument.from_polar("3.5", mctx.pi / 10, ctx40)
    ev = voigt_exact_erfc(arg, ctx40)
    sums = algebraic_partial_sums(arg, 12, ctx40)
    Khat = ev.K - sums.K
    Lhat = ev.L - sums.L
    # subtraction loses ~11 digits to cancellation at this r; 9 printed
    # digits survive comfortably
    assert abs(Khat - mctx.mpf(FOOT_TENTH_PI[0])) < mctx.mpf("1e-15")
    assert abs(Lhat - mctx.mpf(FOOT_TENTH_PI[1])) < mctx.mpf("1e-15")


# -------------------------------------------------------------- quadrature

def test_quadrature_agrees_with_erfc_at_2_3(ctx40):
    a = VoigtArgument.from_xy(2, 3, ctx40)
    e1 = voigt_exact_erfc(a, ctx40)
    e2 = voigt_quadrature(a, ctx40)
    assert abs(e1.K - e2.K) < 1e-12 * abs(e1.K)
    assert abs(e1.L - e2.L) < 1e-12 * abs(e1.L)


def test_quadrature_imaginary_axis_value(ctx40):
    mctx = ctx40.mp()
    ev = voigt_quadrature(VoigtArgument.from_xy(0, 1, ctx40), ctx40)
    want = mctx.e * mctx.erfc(1)
    assert abs(ev.K - want) < mctx.mpf(10) ** (-30)
    assert ev.L == 0


def test_quadrature_real_axis_limit(ctx40):
    mctx = ctx40.mp()
    ev = voigt_quadrature(VoigtArgument.from_xy(1, 0, ctx40), ctx40)
    assert abs(ev.K - mctx.exp(-1)) < mctx.mpf(10) ** (-30)
    # the principal-value form of L at y = 0 must agree with the erfc limit
    ref = voigt_exact_erfc(VoigtArgument.from_xy(1, 0, ctx40), ctx40)
    assert abs(ev.L - ref.L) < mctx.mpf(10) ** (-30)


def test_quadrature_routes_agree(ctx40):
    a = VoigtArgument.from_xy("1.5", "0.8", ctx40)
    conv = voigt_quadrature(a, ctx40, route="convolution")
    four = voigt_quadrature(a, ctx40, route="fourier")
    assert abs(conv.K - four.K) < 1e-30
    assert abs(conv.L - four.L) < 1e-30
    with pytest.raises(DomainError):
        voigt_quadrature(VoigtArgument.from_xy(1, 0, ctx40), ctx40, route="fourier")
    assert voigt_quadrature(a, ctx40) == conv  # the default route
    for unknown in ("simpson", "auto"):
        with pytest.raises(DomainError):
            voigt_quadrature(a, ctx40, route=unknown)


def test_route_agreement_grid(ctx40):
    # 7x7 grid over x, y in {0.5, ..., 6}: the two oracles must agree far
    # below the documented 1e-12 bar
    for xi in range(7):
        for yi in range(7):
            a = VoigtArgument.from_xy(0.5 + xi * 11 / 12, 0.5 + yi * 11 / 12, ctx40)
            e1 = voigt_exact_erfc(a, ctx40)
            e2 = voigt_quadrature(a, ctx40)
            assert abs(e1.K - e2.K) <= 1e-12 * abs(e1.K)
            assert abs(e1.L - e2.L) <= 1e-12 * max(abs(e1.L), 1e-30)


# -------------------------------------------------------------- remainders

def test_remainder_foot_values_both_angles(ctx40):
    mctx = ctx40.mp()
    arg1 = VoigtArgument.from_polar("3.5", mctx.pi / 10, ctx40)
    r1 = remainder_exact(arg1, 12, ctx40)
    assert abs(r1.K - mctx.mpf(FOOT_TENTH_PI[0])) < mctx.mpf("0.5e-15")
    assert abs(r1.L - mctx.mpf(FOOT_TENTH_PI[1])) < mctx.mpf("0.5e-15")
    arg2 = VoigtArgument.from_polar("3.5", 3 * mctx.pi / 8, ctx40)
    r2 = remainder_exact(arg2, 12, ctx40)
    assert abs(r2.K - mctx.mpf(FOOT_THREE_EIGHTHS_PI[0])) < mctx.mpf("0.5e-14")
    assert abs(r2.L - mctx.mpf(FOOT_THREE_EIGHTHS_PI[1])) < mctx.mpf("0.5e-14")


def test_remainder_on_imaginary_axis_subtraction_route(ctx60):
    # independent 60-digit check: exact value minus 12-term sum at x = 0
    mctx = ctx60.mp()
    y = mctx.mpf("3.5")
    exact = mctx.exp(y * y) * mctx.erfc(y)
    total = mctx.mpf(0)
    for k in range(12):
        total += (
            mctx.mpf((-1) ** k)
            * mctx.convert(pochhammer(Fraction(1, 2), k))
            / y ** (2 * k + 1)
        )
    want = exact - total / mctx.sqrt(mctx.pi)
    got = remainder_exact(VoigtArgument.from_xy(0, y, ctx60), 12, ctx60)
    assert abs(got.K - want) < mctx.mpf(10) ** (-40) * abs(want)
    assert abs(got.L) < mctx.mpf(10) ** (-45)


def test_remainder_route_independence(ctx40):
    mctx = ctx40.mp()
    arg = VoigtArgument.from_polar(4, mctx.pi * mctx.mpf("0.3"), ctx40)
    q = remainder_exact(arg, 16, ctx40, route="quadrature")
    g = remainder_exact(arg, 16, ctx40, route="gamma")
    scale = abs(mctx.mpc(g.K, -g.L))
    assert abs(q.K - g.K) < mctx.mpf(10) ** (-30) * scale
    assert abs(q.L - g.L) < mctx.mpf(10) ** (-30) * scale


def test_remainder_route_validation(ctx40):
    mctx = ctx40.mp()
    arg = VoigtArgument.from_polar(3, mctx.pi / 6, ctx40)
    with pytest.raises(DomainError):
        remainder_exact(arg, 0, ctx40, route="quadrature")
    with pytest.raises(DomainError):
        remainder_exact(arg, 4, ctx40, route="midpoint")
    with pytest.raises(DomainError):
        remainder_exact(arg, -1, ctx40)


def test_remainder_auto_switches_near_stokes(ctx40):
    # just inside the pole collar the auto route must still deliver: the
    # quadrature form has its pole on the path there and is refused
    mctx = ctx40.mp()
    arg = VoigtArgument.from_polar(3, mctx.pi / 2, ctx40)
    ev = remainder_exact(arg, 9, ctx40)
    assert ev.method == "remainder-gamma"
    with pytest.raises(DomainError):
        remainder_exact(arg, 9, ctx40, route="quadrature")


def _route_points():
    # two seeded radii per angle, plus one point whose optimal order is past
    # the recurrence cap (m = 225), where auto must fall back to quadrature
    rng = random.Random(3141)
    points = [("%.3f" % rng.uniform(3, 8), t)
              for t in ("0", "0.1", "0.2", "0.3", "0.4", "0.48") for _ in range(2)]
    return points + [("15", "0.3")]


@pytest.mark.parametrize("r, theta_over_pi", _route_points())
def test_remainder_auto_route(ctx40, r, theta_over_pi):
    # auto runs the gamma ladder up to the cap; quadrature stays the
    # independent cross-check
    mctx = ctx40.mp()
    arg = VoigtArgument.from_polar(r, mctx.mpf(theta_over_pi) * mctx.pi, ctx40)
    m = int(mctx.floor(arg.r ** 2 + mctx.mpf(1) / 2))
    auto = remainder_exact(arg, m, ctx40)
    quad = remainder_exact(arg, m, ctx40, route="quadrature")
    scale = abs(mctx.mpc(quad.K, -quad.L))
    assert abs(auto.K - quad.K) <= mctx.mpf(10) ** (-30) * scale
    assert abs(auto.L - quad.L) <= mctx.mpf(10) ** (-30) * scale
    if m <= GAMMA_RECURRENCE_CAP:
        assert auto.method == "remainder-gamma"
        assert auto == remainder_ladder(arg, m, ctx40)[m]
    else:
        assert auto.method == "remainder-quadrature"


def test_remainder_order_zero_is_whole_function(ctx40):
    # at m = 0 nothing has been summed, so the remainder is K - iL itself,
    # on either side of the pole collar
    mctx = ctx40.mp()
    for theta in ("0.3", "1.55"):
        arg = VoigtArgument.from_polar(5, theta, ctx40)
        rem = remainder_exact(arg, 0, ctx40)
        full = voigt_exact_erfc(arg, ctx40)
        scale = abs(mctx.mpc(full.K, -full.L))
        assert abs(rem.K - full.K) <= mctx.mpf(10) ** (-35) * scale
        assert abs(rem.L - full.L) <= mctx.mpf(10) ** (-35) * scale


def test_remainder_ladder_consistency(ctx40):
    mctx = ctx40.mp()
    arg = VoigtArgument.from_polar("3.5", mctx.pi / 5, ctx40)
    ladder = remainder_ladder(arg, 14, ctx40)
    assert len(ladder) == 15
    # entry 0 is the whole function
    full = voigt_exact_erfc(arg, ctx40)
    assert abs(ladder[0].K - full.K) < mctx.mpf(10) ** (-35) * abs(full.K)
    assert abs(ladder[0].L - full.L) < mctx.mpf(10) ** (-35) * abs(full.L)
    # entry 12 equals the one-shot evaluation by either route
    solo = remainder_exact(arg, 12, ctx40, route="quadrature")
    scale = abs(mctx.mpc(solo.K, -solo.L))
    assert abs(ladder[12].K - solo.K) < mctx.mpf(10) ** (-28) * scale
    assert abs(ladder[12].L - solo.L) < mctx.mpf(10) ** (-28) * scale


def test_remainder_magnitude_scale(ctx40):
    # at optimal truncation the remainder is exponentially small: e^{-r^2}
    # sets the scale, not any algebraic power
    mctx = ctx40.mp()
    for r in (2, 3, 4):
        arg = VoigtArgument.from_polar(r, mctx.pi / 7, ctx40)
        m = int(r * r + 0.5)
        ev = remainder_exact(arg, m, ctx40)
        mag = abs(mctx.mpc(ev.K, -ev.L))
        assert mctx.exp(-r * r) / (10 * r) < mag < 10 * mctx.exp(-r * r)
