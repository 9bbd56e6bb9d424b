"""Exact-evaluation tests: quadrant reduction, the erfc-based closed form,
the direct-integration cross-check, and the exact truncation remainders that
anchor every expansion test in the suite.
"""

from __future__ import annotations

import math
import random
import sys
import threading
import time
from fractions import Fraction

import pytest
from mpmath.ctx_mp import MPContext

from coefficient_reference import pochhammer
from quadrature_reference import remainder_quadrature, voigt_fourier
from voigt_asym import (
    DomainError,
    PrecisionContext,
    PrecisionError,
    VoigtArgument,
    algebraic_partial_sums,
    mp_context,
    oracle,
    reduce_to_first_quadrant,
    remainder_exact,
    voigt_exact_erfc,
    voigt_quadrature,
)
from voigt_asym.numerics import GAMMA_RECURRENCE_CAP, GUARD_DIGITS
from voigt_asym.oracle import COORDINATE_MAG_MAX, EPS_POLE, QUADRATURE_DIGITS_MAX

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


def test_gaussian_on_the_real_axis_keeps_its_digits(ctx40):
    # K(x, 0) = e^{-x^2}: with -x^2 rounded to the working precision the
    # exponent would err by about x^2 10^-dps, 1e-29 relative at x ~ 3e10
    arg = VoigtArgument.from_xy("31415926535.8979323846264338327950288", 0, ctx40)
    ref = mp_context(80)
    want = ref.exp(ref.fneg(ref.fmul(arg.x, arg.x, exact=True), exact=True))
    assert abs(voigt_exact_erfc(arg, ctx40).K - want) <= ref.mpf(10) ** (-39) * want


def test_exact_on_imaginary_axis(ctx40):
    mctx = ctx40.mp()
    for y in ("1", "2", "4"):
        ev = voigt_exact_erfc(VoigtArgument.from_xy(0, y, ctx40), ctx40)
        want = mctx.exp(mctx.mpf(y) ** 2) * mctx.erfc(mctx.mpf(y))
        assert abs(ev.K - want) < mctx.mpf(10) ** (-38) * want
        assert ev.L == 0


def test_imaginary_axis_past_the_float_range_of_y_squared():
    # mpmath's real erfc overflows a float with y^2 from about y = 1.3e154;
    # from y = 2^511 on the oracle takes U(1/2, 1/2, y^2)/sqrt(pi). Up to
    # y = 1e200 at 400 digits, 2 y^2 stays below the closed form's 10^dps,
    # and three terms of 1/(sqrt(pi) y) (1 - 1/(2 y^2) + 3/(4 y^4)) are
    # exact there
    ctx = PrecisionContext(digits=400)
    ref = mp_context(420)
    for y in ("1e154", "1e160", "1e200"):
        ev = voigt_exact_erfc(VoigtArgument.from_xy(0, y, ctx), ctx)
        yy = ref.mpf(y)
        want = (1 - 1 / (2 * yy**2) + 3 / (4 * yy**4)) / (ref.sqrt(ref.pi) * yy)
        assert abs(ev.K - want) <= ev.err_estimate, y
        assert ev.L == 0


@pytest.mark.parametrize("digits", (320, 400))
def test_imaginary_axis_agrees_with_erfc_on_both_sides_of_its_switch(digits):
    # just below 2^511 the oracle runs mpmath's erfc, from it on U; both
    # match e^{y^2} erfc(y) run directly at 20 more digits, which mpmath's
    # erfc holds up to y = 2^512. Below about 310 digits the closed form
    # 1/(sqrt(pi) y) takes every such y
    ctx = PrecisionContext(digits=digits)
    ref = mp_context(ctx.mp().dps + 20)
    for y in (2 ** 511 - 2 ** 480, 2 ** 511, 3 * 2 ** 510):
        ev = voigt_exact_erfc(VoigtArgument.from_xy(0, y, ctx), ctx)
        yy = ref.mpf(y)
        want = ref.exp(ref.fmul(yy, yy, exact=True)) * ref.erfc(yy)
        assert abs(ev.K - want) <= ev.err_estimate, (digits, y)


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


def _erfc_route(arg, ctx):
    # K - iL by mpmath's erfc as the oracle runs it below its closed form:
    # w^2 exact, and the 2 log10(x) digits of mpmath's own squaring on top
    wctx = mp_context(ctx.digits + 20 + math.ceil(2 * math.log10(float(arg.x))))
    w = wctx.mpc(arg.y, arg.x)
    return wctx.exp(wctx.fmul(w, w, exact=True)) * wctx.erfc(w)


@pytest.mark.parametrize("digits", (40, 100))
def test_closed_form_at_huge_radius_matches_the_erfc_route(digits):
    # once 2 r^2 > 10^dps the oracle returns 1/(sqrt(pi) w); at 40 digits
    # every x here takes it, at 100 digits only 1e60 does
    ctx = PrecisionContext(digits=digits)
    for x in ("1e25", "1e30", "1e60"):
        for y in ("2", "1e-300"):
            arg = VoigtArgument.from_xy(x, y, ctx)
            ev = voigt_exact_erfc(arg, ctx)
            want = _erfc_route(arg, ctx)
            assert abs(ev.K - want.real) <= ev.err_estimate, (digits, x, y)
            assert abs(ev.L + want.imag) <= ev.err_estimate, (digits, x, y)


def test_closed_form_at_huge_radius_calls_no_erfc(monkeypatch, ctx40):
    # at x = 1e400 the erfc route would run near 850 digits for seconds;
    # on the imaginary w axis, y = 1e400, mpmath's real erfc overflowed
    def refuse(ctx, z):
        raise AssertionError("voigt_exact_erfc called mpmath's erfc at %s" % (z,))

    monkeypatch.setattr(MPContext, "erfc", refuse)
    mctx = ctx40.mp()
    for x, y in (("1e400", "2"), ("1e400", "0"), ("0", "1e400")):
        arg = VoigtArgument.from_xy(x, y, ctx40)
        ev = voigt_exact_erfc(arg, ctx40)
        want = 1 / (mctx.sqrt(mctx.pi) * mctx.mpc(arg.y, arg.x))
        # e^{-x^2} with -x^2 exact, at 20 more digits
        ref = mp_context(mctx.dps + 20)
        x2 = ref.fneg(ref.fmul(arg.x, arg.x, exact=True), exact=True)
        K = ref.exp(x2) if y == "0" else want.real
        assert abs(ev.K - K) <= mctx.mpf(10) ** (-39) * K, (x, y)
        assert abs(ev.L + want.imag) <= mctx.mpf(10) ** (-39) * abs(want), (x, y)


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
    # the library's convolution against the tests' half-line Fourier form,
    # which needs y > 0; the library takes no route choice
    a = VoigtArgument.from_xy("1.5", "0.8", ctx40)
    conv = voigt_quadrature(a, ctx40)
    four = voigt_fourier(a, ctx40)
    assert abs(conv.K - four.K) < 1e-30
    assert abs(conv.L - four.L) < 1e-30
    with pytest.raises(DomainError):
        voigt_fourier(VoigtArgument.from_xy(1, 0, ctx40), ctx40)
    with pytest.raises(TypeError):
        voigt_quadrature(a, ctx40, route="fourier")


def test_quadrature_refuses_digits_past_its_cap():
    # the work grows steeply with the digits (minutes at 400); the y > 0
    # and the y = 0 forms refuse past the cap by name, and so does a point
    # whose log10 x widening passes it (23 s of work at (1e400, 1) and 40
    # digits, where the peak's nodes lie 1e360 apart unwidened)
    ctx = PrecisionContext(digits=QUADRATURE_DIGITS_MAX + 1)
    msg = "at most %d digits" % QUADRATURE_DIGITS_MAX
    for x, y, c in ((3, 4, ctx), (3, 0, ctx), ("1e400", 1, PrecisionContext(40)),
                    ("1e300", 2, PrecisionContext(16))):
        with pytest.raises(DomainError, match=msg):
            voigt_quadrature(VoigtArgument.from_xy(x, y, c), c)


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


def test_quadrature_is_one_integral_at_every_point(ctx40, monkeypatch):
    # K - iL is one folded integral everywhere: on y = 0 K is the Gaussian
    # in closed form and the integral gives L, which is 0 at the origin
    calls = []
    real = oracle.integrate_semi_infinite

    def spy(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "integrate_semi_infinite", spy)
    for x, y in ((3, 4), (0, 1), ("0.3", "1e-20"), (7, 0), (0, 0)):
        calls.clear()
        voigt_quadrature(VoigtArgument.from_xy(x, y, ctx40), ctx40)
        assert len(calls) == 1, (x, y)


def _quadrature_miss(arg, ctx, route=voigt_quadrature):
    # the route's evaluation, and its |dK| + |dL| against the erfc oracle at
    # 20 more digits
    want = voigt_exact_erfc(arg, PrecisionContext(digits=ctx.digits + 20))
    got = route(arg, ctx)
    return got, abs(got.K - want.K) + abs(got.L - want.L)


@pytest.mark.parametrize("digits", [16, 40, 100])
def test_convolution_holds_its_estimate_as_y_goes_to_zero(digits):
    # the Cauchy kernel is a spike of width y at t = x: the route must
    # resolve it for y down to 1e-300, and keep t - x to full precision
    # where x >> y. L is odd in x, and at (1e-300, 1e-300), where it is
    # 1.13e-300, far below the estimate, it must still come out nonzero.
    # At x ~ 1e3 and 1e30 no exponent of order x^2 may be rounded. On
    # y = 0 the kernel's real part is a delta: K is e^{-x^2}, which must
    # match the oracle's closed form to one unit
    rng = random.Random(digits)
    ctx = PrecisionContext(digits=digits)
    unit = ctx.mp().mpf(10) ** (1 - digits)
    if digits == 100:
        points = [("1.23e8", "0")]
    else:
        tiny = "1e-300" if digits == 16 else "1e-%d" % rng.randint(15, 40)
        points = [(x, y) for y in (tiny, "1e-%d" % rng.randint(1, 14), "1") for x in ("0", y, "1", "3")]
        far = ["%.17ge%d" % (rng.uniform(1, 10), e) for e in (3, 30)]
        points += [(x, y) for x in far for y in ("1", "0.01")]
        axis = ["0", "0.5", "3"] + ["%.17ge%d" % (rng.uniform(1, 10), e) for e in (3, 8, 15, 30)]
        points += [(x, "0") for x in axis]
    for x, y in points:
        arg = VoigtArgument.from_xy(x, y, ctx)
        got, miss = _quadrature_miss(arg, ctx)
        assert miss <= got.err_estimate and (got.L or x == "0"), (x, y, miss, got)
        if y == "0":
            want = voigt_exact_erfc(arg, PrecisionContext(digits=digits + 20))
            assert abs(got.K - want.K) <= unit * want.K, (x, got.K, want.K)


@pytest.mark.parametrize("digits", [16, 40, 100])
def test_convolution_holds_its_estimate_at_large_x(digits):
    # nodes near the Gaussian's peak s = x lie about x 10^-dps apart, and
    # the panel ending there starts decades away: the route runs log10 x
    # digits wider and splits at x - c. At 16 and 40 digits, 20 draws with
    # x log-uniform on [1e-3, 1e31] and y log-uniform on [1e-30, 1e2], or 0,
    # and at 16 three such draws the unwidened route missed by 1.03-1.29x;
    # at every precision three points at y = 1 out to x = 1.23e30
    rng = random.Random(2025 + digits)
    ctx = PrecisionContext(digits=digits)
    points = [(x, "1") for x in ("1.23e15", "1.23e20", "1.23e30")]
    if digits == 16:
        points += [("5.24e19", "2.172e-12"), ("5.838e26", "1.776e-8"), ("2.374e26", "1.948e-17")]
    if digits < 100:
        points += [(repr(10 ** rng.uniform(-3, 31)),
                    "0" if rng.random() < 0.15 else repr(10 ** rng.uniform(-30, 2)))
                   for _ in range(20)]
    for x, y in points:
        got, miss = _quadrature_miss(VoigtArgument.from_xy(x, y, ctx), ctx)
        assert miss <= got.err_estimate, (x, y, miss, got)


@pytest.mark.parametrize("digits", [40, 100])
def test_convolution_keeps_relative_L_at_tiny_x(digits):
    # L is odd in x: the two folded Gaussians e^{-(x -+ s)^2} differ by
    # about 4xs e^{-s^2}, which their difference loses at tiny x, where
    # e^{-(x - s)^2} expm1(-4xs) keeps it
    ctx = PrecisionContext(digits=digits)
    arg = VoigtArgument.from_xy("1e-20", "1e-3", ctx)
    want = voigt_exact_erfc(arg, PrecisionContext(digits=digits + 20))
    got = voigt_quadrature(arg, ctx)
    assert abs(got.L - want.L) <= ctx.mp().mpf(10) ** (1 - digits) * abs(want.L)


@pytest.mark.parametrize("digits", [16, 40, 100, 150])
def test_both_quadrature_routes_hold_their_estimate(digits):
    rng = random.Random(digits)
    ctx = PrecisionContext(digits=digits)
    wide = digits <= 40
    for _ in range(3 if wide else 1):
        x = rng.uniform(0, 8 if wide else 4)
        y = 10 ** rng.uniform(-2 if wide else -1, 1)
        arg = VoigtArgument.from_xy(repr(x), repr(y), ctx)
        for route in (voigt_quadrature, voigt_fourier):
            got, miss = _quadrature_miss(arg, ctx, route)
            assert miss <= got.err_estimate, (x, y, route.__name__, miss, got)


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


def test_remainder_route_validation(ctx40):
    # "auto" and "gamma" are the only routes; the contour integral is no
    # longer a caller's choice
    mctx = ctx40.mp()
    arg = VoigtArgument.from_polar(3, mctx.pi / 6, ctx40)
    for unknown in ("quadrature", "midpoint"):
        with pytest.raises(DomainError, match="unknown remainder route"):
            remainder_exact(arg, 4, ctx40, route=unknown)
    with pytest.raises(DomainError):
        remainder_exact(arg, -1, ctx40)


def test_remainder_auto_switches_near_stokes(ctx40):
    # just inside the pole collar the auto route must still deliver: the
    # quadrature form has its pole on the path there and is refused. Past
    # the cap inside the collar auto refuses the depth rather than take it
    mctx = ctx40.mp()
    arg = VoigtArgument.from_polar(3, mctx.pi / 2, ctx40)
    ev = remainder_exact(arg, 9, ctx40)
    assert ev.method == "remainder-gamma"
    with pytest.raises(DomainError, match="pole on the path"):
        remainder_quadrature(arg, 9, ctx40)
    arg = VoigtArgument.from_polar(15, mctx.mpf("0.49") * mctx.pi, ctx40)
    with pytest.raises(DomainError, match="exceeds the configured cap"):
        remainder_exact(arg, GAMMA_RECURRENCE_CAP + 1, ctx40)


def _route_points():
    # two seeded radii per angle, one point whose optimal order is past the
    # recurrence cap (m = 225), where auto takes Legendre's fraction, and
    # the foot points of table 1 at m = 16 and m = 12
    rng = random.Random(3141)
    points = [("%.3f" % rng.uniform(3, 8), t)
              for t in ("0", "0.1", "0.2", "0.3", "0.4", "0.48") for _ in range(2)]
    return points + [("15", "0.3"), ("4", "0.3"), ("3.5", "0.1")]


@pytest.mark.parametrize("r, theta_over_pi", _route_points())
def test_remainder_auto_route(ctx40, r, theta_over_pi):
    # auto runs the gamma ladder up to the cap and the fraction past it; the
    # contour quadrature is the independent cross-check of both
    mctx = ctx40.mp()
    arg = VoigtArgument.from_polar(r, mctx.mpf(theta_over_pi) * mctx.pi, ctx40)
    m = int(mctx.floor(arg.r ** 2 + mctx.mpf(1) / 2))
    auto = remainder_exact(arg, m, ctx40)
    quad = remainder_quadrature(arg, m, ctx40)
    scale = abs(mctx.mpc(quad.K, -quad.L))
    assert abs(auto.K - quad.K) <= mctx.mpf(10) ** (-30) * scale
    assert abs(auto.L - quad.L) <= mctx.mpf(10) ** (-30) * scale
    if m <= GAMMA_RECURRENCE_CAP:
        assert auto.method == "remainder-gamma"
        assert auto == remainder_exact(arg, m, ctx40, route="gamma")
    else:
        assert auto.method == "remainder-fraction"


def test_remainder_quadrature_error_estimate_is_honest(ctx40):
    # 24 seeded cases at 40 digits: r in [2.5, 6], theta/pi in [0, 0.45] and
    # m at the optimal cut m0, two below it and three past it, where the
    # integrand peaks at tau_star > 1. The ladder at 70 digits is the
    # reference; the rounded angles alone cost about 10^-45 relative, which
    # the quadrature's own estimate, without the eps unit, missed by over
    # ten times past m0
    ref = PrecisionContext(digits=70)
    rctx = ref.mp()
    rng = random.Random(2405)
    for _ in range(8):
        r, theta_over_pi = rng.uniform(2.5, 6), rng.uniform(0, 0.45)
        arg = VoigtArgument.from_polar(r, rctx.mpf(theta_over_pi) * rctx.pi, ctx40)
        m0 = int(r * r + 0.5)
        for m in (m0 - 2, m0, m0 + 3):
            got = remainder_quadrature(arg, m, ctx40)
            want = remainder_exact(arg, m, ref)
            err = abs(got.K - want.K) + abs(got.L - want.L)
            assert err <= got.err_estimate, (r, theta_over_pi, m)


def _remainder_by_gammainc(arg, m, digits):
    # (-1)^m Gamma(m + 1/2) e^z Gamma(1/2 - m, z) / pi by mpmath's gammainc,
    # as hat-K - i hat-L, with z = w^2 squared at the reference precision
    ref = mp_context(digits)
    w = ref.mpc(arg.y, arg.x)
    z = w * w
    return ((-1) ** m * ref.gamma(m + ref.mpf(1) / 2) * ref.exp(z)
            * ref.gammainc(ref.mpf(1) / 2 - m, z) / ref.pi)


@pytest.mark.parametrize("x", [1e3, 1e5])
def test_remainder_at_small_order_and_large_modulus(ctx40, x):
    # at m = 5 << |z| the sweep loses about 5 log10(2|z|) digits, not
    # |z| log10(e): sized by the latter it widened by 434,000 digits at
    # x = 1e3 and did not return within a minute
    arg = VoigtArgument.from_xy(x, 1, ctx40)
    start = time.perf_counter()
    ev = remainder_exact(arg, 5, ctx40)
    assert time.perf_counter() - start < 1
    want = _remainder_by_gammainc(arg, 5, 70)
    assert abs(ev.K - want.real) + abs(ev.L + want.imag) <= ev.err_estimate


def test_remainder_at_small_order_past_the_float_range(ctx40):
    # |z| = 1e600 does not fit a float: the sizing takes log2 |z| from the
    # exact |z|^2, where a float of it raised an untyped OverflowError
    arg = VoigtArgument.from_xy(1e300, 1, ctx40)
    try:
        ev = remainder_exact(arg, 5, ctx40)
    except (DomainError, PrecisionError):
        return
    mctx = ctx40.mp()
    assert mctx.isfinite(ev.K) and mctx.isfinite(ev.L)
    want = _remainder_by_gammainc(arg, 5, 70)
    assert abs(ev.K - want.real) + abs(ev.L + want.imag) <= ev.err_estimate


@pytest.mark.parametrize("digits", [16, 40, 100])
def test_remainder_gamma_agrees_with_the_contour_quadrature(digits):
    # the contour integral shares no code with the sweep; off the EPS_POLE
    # collar, where its pole stays off the path, the two must agree within
    # the sum of their error estimates, at and around the optimal cut. At
    # m = 0 the integrand's tau^(m - 1/2) end point held the quadrature to
    # 1e-66 at 100 digits, so m starts at 1
    ctx = PrecisionContext(digits=digits)
    mctx = ctx.mp()
    rng = random.Random(2211 + digits)
    for _ in range(3 if digits == 100 else 5):
        theta = mctx.mpf(rng.uniform(0, 0.5 - 2 * EPS_POLE / math.pi)) * mctx.pi
        arg = VoigtArgument.from_polar(rng.uniform(1, 8), theta, ctx)
        m = max(1, int(arg.r ** 2 + 0.5) + rng.randint(-4, 4))
        got = remainder_exact(arg, m, ctx)
        quad = remainder_quadrature(arg, m, ctx)
        miss = abs(got.K - quad.K) + abs(got.L - quad.L)
        assert miss <= got.err_estimate + quad.err_estimate, (digits, arg.r, theta, m)


def _past_the_cap(digits, seed, m_max):
    # seeded (argument, m) with m log-uniform in (200, m_max], r within 10%
    # of sqrt(m) and theta/pi from 0 to the EPS_POLE collar edge, the first
    # draw on that edge
    ctx = PrecisionContext(digits=digits)
    mctx = ctx.mp()
    edge = mctx.pi / 2 - EPS_POLE
    rng = random.Random(seed + digits)
    for i in range(3 if digits == 100 else 4):
        m = int(10 ** rng.uniform(math.log10(GAMMA_RECURRENCE_CAP + 1), math.log10(m_max)))
        r = math.sqrt(m) * rng.uniform(0.9, 1.1)
        yield VoigtArgument.from_polar(r, edge * (1 if i == 0 else rng.random()), ctx), m, ctx


@pytest.mark.parametrize("digits", [16, 40, 100])
def test_remainder_fraction_agrees_with_the_contour_quadrature(digits):
    # past the cap Legendre's fraction and the contour integral share no
    # code; they agree within the sum of their estimates for m up to 10^4
    for arg, m, ctx in _past_the_cap(digits, 2610, 10 ** 4):
        got = remainder_exact(arg, m, ctx)
        assert got.method == "remainder-fraction"
        quad = remainder_quadrature(arg, m, ctx)
        miss = abs(got.K - quad.K) + abs(got.L - quad.L)
        assert miss <= got.err_estimate + quad.err_estimate, (digits, arg.r, arg.theta, m)


@pytest.mark.parametrize("digits", [16, 40, 100])
def test_remainder_fraction_matches_mpmath_gammainc(digits):
    # against mpmath's gammainc at 20 more digits the miss is within
    # remainder_exact's own estimate. Past m of about 1000 gammainc is no
    # reference: near theta = 0 it took 2-4 s at m = 1600 and raised
    # NoConvergence from m = 2000 (36 to 120 digits), so the draws stop at
    # 1000 and the contour test above covers m up to 10^4
    for arg, m, ctx in _past_the_cap(digits, 2611, 1000):
        got = remainder_exact(arg, m, ctx)
        want = _remainder_by_gammainc(arg, m, digits + 20)
        miss = abs(got.K - want.real) + abs(got.L + want.imag)
        assert miss <= got.err_estimate, (digits, arg.r, arg.theta, m)


def test_remainder_routes_meet_at_the_cap(ctx40):
    # the ladder at m = 200 and the fraction at m = 201, at one point near
    # the optimal cut: consecutive remainders differ by the term the cut
    # moves, R_200 - R_201 = (1/2)_200 w^{-401} / sqrt(pi)
    mctx = ctx40.mp()
    arg = VoigtArgument.from_polar("14.15", mctx.mpf("0.3") * mctx.pi, ctx40)
    below = remainder_exact(arg, GAMMA_RECURRENCE_CAP, ctx40)
    above = remainder_exact(arg, GAMMA_RECURRENCE_CAP + 1, ctx40)
    assert (below.method, above.method) == ("remainder-gamma", "remainder-fraction")
    ref = mp_context(70)
    term = (ref.convert(pochhammer(Fraction(1, 2), GAMMA_RECURRENCE_CAP))
            * ref.mpc(arg.y, arg.x) ** (-2 * GAMMA_RECURRENCE_CAP - 1) / ref.sqrt(ref.pi))
    gap = ref.mpc(below.K, -below.L) - ref.mpc(above.K, -above.L) - term
    assert abs(gap) <= below.err_estimate + above.err_estimate
    assert abs(term) > 100 * (below.err_estimate + above.err_estimate)


def test_threads_leave_the_remainder_contexts_as_they_were(ctx40):
    # 4 threads run remainder_exact on both kernels at once, switching every
    # microsecond: each gets the single-threaded result, and the shared
    # contexts keep their precision. mpmath's rf, which sets its context's
    # prec for a moment, left the epilogue's 169-bit context hundreds of bits
    # wider here, every run
    mctx = ctx40.mp()
    jobs = [(VoigtArgument.from_polar(r, mctx.mpf("0.3") * mctx.pi, ctx40), m)
            for r, m in ((3, 12), (7, 49), (20, 400))]
    precs = [c.prec for c in (mctx, ctx40.mp(extra=GUARD_DIGITS))]
    want = [remainder_exact(arg, m, ctx40) for arg, m in jobs]
    assert [w.method for w in want] == ["remainder-gamma"] * 2 + ["remainder-fraction"]
    got = []

    def worker():
        for i in range(90):
            arg, m = jobs[i % 3]
            got.append(remainder_exact(arg, m, ctx40) == want[i % 3])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(got) == 360 and all(got)
    assert [c.prec for c in (mctx, ctx40.mp(extra=GUARD_DIGITS))] == precs


def test_threads_leave_the_erfc_oracle_contexts_as_they_were(ctx40):
    # 4 threads run voigt_exact_erfc at once, switching every microsecond:
    # each gets the single-threaded result, bit for bit, and the shared
    # contexts keep their precision. mpmath's complex erfc sets the prec of
    # its context for the call (through hypercomb); on the shared 50-digit
    # context it left 189 to 278 bits in place of 169 here
    args = [VoigtArgument.from_xy(x, y, ctx40) for x, y in ((3, 4), (1, 2), (5, "0.5"))]
    contexts = (ctx40.mp(), ctx40.mp(extra=GUARD_DIGITS))
    precs = [c.prec for c in contexts]
    want = [voigt_exact_erfc(arg, ctx40) for arg in args]
    got = []

    def worker():
        for i in range(60):
            got.append(voigt_exact_erfc(args[i % 3], ctx40) == want[i % 3])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(got) == 240 and all(got)
    assert [c.prec for c in contexts] == precs


@pytest.mark.parametrize("digits", [40, 100])
@pytest.mark.parametrize("r", ["20", "30", "45"])
def test_eq41_scan_points_past_the_cap_match_the_contour_quadrature(r, digits):
    # the points of `scan --r 20|30|45 --n 3 --variant eq41`: theta/pi = 0,
    # 0.24 and 0.48 at the optimal cut, m = 400, 900 and 2025
    ctx = PrecisionContext(digits=digits)
    mctx = ctx.mp()
    for frac in ("0", "0.24", "0.48"):
        arg = VoigtArgument.from_polar(r, mctx.mpf(frac) * mctx.pi, ctx)
        m = int(mctx.mpf(r) ** 2 + mctx.mpf(1) / 2)
        got = remainder_exact(arg, m, ctx)
        quad = remainder_quadrature(arg, m, ctx)
        miss = abs(got.K - quad.K) + abs(got.L - quad.L)
        assert got.method == "remainder-fraction"
        assert miss <= got.err_estimate, (r, digits, frac)


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
    # the ladder's value at m = 0 is the whole function
    zero = remainder_exact(arg, 0, ctx40)
    full = voigt_exact_erfc(arg, ctx40)
    assert abs(zero.K - full.K) < mctx.mpf(10) ** (-35) * abs(full.K)
    assert abs(zero.L - full.L) < mctx.mpf(10) ** (-35) * abs(full.L)
    # its value at m = 12 equals the contour integral
    twelve = remainder_exact(arg, 12, ctx40)
    solo = remainder_quadrature(arg, 12, ctx40)
    scale = abs(mctx.mpc(solo.K, -solo.L))
    assert abs(twelve.K - solo.K) < mctx.mpf(10) ** (-28) * scale
    assert abs(twelve.L - solo.L) < mctx.mpf(10) ** (-28) * scale


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
