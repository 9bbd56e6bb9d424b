"""Expansion-layer tests: truncation planning, algebraic partial sums, the
two terminant estimates, both compound remainder expansions (their leading
terms included), and the full evaluator built from them. Golden digits come
from the frozen reference tables; everything else is checked against the
exact remainder oracles.
"""

from __future__ import annotations

import collections
import functools
import math
import random
import sys
import threading
import warnings
from fractions import Fraction

import pytest

from coefficient_reference import c_closed_form
from voigt_asym import (
    BelowAsymptoticRangeWarning,
    DomainError,
    PrecisionContext,
    StokesCollarWarning,
    TruncationPlan,
    UnsupportedOrderError,
    VoigtArgument,
    algebraic_partial_sums,
    coefficient_set,
    evaluate_via_expansion,
    optimal_truncation,
    remainder_exact,
    terminant_asymptotic,
    theorem1,
    theorem2,
    voigt_exact_erfc,
)
from voigt_asym import coefficients
from voigt_asym.coefficients import K_MAX, PHI_SWITCH, _E_of_c
from voigt_asym.expansions import EST_SAFETY, OPTIMAL_REMAINDER_BOUND
from voigt_asym.numerics import THETA_COLLAR_OVER_PI
from voigt_asym.tables import (
    TABLE1_FOOT,
    TABLE1_M,
    TABLE1_ROWS,
    TABLE1_SIG,
    TABLE2_ANGLES,
    TABLE2_K_TERMS,
    TABLE2_M,
    TABLE2_R,
    tolerance_last_digit,
)


# --------------------------------------------------------------- truncation

def test_optimal_truncation_reference_points(ctx40):
    plan = optimal_truncation("3.5", ctx40)
    assert (plan.m, float(plan.alpha)) == (12, 0.25)
    plan = optimal_truncation(6, ctx40)
    assert (plan.m, float(plan.alpha)) == (36, 0.5)
    plan = optimal_truncation(1, ctx40)
    assert (plan.m, float(plan.alpha)) == (1, 0.5)


def test_optimal_truncation_below_range_warns(ctx40):
    with pytest.warns(BelowAsymptoticRangeWarning):
        optimal_truncation("0.5", ctx40)
    with pytest.raises(DomainError):
        optimal_truncation(0, ctx40)
    with pytest.raises(DomainError):
        optimal_truncation(-2, ctx40)


def test_plan_override(ctx40):
    plan = TruncationPlan.for_m(10, "3.5", ctx40)
    assert plan.m == 10
    assert float(plan.nu) == 10.5


@pytest.mark.parametrize("digits", (16, 40))
@pytest.mark.parametrize("r", ("1e10", "1e23", "1e30", "1e400"))
def test_optimal_alpha_stays_in_unit_interval_at_large_r(r, digits):
    # once r^2 outgrows the precision, m + 1/2 - r^2 cancels in all but its
    # last digits; the plan must still give the exact alpha in (0, 1]
    ctx = PrecisionContext(digits=digits)
    rr = ctx.mp().mpf(r)
    exact_r2 = Fraction(rr.man) ** 2 * Fraction(2) ** (2 * rr.exp)
    plan = optimal_truncation(rr, ctx)
    assert plan.m == math.floor(exact_r2 + Fraction(1, 2))
    alpha = plan.m + Fraction(1, 2) - exact_r2
    assert 0 < plan.alpha <= 1
    got = Fraction(plan.alpha.man) * Fraction(2) ** plan.alpha.exp
    assert abs(got - alpha) <= alpha * Fraction(1, 10 ** (digits + 1))


# ------------------------------------------------------------ partial sums

def test_partial_sums_on_imaginary_axis(ctx40):
    mctx = ctx40.mp()
    arg = VoigtArgument.from_xy(0, 2, ctx40)
    ev = algebraic_partial_sums(arg, 1, ctx40)
    assert abs(ev.K - 1 / (mctx.sqrt(mctx.pi) * 2)) < mctx.mpf(10) ** (-38)
    assert ev.L == 0


def test_partial_sums_on_real_axis(ctx40):
    mctx = ctx40.mp()
    arg = VoigtArgument.from_xy(3, 0, ctx40)
    ev = algebraic_partial_sums(arg, 1, ctx40)
    assert abs(ev.L - 1 / (mctx.sqrt(mctx.pi) * 3)) < mctx.mpf(10) ** (-38)
    # cos(theta) at the rounded pi/2 leaves roundoff dust, not an exact zero
    assert abs(ev.K) < mctx.mpf(10) ** (-45)


def test_partial_sums_validation(ctx40):
    arg = VoigtArgument.from_xy(1, 1, ctx40)
    with pytest.raises(DomainError):
        algebraic_partial_sums(arg, -1, ctx40)
    with pytest.raises(DomainError):
        algebraic_partial_sums(VoigtArgument.from_xy(0, 0, ctx40), 3, ctx40)


def _partial_sum_cases():
    # seeded (digits, r, theta/pi, m) draws; m covers the empty sum, the
    # optimal cut and random cuts up to 3 r^2 + 5, well past the least term
    rng = random.Random(20140329)
    cases = []
    for digits in (20, 40, 100):
        for i in range(6):
            r = "%.6f" % rng.uniform(0.5, 30)
            theta_over_pi = ("0", "0.5")[i] if i < 2 else "%.6f" % rng.uniform(0, 0.5)
            m_opt = int(float(r) ** 2 + 0.5)
            m_rand = rng.randint(0, int(3 * float(r) ** 2 + 5))
            for m in (0, m_opt, m_rand):
                cases.append((digits, r, theta_over_pi, m))
    return cases


def _trig_partial_sums(arg, m, digits):
    # the real resummation in (r, theta):
    # K_m, L_m = (1/sqrt(pi)) sum_{k<m} (-1)^k (1/2)_k r^{-2k-1} {cos, sin}((2k+1) theta)
    mctx = PrecisionContext(digits=digits).mp()
    r = mctx.convert(arg.r)
    theta = mctx.convert(arg.theta)
    K = L = mctx.mpf(0)
    coef = 1 / r
    for k in range(m):
        if k:
            coef *= -(k - mctx.mpf(1) / 2) / (r * r)
        K += coef * mctx.cos((2 * k + 1) * theta)
        L += coef * mctx.sin((2 * k + 1) * theta)
    root = mctx.sqrt(mctx.pi)
    return K / root, L / root


@pytest.mark.parametrize("digits, r, theta_over_pi, m", _partial_sum_cases())
def test_partial_sums_cross_checks(digits, r, theta_over_pi, m):
    ctx = PrecisionContext(digits=digits)
    mctx = ctx.mp()
    arg = VoigtArgument.from_polar(r, mctx.mpf(theta_over_pi) * mctx.pi, ctx)
    ev = algebraic_partial_sums(arg, m, ctx)

    K_trig, L_trig = _trig_partial_sums(arg, m, digits + 20)
    scale = abs(K_trig) + abs(L_trig) + mctx.mpf(10) ** (-2 * digits)
    tol = mctx.mpf(10) ** (5 - digits) * scale
    assert abs(ev.K - K_trig) <= tol
    assert abs(ev.L - L_trig) <= tol

    wide = algebraic_partial_sums(arg, m, PrecisionContext(digits=digits + 30))
    assert abs(ev.K - wide.K) <= ev.err_estimate
    assert abs(ev.L - wide.L) <= ev.err_estimate


def _bounded_sum_cases():
    # seeded (digits, r, theta/pi, m): r log-uniform on [1, 10^3] plus 1e10,
    # both ends of theta among the angles; m is the optimal cut, and for
    # r <= 30 also a random cut up to 3 r^2 + 5, past the least term
    rng = random.Random(20260607)
    cases = []
    for digits in (16, 40, 100):
        radii = ["%.6f" % math.exp(rng.uniform(0, math.log(1e3))) for _ in range(6)]
        for i, r in enumerate(radii + ["1e10"]):
            theta_over_pi = ("0", "0.5")[i] if i < 2 else "%.6f" % rng.uniform(0, 0.5)
            cases.append((digits, r, theta_over_pi, None))
            if float(r) <= 30:
                cases.append((digits, r, theta_over_pi,
                              rng.randint(0, int(3 * float(r) ** 2 + 5))))
    return cases


def _full_partial_sum(arg, m, digits):
    # every one of the m terms, summed at the given precision
    mctx = PrecisionContext(digits=digits).mp()
    w = mctx.mpc(arg.y, arg.x)
    term, total = 1 / w, mctx.mpc(0)
    for k in range(m):
        total += term
        term *= -(k + mctx.mpf(1) / 2) / (w * w)
    return total / mctx.sqrt(mctx.pi)


@pytest.mark.parametrize("digits, r, theta_over_pi, m", _bounded_sum_cases())
def test_bounded_partial_sum_matches_full_sum(digits, r, theta_over_pi, m):
    ctx = PrecisionContext(digits=digits)
    mctx = ctx.mp()
    arg = VoigtArgument.from_polar(r, mctx.mpf(theta_over_pi) * mctx.pi, ctx)
    if m is None:
        m = optimal_truncation(arg.r, ctx).m
    ev = algebraic_partial_sums(arg, m, ctx)

    wide = digits + 30
    if m <= 3000:
        want = _full_partial_sum(arg, m, wide)
    else:
        # too many terms to sum one by one: the full optimal sum is
        # K - iL less a remainder of order e^{-r^2}, far below 10^-wide here
        assert float(arg.r) ** 2 > 2 * wide * math.log(10)
        exact = voigt_exact_erfc(arg, PrecisionContext(digits=wide))
        want = PrecisionContext(digits=wide).mp().mpc(exact.K, -exact.L)
    assert abs(ev.K - want.real) <= ev.err_estimate
    assert abs(ev.L + want.imag) <= ev.err_estimate


def test_partial_sum_estimate_scales_with_the_values():
    # at x = 1e400, K ~ 1e-800 and L ~ 6e-401: an absolute floor in the
    # estimate would claim that no digit of K, or even of L, is right
    for digits in (16, 40):
        ctx = PrecisionContext(digits=digits)
        arg = VoigtArgument.from_xy("1e400", 2, ctx)
        sums = algebraic_partial_sums(arg, optimal_truncation(arg.r, ctx).m, ctx)
        ev = evaluate_via_expansion(arg, "eq42", 3, None, ctx)
        for e in (sums, ev):
            assert 0 < e.err_estimate <= ctx.eps() * (abs(e.K) + abs(e.L)), digits


def test_partial_sum_length_rule():
    from voigt_asym.numerics import _series_length

    mctx = PrecisionContext(digits=40).mp(extra=5)  # the partial sums' precision
    prec = mctx.prec

    def r2(r):
        rr = mctx.mpf(r)
        return mctx.fmul(rr, rr, exact=True)

    # past r^2 ~ prec ln 2 the optimal cut stops early, and the count no
    # longer grows with m = r^2
    assert _series_length(r2(300), 90000, prec) <= 100
    assert _series_length(r2("1e10"), 10**20, prec) <= 10
    # below it every term of the optimal cut is needed: r^2 = 64 is under
    # (prec + ceil(log2 64)) ln 2 = 121
    assert _series_length(r2(8), 64, prec) == 64
    # a cut past the least term sums every term, however small they get
    assert _series_length(r2(300), 270006, prec) == 270006
    # without a cut the series stops at the least term at the latest
    assert _series_length(r2(3), None, prec) == 9


def test_decomposition_is_m_invariant(ctx40):
    # partial sum + exact remainder reconstructs the function at any cut
    mctx = ctx40.mp()
    arg = VoigtArgument.from_polar(3, mctx.pi / 3, ctx40)
    full = voigt_exact_erfc(arg, ctx40)
    for m in (1, 5, 9, 14):
        sums = algebraic_partial_sums(arg, m, ctx40)
        rem = remainder_exact(arg, m, ctx40)
        assert abs(sums.K + rem.K - full.K) < mctx.mpf(10) ** (-30) * abs(full.K)
        assert abs(sums.L + rem.L - full.L) < mctx.mpf(10) ** (-30) * abs(full.L)


# --------------------------------------------------------------- terminant

def test_terminant_half_on_stokes_line(ctx40):
    mctx = ctx40.mp()
    for absz in (9, 16, 25):
        z = mctx.mpf(absz) * mctx.expj(mctx.pi)
        T = terminant_asymptotic(z, absz + 0.5, "uniform", 2, ctx40)
        assert abs(T - mctx.mpf(1) / 2) <= mctx.mpf("1.5") / mctx.sqrt(absz)


def _square(arg, ctx):
    # z = w^2, w = y + ix, squared exactly
    w = ctx.mp().mpc(arg.y, arg.x)
    return ctx.mp().fmul(w, w, exact=True)


def test_terminant_away_matches_gamma_oracle(ctx40):
    # |z| = 12.25, arg z = pi/5 corresponds to the |w| = 3.5, theta = pi/10
    # geometry where the exact terminant follows from the remainder oracle
    mctx = ctx40.mp()
    arg = VoigtArgument.from_polar("3.5", mctx.pi / 10, ctx40)
    z = _square(arg, ctx40)
    rem = remainder_exact(arg, 12, ctx40, route="gamma")
    T_exact = mctx.mpc(rem.K, -rem.L) * mctx.exp(-z) / 2
    for k_terms in (1, 3, 5):
        T_est = terminant_asymptotic(z, mctx.mpf("12.5"), "away", k_terms, ctx40)
        # first omitted term of the A-series sets the accuracy
        phi = mctx.pi - mctx.arg(z)
        omitted = abs(
            coefficient_set(phi, mctx.mpf("0.25"), k_terms, ctx40).A[k_terms]
        ) / abs(z) ** k_terms
        pref = abs(mctx.exp(-z - abs(z))) / mctx.sqrt(2 * mctx.pi * abs(z))
        bound = 2 * pref * omitted / abs(1 - mctx.expj(phi))
        assert abs(T_est - T_exact) <= bound


def test_terminant_uniform_reduces_to_away_far_from_stokes(ctx40):
    # with phi bounded away from zero the smoothed form collapses onto the
    # plain one once |z| is large enough for the erfc tail to be negligible
    mctx = ctx40.mp()
    phi = mctx.mpf("0.3")
    z = 3600 * mctx.expj(mctx.pi - phi)
    nu = mctx.mpf(3600) + mctx.mpf(1) / 2
    away = terminant_asymptotic(z, nu, "away", 3, ctx40)
    unif = terminant_asymptotic(z, nu, "uniform", 3, ctx40)
    assert abs(away - unif) < mctx.mpf(10) ** (-6) * abs(away)


def test_terminant_validation(ctx40):
    mctx = ctx40.mp()
    z = 9 * mctx.expj(mctx.pi)
    with pytest.raises(DomainError):
        terminant_asymptotic(z, 9.5, "away", 2, ctx40)  # pole on Stokes line
    with pytest.raises(DomainError):
        terminant_asymptotic(z, 30, "uniform", 2, ctx40)  # nu too far from |z|
    with pytest.raises(DomainError):
        terminant_asymptotic(0, 0.5, "uniform", 2, ctx40)
    for region in ("smooth", "eq41", "eq42"):
        with pytest.raises(DomainError, match="region"):
            terminant_asymptotic(z, 9.5, region, 2, ctx40)
    with pytest.raises(UnsupportedOrderError):
        terminant_asymptotic(z, 9.5, "uniform", K_MAX + 1, ctx40)
    # on the line and just off it all five orders are there: |z| = r^2 = 9
    # and nu = 9.5 put the exact terminant at the m = 9 remainder of the
    # point with phi = pi - 2 theta
    for phi in (mctx.mpf(0), mctx.mpf("0.01")):
        arg = VoigtArgument.from_polar(3, (mctx.pi - phi) / 2, ctx40)
        assert (arg.phi == 0) == (phi == 0)
        near = _square(arg, ctx40)
        rem = remainder_exact(arg, 9, ctx40, route="gamma")
        T_exact = mctx.mpc(rem.K, -rem.L) * mctx.exp(-near) / 2
        pref = abs(mctx.exp(-near - 9)) / mctx.sqrt(18 * mctx.pi)
        for k_terms in (4, 5):
            T_est = terminant_asymptotic(near, 9.5, "uniform", k_terms, ctx40)
            omitted = abs(coefficient_set(arg.phi, mctx.mpf("0.5"), k_terms, ctx40).B[k_terms])
            # the same bound theorem2 reports: three first omitted terms
            assert abs(T_est - T_exact) <= 3 * pref * omitted / mctx.mpf(9) ** k_terms, phi


def test_terminant_away_is_refused_in_theorem1_collar(ctx40):
    # arg z within 0.04 pi of pi puts theta = arg z / 2 inside theorem1's
    # collar; the away series there gave 1163.8 + 49.5i against an exact
    # 0.401 - 0.012i at pi - 0.05, and 3.8e26 at pi - 1e-6
    mctx = ctx40.mp()
    for phi in ("0.05", "1e-6"):
        z = 25 * mctx.expj(mctx.pi - mctx.mpf(phi))
        with pytest.raises(DomainError):
            terminant_asymptotic(z, 25.5, "away", 3, ctx40)


def test_terminant_away_warns_where_theorem1_does(ctx40):
    # arg z = pi - 0.2 is past the warning band's edge, 0.8 pi, and outside
    # the collar: the value the away series always gave, now with the warning
    mctx = ctx40.mp()
    z = 25 * mctx.expj(mctx.pi - mctx.mpf("0.2"))
    with pytest.warns(StokesCollarWarning):
        T = terminant_asymptotic(z, 25.5, "away", 3, ctx40)
    want = mctx.mpc(
        "0.716639474357379658990099141619341903757580476",
        "0.120650462821018960285775714316612587770046517",
    )
    assert abs(T - want) <= ctx40.eps() * abs(want)


def _admission(call):
    # the refusal type, or None, and the warning categories of one call
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            call()
        except DomainError as exc:
            return type(exc), ()
    return None, tuple(sorted({w.category.__name__ for w in caught}))


def test_terminant_admits_as_its_theorem_does(ctx40):
    # on a seeded grid, with the edges of the warning band (arg z = 0.8 pi)
    # and of the collar (0.96 pi) and both ends of [0, pi], each region
    # refuses and warns exactly where its theorem does at the same point
    rng = random.Random(20261019)
    mctx = ctx40.mp()
    fracs = [0, 1, 0.8 - 1e-6, 0.8 + 1e-6, 0.96 - 1e-6, 0.96 + 1e-6]
    fracs += [rng.uniform(0, 1) for _ in range(10)]
    orders = (1, 3, 5, 0, K_MAX + 1)
    seen = set()
    for i, frac in enumerate(fracs):
        arg = VoigtArgument.from_polar(rng.uniform(2, 12), mctx.mpf(frac) * mctx.pi / 2, ctx40)
        plan = optimal_truncation(arg.r, ctx40)
        z = _square(arg, ctx40)
        for j, (region, theorem) in enumerate((("away", theorem1), ("uniform", theorem2))):
            k_terms = orders[(2 * i + j) % len(orders)]
            want = _admission(lambda: theorem(arg, plan, k_terms, ctx40))
            got = _admission(lambda: terminant_asymptotic(z, plan.nu, region, k_terms, ctx40))
            assert got == want, (frac, region, k_terms)
            seen.add(want)
    assert seen == {
        (None, ()), (None, ("StokesCollarWarning",)), (DomainError, ()),
        (UnsupportedOrderError, ()),
    }


def _identity_cases():
    # seeded (r, theta/pi) per precision: theta at both ends, near the
    # Stokes line and in between; eq41 stops below its collar
    rng = random.Random(20260609)
    cases = []
    for digits in (16, 40, 100):
        thetas = ["0", "0.5", "%.6f" % ((1 - rng.uniform(0, 0.15) / math.pi) / 2)]
        thetas += ["%.6f" % rng.uniform(0, 0.48) for _ in range(2)]
        for t in thetas:
            cases.append((digits, "%.6f" % rng.uniform(2, 12), t))
    return cases


@pytest.mark.parametrize("digits, r, theta_over_pi", _identity_cases())
def test_theorems_are_twice_e_z_times_the_terminant(digits, r, theta_over_pi):
    # the remainder after m terms is 2 e^z T_nu(z) with nu = m + 1/2, so each
    # theorem is that multiple of the terminant estimate of its own kind
    ctx = PrecisionContext(digits=digits)
    mctx = ctx.mp()
    ref = PrecisionContext(digits=digits + 10)
    arg = VoigtArgument.from_polar(r, mctx.mpf(theta_over_pi) * mctx.pi, ctx)
    plan = optimal_truncation(arg.r, ctx)
    z = _square(arg, ref)
    kinds = [(theorem2, "uniform")]
    if float(theta_over_pi) < 0.48:
        kinds.append((theorem1, "away"))
    for theorem, region in kinds:
        for k_terms in range(1, K_MAX + 1):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", StokesCollarWarning)
                est = theorem(arg, plan, k_terms, ctx)
            got = ref.mp().mpc(est.Khat, -est.Lhat)
            T = terminant_asymptotic(z, plan.nu, region, k_terms, ctx)
            want = 2 * ref.mp().exp(z) * T
            assert abs(got - want) <= ctx.eps() * abs(want), (region, k_terms)


# ------------------------------------------------------------- theorem 1

def _check_against_reference(got, want_str, sig):
    tol = tolerance_last_digit(want_str, sig) * 1.0000001
    assert abs(float(got) - float(want_str)) <= tol, (got, want_str)


def test_theorem1_reproduces_reference_column(ctx40):
    mctx = ctx40.mp()
    arg = VoigtArgument.from_polar("3.5", mctx.pi / 10, ctx40)
    plan = optimal_truncation("3.5", ctx40)
    assert plan.m == TABLE1_M
    for k_terms, row in TABLE1_ROWS.items():
        est = theorem1(arg, plan, k_terms, ctx40)
        _check_against_reference(est.Khat, row[0], TABLE1_SIG)
        _check_against_reference(est.Lhat, row[1], TABLE1_SIG)


def test_theorem1_refuses_stokes_collar(ctx40):
    mctx = ctx40.mp()
    plan = optimal_truncation(6, ctx40)
    arg = VoigtArgument.from_polar(6, mctx.pi * mctx.mpf("0.49"), ctx40)
    with pytest.raises(DomainError):
        theorem1(arg, plan, 3, ctx40)


def test_theorem1_warns_approaching_collar(ctx40):
    mctx = ctx40.mp()
    plan = optimal_truncation(6, ctx40)
    arg = VoigtArgument.from_polar(6, mctx.pi * mctx.mpf("0.45"), ctx40)
    with pytest.warns(StokesCollarWarning):
        theorem1(arg, plan, 3, ctx40)


def test_theorem1_error_law_at_optimal_truncation(ctx40):
    # retaining all five A terms leaves an error below 0.05 e^{-r^2}/r^7
    # (measured ratios 0.0043, 0.0015, 0.0006 at r = 3, 4, 5)
    mctx = ctx40.mp()
    for r in (3, 4, 5):
        arg = VoigtArgument.from_polar(r, mctx.pi / 6, ctx40)
        plan = optimal_truncation(r, ctx40)
        est = theorem1(arg, plan, 5, ctx40)
        ex = remainder_exact(arg, plan.m, ctx40)
        err = abs(mctx.mpc(est.Khat - ex.K, -(est.Lhat - ex.L)))
        assert err <= mctx.mpf("0.05") * mctx.exp(-r * r) / mctx.mpf(r) ** 7


def _honesty_grid(variant, n):
    # seeded (r, theta/pi) draws, r in [2, 10]: theta/pi below 0.45 for eq41;
    # for eq42 every third draw within phi < 0.15 of the Stokes line and the
    # rest anywhere in [0, 1/2]
    rng = random.Random("err-estimate/" + variant)
    draws = []
    for i in range(n):
        r = "%.4f" % rng.uniform(2, 10)
        if variant == "eq41":
            t = rng.uniform(0, 0.45)
        elif i % 3 == 0:
            t = (1 - rng.uniform(0, 0.15) / math.pi) / 2
        else:
            t = rng.uniform(0, 0.5)
        draws.append((r, "%.6f" % t))
    return draws


@functools.lru_cache(maxsize=None)
def _exact_remainder(r, theta_over_pi):
    ctx = PrecisionContext(digits=40)
    mctx = ctx.mp()
    arg = VoigtArgument.from_polar(r, mctx.mpf(theta_over_pi) * mctx.pi, ctx)
    plan = optimal_truncation(arg.r, ctx)
    return arg, plan, remainder_exact(arg, plan.m, ctx, route="gamma")


def _outside_err_estimate(estimate, r, theta_over_pi, k_terms, ctx):
    arg, plan, ex = _exact_remainder(r, theta_over_pi)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StokesCollarWarning)
        est = estimate(arg, plan, k_terms, ctx)
    mctx = ctx.mp()
    miss = abs(mctx.mpc(est.Khat - ex.K, est.Lhat - ex.L))
    return miss > est.err_estimate, miss / est.err_estimate


def test_theorem1_error_estimate_is_honest(ctx40):
    # eq41 bounds the exact remainder at every k_terms = 1..5 on the grid
    for r, t in _honesty_grid("eq41", 40):
        for k_terms in range(1, 6):
            outside, ratio = _outside_err_estimate(theorem1, r, t, k_terms, ctx40)
            assert not outside, (r, t, k_terms, ratio)


def test_theorem1_error_estimate_uses_the_real_omitted_term(ctx40):
    # at k_terms = 5 the omitted term is A_10 itself, not a guess from the
    # last kept term; the guess understated the error at both points
    for r, t in (("2.588", "0.3644"), ("7.718", "0.43")):
        outside, ratio = _outside_err_estimate(theorem1, r, t, 5, ctx40)
        assert not outside, (r, t, ratio)


# eq42 cases where three first omitted terms still fall short of the
# error; they lie at r < 3 within phi < 0.15 of the Stokes line
_EQ42_UNDERSTATED = {("2.9291", "0.496025", 3)}


def _eq42_cases():
    cases = []
    for r, t in _honesty_grid("eq42", 45):
        for k_terms in range(1, 6):
            marks = ()
            if (r, t, k_terms) in _EQ42_UNDERSTATED:
                marks = pytest.mark.xfail(
                    strict=True,
                    reason="eq42 at r < 3 near the Stokes line: the first omitted "
                    "term understates the error",
                )
            cases.append(pytest.param(r, t, k_terms, marks=marks))
    return cases


@pytest.mark.parametrize("r, theta_over_pi, k_terms", _eq42_cases())
def test_theorem2_error_estimate_is_honest(r, theta_over_pi, k_terms, ctx40):
    outside, ratio = _outside_err_estimate(theorem2, r, theta_over_pi, k_terms, ctx40)
    assert not outside, ratio


# ------------------------------------------------------------- theorem 2

def test_theorem2_reproduces_reference_column(ctx40):
    mctx = ctx40.mp()
    arg = VoigtArgument.from_polar("3.5", 3 * mctx.pi / 8, ctx40)
    plan = optimal_truncation("3.5", ctx40)
    for k_terms, row in TABLE1_ROWS.items():
        est = theorem2(arg, plan, k_terms, ctx40)
        _check_against_reference(est.Khat, row[2], TABLE1_SIG)
        _check_against_reference(est.Lhat, row[3], TABLE1_SIG)


def test_reference_foot_row_is_exact_remainder(ctx40):
    mctx = ctx40.mp()
    plan = optimal_truncation("3.5", ctx40)
    for theta, cols in ((mctx.pi / 10, (0, 1)), (3 * mctx.pi / 8, (2, 3))):
        arg = VoigtArgument.from_polar("3.5", theta, ctx40)
        ex = remainder_exact(arg, plan.m, ctx40)
        _check_against_reference(ex.K, TABLE1_FOOT[cols[0]], TABLE1_SIG)
        _check_against_reference(ex.L, TABLE1_FOOT[cols[1]], TABLE1_SIG)


def test_theorem2_goes_over_into_theorem1(ctx40):
    # away from the Stokes collar the two compound expansions agree to the
    # documented 1e-3 relative level at r = 6
    mctx = ctx40.mp()
    plan = optimal_truncation(6, ctx40)
    for frac in ("0.05", "0.1", "0.2", "0.3"):
        arg = VoigtArgument.from_polar(6, mctx.pi * mctx.mpf(frac), ctx40)
        t1 = theorem1(arg, plan, 3, ctx40)
        t2 = theorem2(arg, plan, 3, ctx40)
        d1 = mctx.mpc(t1.Khat, -t1.Lhat)
        d2 = mctx.mpc(t2.Khat, -t2.Lhat)
        assert abs(d1 - d2) < mctx.mpf(10) ** (-3) * abs(d1)


@pytest.mark.parametrize("digits", (40, 100))
def test_theorem2_minus_theorem1_is_the_smoothing_tail(digits):
    # eq41 is eq42 with E(phi) replaced by its first k_terms asymptotic
    # terms, an exact identity of the two series ((-1)!! = 1):
    # theorem2 - theorem1 = e^{-r^2}/sqrt(2 pi) e^{i (nu - alpha) phi}
    #   (E(phi) - sum_{k < k_terms} 2 (-1)^k (2k-1)!! / (c(phi) r)^{2k+1})
    rng = random.Random(1978 + digits)
    ctx, ref = PrecisionContext(digits), PrecisionContext(digits + 20)
    mctx = ref.mp()
    for _ in range(30):
        r = rng.uniform(2, 10)
        arg = VoigtArgument.from_polar(r, math.pi * rng.uniform(0.30, 0.48), ctx)
        plan = optimal_truncation(arg.r, ctx)
        k_terms = rng.randint(1, K_MAX)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StokesCollarWarning)
            t1 = theorem1(arg, plan, k_terms, ctx)
        t2 = theorem2(arg, plan, k_terms, ctx)
        phi, rr = mctx.convert(arg.phi), mctx.convert(arg.r)
        cr = c_closed_form(phi, ref) * rr
        tail = sum(
            2 * (-1) ** k * math.prod(range(1, 2 * k, 2)) / cr ** (2 * k + 1)
            for k in range(k_terms)
        )
        pref = mctx.exp(-rr * rr) / mctx.sqrt(2 * mctx.pi)
        rot = mctx.expj(mctx.convert(plan.nu - plan.alpha) * phi)
        E = _E_of_c(mctx, coefficient_set(phi, 0, 0, ref).c, rr)
        want = pref * rot * (E - tail)
        got = mctx.mpc(t2.Khat - t1.Khat, t1.Lhat - t2.Lhat)
        assert abs(got - want) <= mctx.mpf(10) ** (2 - digits) * pref, (r, arg.theta, k_terms)


def test_theorem2_on_stokes_line_recovers_real_axis_value(ctx40):
    # at theta = pi/2 the exact remainder K-part is e^{-r^2} itself and the
    # smoothed expansion reproduces it structurally
    mctx = ctx40.mp()
    r = mctx.mpf("3.5")
    arg = VoigtArgument.from_polar(r, mctx.pi / 2, ctx40)
    plan = optimal_truncation(r, ctx40)
    est = theorem2(arg, plan, 3, ctx40)
    assert abs(est.Khat - mctx.exp(-r * r)) < mctx.mpf(10) ** (-40)
    ex = remainder_exact(arg, plan.m, ctx40)
    assert abs(est.Lhat - ex.L) < mctx.mpf(10) ** (-4) * abs(ex.L)


def test_leading_near_recovers_real_axis_exactly(ctx40):
    # the leading term of theorem2 on the Stokes line: the head is
    # E(0) = sqrt(2 pi) and the correction term dies, leaving exactly e^{-r^2}
    mctx = ctx40.mp()
    r = mctx.mpf("3.5")
    arg = VoigtArgument.from_polar(r, mctx.pi / 2, ctx40)
    plan = optimal_truncation(r, ctx40)
    lead = theorem2(arg, plan, 1, ctx40)
    assert abs(lead.Khat - mctx.exp(-r * r)) < mctx.mpf(10) ** (-40)


def test_theorem2_k_terms_cap_near_stokes(ctx40):
    # on the line and just off it all K_MAX orders are there and the answer
    # stays within its err_estimate; past K_MAX is refused on the line too
    mctx = ctx40.mp()
    plan = optimal_truncation(6, ctx40)
    on_line = VoigtArgument.from_polar(6, mctx.pi / 2, ctx40)
    assert on_line.phi == 0
    with pytest.raises(UnsupportedOrderError):
        theorem2(on_line, plan, K_MAX + 1, ctx40)
    near = VoigtArgument.from_polar(6, (mctx.pi - mctx.mpf("0.01")) / 2, ctx40)
    for arg in (on_line, near):
        ex = remainder_exact(arg, plan.m, ctx40, route="gamma")
        for k_terms in (4, 5):
            est = theorem2(arg, plan, k_terms, ctx40)
            assert abs(mctx.mpc(est.Khat - ex.K, est.Lhat - ex.L)) <= est.err_estimate
    far = VoigtArgument.from_polar(6, mctx.pi / 4, ctx40)
    theorem2(far, plan, 5, ctx40)  # five terms fine away from the line


@pytest.mark.parametrize("digits", (40, 100))
def test_theorem2_estimate_bounds_the_error_on_the_line(digits):
    # on the Stokes line every order reads its own first omitted B^_2k; the
    # estimate bounds the exact remainder error with room to spare (the
    # largest error/estimate seen is 0.37)
    ctx = PrecisionContext(digits=digits)
    mctx = ctx.mp()
    for half_r in range(4, 29):
        r = mctx.mpf(half_r) / 2
        arg = VoigtArgument.from_polar(r, mctx.pi / 2, ctx)
        assert arg.phi == 0
        plan = optimal_truncation(r, ctx)
        ex = remainder_exact(arg, plan.m, ctx, route="gamma")
        for k_terms in range(1, K_MAX + 1):
            est = theorem2(arg, plan, k_terms, ctx)
            err = abs(mctx.mpc(est.Khat - ex.K, est.Lhat - ex.L))
            assert err <= est.err_estimate, (float(r), k_terms)


# ------------------------------------------------------- leading remainders

def test_theorem1_leading_term_on_imaginary_axis(ctx40):
    # on x = 0 the first A-term is (-1)^m e^{-r^2}/(sqrt(2 pi) r), real; the
    # kernel leaves L-hat at rounding level, not exactly 0
    mctx = ctx40.mp()
    arg = VoigtArgument.from_xy(0, 4, ctx40)
    plan = optimal_truncation(4, ctx40)
    est = theorem1(arg, plan, 1, ctx40)
    sgn = -1 if plan.m % 2 else 1
    want = sgn * mctx.exp(-16) / (mctx.sqrt(2 * mctx.pi) * 4)
    assert abs(est.Khat - want) < mctx.mpf(10) ** (-38) * abs(want)
    assert abs(est.Lhat) <= mctx.mpf(10) ** (-40) * abs(est.Khat)


@pytest.mark.parametrize(
    "estimate, r, theta_over_pi, tol",
    ((theorem1, "3.5", "0.1", "0.05"), (theorem2, "6", "0.48", "0.01")),
)
def test_leading_term_tracks_exact_remainder(estimate, r, theta_over_pi, tol, ctx40):
    # one term of eq41 away from the Stokes line, and of eq42 close to it,
    # already gives each component of the exact remainder to a few percent
    mctx = ctx40.mp()
    arg = VoigtArgument.from_polar(r, mctx.pi * mctx.mpf(theta_over_pi), ctx40)
    plan = optimal_truncation(r, ctx40)
    est = estimate(arg, plan, 1, ctx40)
    ex = remainder_exact(arg, plan.m, ctx40)
    assert abs(est.Khat - ex.K) < mctx.mpf(tol) * abs(ex.K)
    assert abs(est.Lhat - ex.L) < mctx.mpf(tol) * abs(ex.L)


# ------------------------------------------------------------- full evaluator

# the remainder estimate each variant of evaluate_via_expansion names,
# through its public function
ESTIMATES = {
    "eq41": theorem1,
    "eq42": theorem2,
}


def test_variant_dispatch(ctx40):
    # evaluate_via_expansion adds the estimate its variant names to the
    # partial sums, and refuses a variant it does not know
    mctx = ctx40.mp()
    arg = VoigtArgument.from_polar(4, mctx.pi / 5, ctx40)
    plan = optimal_truncation(4, ctx40)
    sums = algebraic_partial_sums(arg, plan.m, ctx40)
    for variant in ("eq41", "eq42"):
        est = ESTIMATES[variant](arg, plan, 2, ctx40)
        assert est.method == variant
        ev = evaluate_via_expansion(arg, variant, 2, plan.m, ctx40)
        assert ev.method == variant
        assert (ev.K, ev.L) == (mctx.mpf(sums.K + est.Khat), mctx.mpf(sums.L + est.Lhat))
    for unknown in ("eq43", "leading-away"):
        with pytest.raises(DomainError, match="unknown expansion variant"):
            evaluate_via_expansion(arg, unknown, 1, None, ctx40)


def _estimate_fields(est):
    return est.Khat, est.Lhat, est.err_estimate


@pytest.mark.parametrize("digits", [40, 100])
def test_estimates_sharing_a_pass_equal_fresh_ones(digits, coefficient_pass):
    # theorem1 and theorem2 at one point share one memoized coefficient
    # pass; the second of the two, in either order, equals itself run on an
    # emptied memo, to the last bit. phi falls on both sides of PHI_SWITCH,
    # above theorem1's collar at 0.04 pi
    ctx = PrecisionContext(digits=digits)
    mctx = ctx.mp()
    rng = random.Random("shared-pass/%d" % digits)

    def fresh(theorem, arg, plan, k):
        coefficient_pass.cache_clear()
        return _estimate_fields(theorem(arg, plan, k, ctx))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StokesCollarWarning)
        for lo, hi in ((0.13, PHI_SWITCH), (PHI_SWITCH, 3.0)) * 4:
            r, phi, k = rng.uniform(3, 8), rng.uniform(lo, hi), rng.randint(1, K_MAX)
            arg = VoigtArgument.from_polar(r, (mctx.pi - phi) / 2, ctx)
            plan = optimal_truncation(r, ctx)
            for first, second in ((theorem2, theorem1), (theorem1, theorem2)):
                want = fresh(second, arg, plan, k)
                coefficient_pass.cache_clear()
                first(arg, plan, k, ctx)
                assert _estimate_fields(second(arg, plan, k, ctx)) == want, (r, phi, k)
                assert coefficient_pass.cache_info().hits == 1
    # on the Stokes line the derived limits answer, outside the memo
    arg = VoigtArgument.from_xy(6, 0, ctx)
    plan = optimal_truncation(6, ctx)
    want = fresh(theorem2, arg, plan, K_MAX)
    assert _estimate_fields(theorem2(arg, plan, K_MAX, ctx)) == want
    assert coefficient_pass.cache_info().currsize == 0


def _mixed_order_points(ctx):
    # one point on each side of PHI_SWITCH outside theorem1's warning band,
    # and one on the Stokes line, where theorem2 alone runs
    mctx = ctx.mp()
    points = [VoigtArgument.from_polar(r, mctx.mpf(t) * mctx.pi, ctx)
              for r, t in (("4.3", "0.3"), ("5.1", "0.1"))]
    return points + [VoigtArgument.from_xy(6, 0, ctx)]


@pytest.mark.parametrize("digits", [16, 40, 100])
def test_one_pass_serves_every_order_at_a_point(digits, coefficient_pass):
    # theorem1 and theorem2 at mixed k_terms, the first request at the top
    # order or below it, run one pass at a point off the Stokes line, and
    # every estimate equals itself run on an emptied memo, to the last bit
    ctx = PrecisionContext(digits=digits)
    for arg in _mixed_order_points(ctx):
        plan = optimal_truncation(arg.r, ctx)
        theorems = (theorem1, theorem2) if arg.phi else (theorem2,)
        fresh = {}
        for k in (2, 3, 5):
            for theorem in theorems:
                coefficient_pass.cache_clear()
                fresh[theorem, k] = _estimate_fields(theorem(arg, plan, k, ctx))
        for orders in ((5, 2, 3), (2, 5, 3)):
            coefficient_pass.cache_clear()
            for k in orders:
                for theorem in theorems:
                    got = _estimate_fields(theorem(arg, plan, k, ctx))
                    assert got == fresh[theorem, k], (digits, arg.phi, orders, k)
            assert coefficient_pass.cache_info().misses == (1 if arg.phi else 0)


def test_threads_sharing_passes_get_single_threaded_results(coefficient_pass, ctx40):
    # 4 threads run theorem1 and theorem2 at every k_terms over shared points,
    # each in its own order, through one memo whose passes they extend; a
    # short switch interval makes them interleave inside the passes
    points = _mixed_order_points(ctx40)[:2]
    jobs = [(i, theorem, k) for i in range(len(points)) for theorem in (theorem1, theorem2)
            for k in range(1, K_MAX + 1)]

    def estimate(job):
        i, theorem, k = job
        arg = points[i]
        return _estimate_fields(theorem(arg, optimal_truncation(arg.r, ctx40), k, ctx40))

    want = {job: estimate(job) for job in jobs}
    got, start = {}, threading.Barrier(4)

    def worker(seed):
        order = jobs[:]
        random.Random(seed).shuffle(order)
        start.wait()
        for job in order:
            got[seed, job] = estimate(job)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            coefficient_pass.cache_clear()
            got.clear()
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert got == {(seed, job): want[job] for seed in range(4) for job in jobs}
    finally:
        sys.setswitchinterval(interval)


def _two_phase_estimate(arg, plan, k_terms, uniform, ref):
    # the estimates' sum as the paper writes it, every term under its own
    # phase: e^{i (nu - alpha) phi} E(phi) (eq42 only) plus
    # sum_k e^{i (nu - 1/2) phi} C_2k / r^{2k+1}, C = B^ (eq42) or
    # A / sin(phi/2) (eq41); returns (sum times e^{-r^2}/sqrt(2 pi), err_estimate)
    mctx = ref.mp()
    phi, r, nu, alpha = (mctx.convert(v) for v in (arg.phi, arg.r, plan.nu, plan.alpha))
    coeffs = coefficient_set(phi, alpha, k_terms, ref)
    C = coeffs.Bhat if uniform else coeffs.A
    total = mctx.expj((nu - alpha) * phi) * _E_of_c(mctx, coeffs.c, r) if uniform else mctx.mpc(0)
    rot = mctx.expj((nu - 0.5) * phi)
    rpow = 1 / r if uniform else 1 / (r * mctx.sin(phi / 2))
    for k in range(k_terms):
        total += rot * C[k] * rpow
        rpow /= r * r
    pref = mctx.exp(-r * r) / mctx.sqrt(2 * mctx.pi)
    return total * pref, EST_SAFETY * pref * abs(C[k_terms]) * rpow


@pytest.mark.parametrize("digits", [16, 40, 100])
def test_one_phase_sum_changes_only_rounding(digits):
    # the estimates sum eq42 under the one phase e^{i (nu - alpha) phi},
    # in B_2k and an E(phi) built from the pass's own c(phi); against the
    # two-phase form at 20 more digits they differ by rounding alone. phi
    # is 0, in (0, 1e-3), in [1e-3, 2) and in [2, pi]; eq41 runs outside
    # its collar
    ctx, ref = PrecisionContext(digits), PrecisionContext(digits + 20)
    mctx = ref.mp()
    tol = mctx.mpf(10) ** (2 - digits)
    rng = random.Random("one-phase/%d" % digits)
    phis = [0.0, math.pi] + [10 ** rng.uniform(-30, -3) for _ in range(3)]
    phis += [rng.uniform(1e-3, 2) for _ in range(4)] + [rng.uniform(2, math.pi) for _ in range(3)]
    for phi in phis:
        r = rng.uniform(2, 10)
        x = 0 if phi == math.pi else r * math.cos(phi / 2)
        arg = VoigtArgument.from_xy(x, r * math.sin(phi / 2), ctx)
        plan = optimal_truncation(arg.r, ctx)
        got_c, want_c = coefficient_set(arg.phi, plan.alpha, 1, ctx).c, c_closed_form(arg.phi, ref)
        assert abs(got_c - want_c) <= tol / 10 * abs(want_c), phi
        away = arg.phi > 2 * mctx.pi * THETA_COLLAR_OVER_PI + 1e-9
        for k_terms in range(1, K_MAX + 1):
            for theorem, uniform in ((theorem2, True), (theorem1, False))[: 2 if away else 1]:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", StokesCollarWarning)
                    est = theorem(arg, plan, k_terms, ctx)
                want, want_err = _two_phase_estimate(arg, plan, k_terms, uniform, ref)
                bound = tol * (abs(want.real) + abs(want.imag))
                where = (phi, r, k_terms, est.method)
                assert abs(est.Khat - want.real) <= bound, where
                assert abs(est.Lhat + want.imag) <= bound, where
                assert abs(est.err_estimate - want_err) <= tol * want_err, where


def test_one_pass_serves_both_estimates_of_a_table2_cell(coefficient_pass, ctx40):
    # a table2 cell is the exact remainder, theorem1 and theorem2 at one
    # point; the two estimates run one coefficient pass between them, one
    # miss of the memo
    mctx = ctx40.mp()
    plan = TruncationPlan.for_m(TABLE2_M, TABLE2_R, ctx40)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StokesCollarWarning)
        for key in TABLE2_ANGLES:
            arg = VoigtArgument.from_polar(TABLE2_R, mctx.mpf(key) * mctx.pi, ctx40)
            before = coefficient_pass.cache_info().misses
            remainder_exact(arg, TABLE2_M, ctx40)
            theorem1(arg, plan, TABLE2_K_TERMS, ctx40)
            theorem2(arg, plan, TABLE2_K_TERMS, ctx40)
            assert coefficient_pass.cache_info().misses - before == 1, key


def test_each_estimate_builds_only_the_coefficients_it_reads(monkeypatch, coefficient_pass, ctx40):
    # theorem1 (eq41) reads the A_2k alone and forms no c(phi), so no B_2k
    # either (their pole terms are powers of 1/c), directly or inside
    # evaluate_via_expansion; theorem2 (eq42) forms c(phi) and B_2k once
    # per pass and builds no coefficient set, the only holder of B^_2k; and
    # theorem2 after theorem1 at one point sweeps the h_j once. phi falls on
    # both sides of PHI_SWITCH
    calls = collections.Counter()

    def counted(name):
        real = getattr(coefficients, name)

        def spy(*args):
            calls[name] += 1
            return real(*args)

        return spy

    for name in ("_h_sweep", "_c_raw", "CoefficientSet"):
        monkeypatch.setattr(coefficients, name, counted(name))
    mctx = ctx40.mp()
    for theta_over_pi in ("0.2", "0.1"):
        arg = VoigtArgument.from_polar(4, mctx.mpf(theta_over_pi) * mctx.pi, ctx40)
        plan = optimal_truncation(4, ctx40)
        coefficient_pass.cache_clear()
        calls.clear()
        theorem1(arg, plan, 3, ctx40)
        assert calls == {"_h_sweep": 1}, theta_over_pi
        theorem2(arg, plan, 3, ctx40)
        theorem2(arg, plan, 3, ctx40)
        theorem1(arg, plan, 3, ctx40)
        assert calls == {"_h_sweep": 1, "_c_raw": 1}, theta_over_pi
        coefficient_pass.cache_clear()
        calls.clear()
        evaluate_via_expansion(arg, "eq41", 3, None, ctx40)
        assert calls == {"_h_sweep": 1}, theta_over_pi


def test_evaluate_via_expansion_tracks_oracle(ctx40):
    mctx = ctx40.mp()
    for variant, frac in (("eq41", "0.2"), ("eq42", "0.45")):
        arg = VoigtArgument.from_polar(5, mctx.pi * mctx.mpf(frac), ctx40)
        ev = evaluate_via_expansion(arg, variant, 3, None, ctx40)
        ex = voigt_exact_erfc(arg, ctx40)
        assert abs(ev.K - ex.K) <= ev.err_estimate
        assert abs(ev.L - ex.L) <= ev.err_estimate
        # and the estimate is tight enough to be useful
        assert ev.err_estimate < mctx.mpf(10) ** (-8)


def test_evaluate_via_expansion_far_grid_within_estimate():
    # seeded r log-uniform on [3, 10^3], where the optimal cut reaches 10^6
    # terms and the partial sum stops early, both ends of theta included;
    # r < 3 near the Stokes line is the known eq42 gap of the honesty grid
    rng = random.Random(20260608)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StokesCollarWarning)
        for digits in (16, 40, 100):
            ctx = PrecisionContext(digits=digits)
            mctx = ctx.mp()
            for i in range(8):
                r = "%.6f" % math.exp(rng.uniform(math.log(3), math.log(1e3)))
                theta_over_pi = ("0", "0.5")[i] if i < 2 else "%.6f" % rng.uniform(0, 0.5)
                arg = VoigtArgument.from_polar(r, mctx.mpf(theta_over_pi) * mctx.pi, ctx)
                exact = voigt_exact_erfc(arg, PrecisionContext(digits=digits + 10))
                variants = ("eq42", "eq41") if float(theta_over_pi) < 0.45 else ("eq42",)
                for variant in variants:
                    for k_terms in (1, 3):
                        ev = evaluate_via_expansion(arg, variant, k_terms, None, ctx)
                        case = (digits, r, theta_over_pi, variant, k_terms)
                        assert abs(ev.K - exact.K) <= ev.err_estimate, case
                        assert abs(ev.L - exact.L) <= ev.err_estimate, case


def test_evaluate_via_expansion_m_override(ctx40):
    mctx = ctx40.mp()
    arg = VoigtArgument.from_polar(4, mctx.pi / 4, ctx40)
    ev_opt = evaluate_via_expansion(arg, "eq41", 3, None, ctx40)
    ev_off = evaluate_via_expansion(arg, "eq41", 3, 14, ctx40)
    ex = voigt_exact_erfc(arg, ctx40)
    # off-optimum cuts still reconstruct the function, just less accurately
    assert abs(ev_off.K - ex.K) < mctx.mpf(10) ** (-8)
    assert abs(ev_opt.K - ex.K) <= abs(ev_off.K - ex.K) * 100


# ---------------------------------------- remainder at the digits it adds

def test_optimal_cut_remainder_bound():
    # the bound the optimal-cut rule of evaluate_via_expansion rests on:
    # |hat-K - i hat-L| <= 2 e^{-r^2} for r >= 1, largest on the Stokes line
    ctx = PrecisionContext(digits=30)
    mctx = ctx.mp()
    worst = 0
    for r in ("1", "1.2", "1.5", "2", "3", "5", "8", "11", "14"):
        plan = optimal_truncation(r, ctx)
        for theta_over_pi in ("0", "0.1", "0.25", "0.4", "0.48", "0.5"):
            arg = VoigtArgument.from_polar(r, mctx.mpf(theta_over_pi) * mctx.pi, ctx)
            ex = remainder_exact(arg, plan.m, ctx, route="gamma")
            ratio = abs(mctx.mpc(ex.K, ex.L)) * mctx.exp(arg.r * arg.r)
            worst = max(worst, ratio)
    assert 1 < worst <= OPTIMAL_REMAINDER_BOUND


def test_optimal_cut_matches_full_precision_grid():
    # seeded r log-uniform within a factor 2 of sqrt(digits ln 10), where
    # e^{-r^2} crosses the last digit; theta at both ends, uniform, and
    # within 0.01 pi of the Stokes line. Every answer matches the estimate
    # run at full precision, component by component, and every refusal too
    rng = random.Random(20261018)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StokesCollarWarning)
        for digits in (16, 40, 100):
            ctx = PrecisionContext(digits=digits)
            mctx = ctx.mp()
            tol = ctx.eps()
            exact_ctx = PrecisionContext(digits=digits + 10)
            r_mid = math.sqrt(digits * math.log(10))
            for i in range(10):
                r = "%.6f" % (r_mid * 2 ** rng.uniform(-1, 1))
                if i < 2:
                    theta_over_pi = ("0", "0.5")[i]
                else:
                    theta_over_pi = "%.6f" % rng.uniform(*((0, 0.5) if i < 6 else (0.49, 0.5)))
                arg = VoigtArgument.from_polar(r, mctx.mpf(theta_over_pi) * mctx.pi, ctx)
                exact = voigt_exact_erfc(arg, exact_ctx)
                plan = optimal_truncation(arg.r, ctx)
                sums = algebraic_partial_sums(arg, plan.m, ctx)
                for variant in ("eq41", "eq42"):
                    for k_terms in (1, 3, 5):
                        case = (digits, r, theta_over_pi, variant, k_terms)
                        try:
                            est = ESTIMATES[variant](arg, plan, k_terms, ctx)
                        except (DomainError, UnsupportedOrderError) as refused:
                            with pytest.raises(type(refused)) as same:
                                evaluate_via_expansion(arg, variant, k_terms, None, ctx)
                            assert str(same.value) == str(refused), case
                            continue
                        ev = evaluate_via_expansion(arg, variant, k_terms, None, ctx)
                        K = mctx.mpf(sums.K + est.Khat)
                        L = mctx.mpf(sums.L + est.Lhat)
                        assert abs(ev.K - K) <= tol * abs(K), case
                        assert abs(ev.L - L) <= tol * abs(L), case
                        if variant == "eq41" and float(theta_over_pi) >= 0.45:
                            continue  # eq41 degrades there, warned and untrusted
                        assert abs(ev.K - exact.K) <= ev.err_estimate, case
                        assert abs(ev.L - exact.L) <= ev.err_estimate, case


@pytest.mark.parametrize("x, y, digits", (("20", "1e-600", 100), ("14", "1e-200", 40)))
def test_stokes_line_K_is_the_remainder(x, y, digits):
    # L_m ~ 1/(x sqrt(pi)) dwarfs e^{-x^2}, but K ~ e^{-x^2} is the remainder
    # itself: the smaller component decides the precision, never the sum
    ctx = PrecisionContext(digits=digits)
    mctx = ctx.mp()
    arg = VoigtArgument.from_xy(x, y, ctx)
    want = mctx.exp(-mctx.mpf(x) ** 2)
    for k_terms in (1, 3):
        ev = evaluate_via_expansion(arg, "eq42", k_terms, None, ctx)
        assert abs(ev.K - want) <= ctx.eps() * want, k_terms


def test_optimal_cut_skips_or_narrows_the_estimate(estimate_digits):
    ctx = PrecisionContext(digits=100)
    mctx = ctx.mp()
    # (16, 5): r^2 = 281 and 2 e^{-r^2} ~ 1e-122, below the last digit of
    # K ~ 1e-2 and L ~ 6e-2: the partial sums are the answer
    arg = VoigtArgument.from_xy(16, 5, ctx)
    plan = optimal_truncation(arg.r, ctx)
    sums = algebraic_partial_sums(arg, plan.m, ctx)
    ev = evaluate_via_expansion(arg, "eq42", 3, None, ctx)
    assert estimate_digits == []
    assert (ev.K, ev.L) == (sums.K, sums.L)
    bound = OPTIMAL_REMAINDER_BOUND * mctx.exp(-mctx.mpf(281))
    assert abs((ev.err_estimate - sums.err_estimate) / bound - 1) < mctx.mpf(10) ** -15
    # a given m, the optimal one included, runs the estimate in full
    evaluate_via_expansion(arg, "eq42", 3, plan.m, ctx)
    assert estimate_digits == [100]
    # (12, 5): r^2 = 169, so the estimate adds 27 digits to K and L and
    # runs at 40
    estimate_digits.clear()
    evaluate_via_expansion(VoigtArgument.from_xy(12, 5, ctx), "eq41", 3, None, ctx)
    assert estimate_digits == [40]
    # a zero component keeps the full precision: K_m = 0 on the Stokes line
    estimate_digits.clear()
    evaluate_via_expansion(VoigtArgument.from_xy(16, 0, ctx), "eq42", 3, None, ctx)
    assert estimate_digits == [100]


def test_refusals_and_warnings_past_the_skip_threshold(estimate_digits):
    # r = 20 at 100 digits: e^{-400} ~ 1e-174 is below the last digit of
    # every answer off the axes, yet each input is refused or warned about
    # exactly as the estimate itself does
    ctx = PrecisionContext(digits=100)
    mctx = ctx.mp()
    plan = optimal_truncation(20, ctx)

    def at(theta_over_pi):
        return VoigtArgument.from_polar(20, mctx.mpf(theta_over_pi) * mctx.pi, ctx)

    for unknown in ("eq43", "leading-away", "leading-near"):
        with pytest.raises(DomainError, match="unknown expansion variant"):
            evaluate_via_expansion(at("0.3"), unknown, 1, None, ctx)
    refused = (
        (at("0.3"), "eq41", 0),
        (at("0.3"), "eq42", 6),
        (at("0.5"), "eq42", 6),  # past K_MAX on the Stokes line too
        (at("0.49"), "eq41", 3),  # the eq41 collar
        (at("0.49"), "eq41", 1),
    )
    for arg, variant, k_terms in refused:
        with pytest.raises((DomainError, UnsupportedOrderError)) as want:
            ESTIMATES[variant](arg, plan, k_terms, ctx)
        with pytest.raises(type(want.value)) as got:
            evaluate_via_expansion(arg, variant, k_terms, None, ctx)
        assert str(got.value) == str(want.value), (variant, k_terms)
    estimate_digits.clear()
    with pytest.warns(StokesCollarWarning):
        ev = evaluate_via_expansion(at("0.45"), "eq41", 3, None, ctx)
    assert estimate_digits == []
    assert mctx.isfinite(ev.K) and mctx.isfinite(ev.L)


def test_below_range_warning_propagates(ctx40):
    arg = VoigtArgument.from_xy("0.3", "0.4", ctx40)
    with pytest.warns(BelowAsymptoticRangeWarning):
        evaluate_via_expansion(arg, "eq42", 1, None, ctx40)


def test_warnings_do_not_hide_results(ctx40):
    # collar warnings must come with a finite result attached
    mctx = ctx40.mp()
    plan = optimal_truncation(6, ctx40)
    arg = VoigtArgument.from_polar(6, mctx.pi * mctx.mpf("0.42"), ctx40)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        est = theorem1(arg, plan, 3, ctx40)
    assert mctx.isfinite(est.Khat) and mctx.isfinite(est.Lhat)
