"""Extended-precision kernel tests: the exact Pochhammer symbols the checks
use, the scaled complementary error function erfcx and its asymptotic
series, the scaled incomplete-gamma ladder, and the semi-infinite
quadrature engine. Expected
values are trivial identities, values frozen from independent oracle
evaluations before the implementation existed, or mpmath's own erfc and
gammainc at 20 more digits.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from mpmath.ctx_mp import MPContext

from voigt_asym import (
    DomainError,
    PrecisionContext,
    PrecisionError,
    QuadratureError,
    VoigtArgument,
    integrate_semi_infinite,
    remainder_exact,
    upper_incomplete_gamma_half_ladder,
)
from coefficient_reference import pochhammer
from voigt_asym import numerics
from voigt_asym.coefficients import _DOUBLE_FACTORIAL
from voigt_asym.numerics import _gamma_widening, erfcx, mp_context

HALF = Fraction(1, 2)


# ---------------------------------------------------------------- pochhammer

def test_pochhammer_empty_product():
    assert pochhammer(HALF, 0) == 1


def test_pochhammer_half_two():
    # (1/2)(3/2)
    assert pochhammer(HALF, 2) == Fraction(3, 4)


def test_pochhammer_half_five_and_diagonal_cross_check():
    assert pochhammer(HALF, 5) == Fraction(945, 32)
    # scaled by 2^k these are the double factorials the library generates
    assert [2**k * pochhammer(HALF, k) for k in range(6)] == list(_DOUBLE_FACTORIAL)


def test_pochhammer_integer_start_is_factorial():
    assert pochhammer(1, 6) == Fraction(720)


# -------------------------------------------------------------------- erfcx

def test_erfc_at_zero(ctx40):
    v = erfcx(0, ctx40.mp())
    assert v.real == 1 and v.imag == 0


def test_erfc_one_matches_voigt_K_on_imaginary_axis(ctx40):
    from voigt_asym import voigt_exact_erfc

    mctx = ctx40.mp()
    lhs = erfcx(1, mctx).real  # e^1 erfc(1)
    ev = voigt_exact_erfc(VoigtArgument.from_xy(0, 1, ctx40), ctx40)
    assert abs(lhs - ev.K) < mctx.mpf(10) ** (-(ctx40.digits - 3))
    assert ev.L == 0


def test_erfc_reflection_identity_random(ctx40):
    # erfc(z) + erfc(-z) = 2 reads erfcx(z) + erfcx(-z) = 2 e^{z^2} on the
    # imaginary axis, where z and -z both lie in the kernel's half-plane;
    # |z| up to 12 crosses into the asymptotic branch. Off the axis the
    # kernel is conjugate-symmetric.
    rng = random.Random(411)
    mctx = ctx40.mp()
    tol = mctx.mpf(10) ** (-(ctx40.digits - 5))
    for _ in range(50):
        z = mctx.mpc(0, rng.uniform(-12, 12))
        total = erfcx(z, mctx) + erfcx(-z, mctx)
        assert abs(total - 2 * mctx.exp(z * z)) <= tol * abs(erfcx(z, mctx))
    for _ in range(50):
        z = mctx.mpc(rng.uniform(0, 12), rng.uniform(-12, 12))
        assert abs(erfcx(mctx.conj(z), mctx) - mctx.conj(erfcx(z, mctx))) <= tol * abs(
            erfcx(z, mctx))


def _asymptotic_sum(mctx, z, n):
    # the first n terms of e^{z^2} erfc(z) ~ (1/(z sqrt(pi))) sum of
    # (-1)^k (1/2)_k z^{-2k}
    return sum(
        (-1) ** k * mctx.convert(pochhammer(HALF, k)) / z ** (2 * k + 1) for k in range(n)
    ) / mctx.sqrt(mctx.pi)


def _first_omitted(mctx, z, n):
    return mctx.convert(pochhammer(HALF, n)) / (mctx.sqrt(mctx.pi) * abs(z) ** (2 * n + 1))


def test_erfc_asymptotic_single_term_real(ctx40):
    # one term of the asymptotic series misses e^{z^2} erfc(z) by at most
    # the first omitted term on the positive real axis
    mctx = ctx40.mp()
    z = mctx.mpf(4)
    got = erfcx(z, mctx)
    lead = 1 / (z * mctx.sqrt(mctx.pi))
    assert abs(got - lead) <= _first_omitted(mctx, z, 1)
    assert abs(got - lead) >= _first_omitted(mctx, z, 1) / 2
    # past the float range the leading term is the whole answer
    z = mctx.mpc("1e200", "1e199")
    lead = 1 / (z * mctx.sqrt(mctx.pi))
    assert abs(erfcx(z, mctx) - lead) <= mctx.mpf(10) ** (-(ctx40.digits + 3)) * abs(lead)


def test_erfc_asymptotic_real_optimal_truncation(ctx40):
    # |z| = 3: the terms shrink until n ~ |z|^2 = 9, then grow
    mctx = ctx40.mp()
    z = mctx.mpf(3)
    n = 9
    diff = abs(_asymptotic_sum(mctx, z, n) - erfcx(z, mctx))
    assert diff <= _first_omitted(mctx, z, n)


def test_erfc_asymptotic_rotated_argument(ctx40):
    # |z| = 4 close to the imaginary axis: the omitted-term estimate picks up
    # an O(1) sector factor (measured ~3 here), so allow a margin of 4
    mctx = ctx40.mp()
    z = 4 * mctx.expj(mctx.pi / 2 - mctx.mpf("0.1"))
    n = 16
    diff = abs(_asymptotic_sum(mctx, z, n) - erfcx(z, mctx))
    assert diff <= 4 * _first_omitted(mctx, z, n)


def test_erfc_asymptotic_domain_checks(ctx40):
    mctx = ctx40.mp()
    with pytest.raises(DomainError):
        erfcx(complex(-3, 0.1), mctx)  # outside the right half-plane
    with pytest.raises(DomainError):
        erfcx(mctx.mpc(mctx.nan, 0), mctx)
    with pytest.raises(DomainError):
        erfcx(mctx.mpc(4, mctx.inf), mctx)


def _erfcx_grid(seed):
    # (digits, z) over digits 16..400, |z| in [0.1, 40], arg z in
    # [-pi/2, pi/2]: a log-uniform draw in |z|, plus points just either
    # side of the asymptotic threshold |z|^2 = dps ln 10 and of Re z = 2,
    # where mpmath's erfc, the reference, changes form
    rng = random.Random(seed)
    cases = []
    for digits in (16, 40, 100, 400):
        dps = digits + 5  # the working precision of PrecisionContext.mp()
        edge = math.sqrt(dps * math.log(10))
        for _ in range(30):
            modulus = 0.1 * 400 ** rng.random()
            angle = rng.uniform(-math.pi / 2, math.pi / 2)
            cases.append((digits, modulus * math.cos(angle), modulus * math.sin(angle)))
        for modulus in (edge * (1 - 1e-6), edge * (1 + 1e-6)):
            if modulus <= 40:
                for angle in (0.0, 0.7, -1.2, math.pi / 2):
                    cases.append((digits, modulus * math.cos(angle), modulus * math.sin(angle)))
        for re in (2 - 1e-9, 2 + 1e-9):
            for im in (0.0, 1.5, -4.0, 7.5):
                if re * re + im * im < edge * edge:
                    cases.append((digits, re, im))
    return cases


def test_erfcx_matches_mpmath_on_seeded_grid():
    # both branches, and both sides of the threshold between them, against
    # mpmath's e^{z^2} erfc(z) at 20 more digits
    seen = set()
    for digits, re, im in _erfcx_grid(2606):
        ctx = PrecisionContext(digits=digits)
        mctx = ctx.mp()
        z = mctx.mpc(re, im)
        ref_ctx = mp_context(mctx.dps + 20)
        zr = ref_ctx.mpc(z)
        want = ref_ctx.exp(zr * zr) * ref_ctx.erfc(zr)
        got = ref_ctx.mpc(erfcx(z, mctx))
        assert abs(got - want) <= ref_ctx.mpf(10) ** (1 - digits) * abs(want), (digits, z)
        seen.add("asymptotic" if abs(z) ** 2 > mctx.dps * math.log(10) else "kummer")
    assert seen == {"asymptotic", "kummer"}


def test_erfcx_sums_a_real_argument_in_real_arithmetic(monkeypatch):
    # on the real axis (the ladder's base case at theta = 0) the Kummer
    # series gets a real z^2; the value is an mpc still, and matches
    # mpmath's e^{z^2} erfc(z) at 20 more digits
    seen = []
    real_hypsum = MPContext.hypsum

    def spy(ctx, *args, **kwargs):
        seen.append(args[-1])
        return real_hypsum(ctx, *args, **kwargs)

    monkeypatch.setattr(MPContext, "hypsum", spy)
    for digits in (16, 40, 100):
        mctx = PrecisionContext(digits=digits).mp()
        ref_ctx = mp_context(mctx.dps + 20)
        for x in ("0.1", "0.5", "1", "2.5", "4", "6.5"):  # all below the threshold
            z = mctx.mpc(x, 0)
            got = erfcx(z, mctx)
            assert type(got) is mctx.mpc
            zr = ref_ctx.convert(z.real)
            want = ref_ctx.exp(zr * zr) * ref_ctx.erfc(zr)
            assert abs(ref_ctx.mpc(got) - want) <= ref_ctx.mpf(10) ** (1 - digits) * want, (digits, x)
    assert len(seen) == 18 and not any(hasattr(z2, "_mpc_") for z2 in seen)


def test_erfcx_uses_no_mpmath_error_function(monkeypatch):
    # the kernel must share no code with the erfc oracle that judges it
    def refuse(ctx, z):
        raise AssertionError("erfcx called mpmath's erf or erfc at %s" % (z,))

    monkeypatch.setattr(MPContext, "erf", refuse)
    monkeypatch.setattr(MPContext, "erfc", refuse)
    for digits, re, im in _erfcx_grid(2606):
        mctx = PrecisionContext(digits=digits).mp()
        assert mctx.isfinite(erfcx(mctx.mpc(re, im), mctx))


def test_erfcx_series_failure_is_precision_error(monkeypatch):
    # a Kummer series that hypsum cannot sum is a typed error, never a bare
    # mpmath exception; the asymptotic branch does not use hypsum
    def fail(ctx, *args, **kwargs):
        raise ValueError("hypsum() failed to converge")

    monkeypatch.setattr(MPContext, "hypsum", fail)
    mctx = PrecisionContext(digits=40).mp()
    for z in (mctx.mpc(3, 4), mctx.mpc("0.3", 7), mctx.mpc(1, 0)):
        with pytest.raises(PrecisionError, match="Kummer series"):
            erfcx(z, mctx)
    assert mctx.isfinite(erfcx(mctx.mpc(20, 1), mctx))


# ------------------------------------------------------ incomplete gamma

def test_gamma_half_base_case(ctx40):
    # the ladder holds e^z Gamma(1/2 - m, z); at m = 0 that is
    # e^z sqrt(pi) erfc(sqrt(z))
    mctx = ctx40.mp()
    for z in (mctx.mpf("0.5"), mctx.mpf(2), mctx.mpf(9)):
        got = upper_incomplete_gamma_half_ladder(0, z, ctx40)[0]
        want = mctx.exp(z) * mctx.sqrt(mctx.pi) * mctx.erfc(mctx.sqrt(z))
        assert abs(got - want) <= mctx.mpf(10) ** (-(ctx40.digits - 3)) * abs(want)


def test_gamma_half_feeds_terminant_identity(ctx40):
    # the m = 12 ladder value must reproduce the exact truncation remainder
    # through Khat - i Lhat = (-1)^m Gamma(m + 1/2) e^z Gamma(1/2 - m, z) / pi
    mctx = ctx40.mp()
    arg = VoigtArgument.from_polar("3.5", mctx.pi / 10, ctx40)
    z = arg.z(ctx40)
    m = 12
    gm = upper_incomplete_gamma_half_ladder(m, z, ctx40)[m]  # e^z Gamma(1/2 - m, z)
    poch = mctx.convert(pochhammer(HALF, m)) * mctx.sqrt(mctx.pi)  # Gamma(m+1/2)
    via_gamma = (-1) ** m * poch * gm / mctx.pi
    ref = remainder_exact(arg, m, ctx40, route="quadrature")
    want = mctx.mpc(ref.K, -ref.L)
    assert abs(via_gamma - want) <= mctx.mpf(10) ** (-30) * abs(want)


def test_gamma_half_recurrence_round_trip(ctx40):
    # climb back up from m = 36 and compare against the m = 0 base value;
    # the upward direction amplifies error by ~e^{2|z|}, hence the documented
    # 10^-(digits-35) allowance. On the scaled entries the upward step is
    # G_{s+1} = s G_s + z^s.
    mctx = ctx40.mp()
    z = mctx.mpf(36)
    ladder = upper_incomplete_gamma_half_ladder(36, z, ctx40)
    G = mctx.mpc(ladder[36])
    for m in range(36, 0, -1):
        s = mctx.mpf(1) / 2 - m
        G = s * G + mctx.power(z, s)
    base = mctx.mpc(ladder[0])
    assert abs(G - base) <= mctx.mpf(10) ** (-(ctx40.digits - 35)) * abs(base)


def test_gamma_half_ladder_prefix_consistency(ctx40):
    mctx = ctx40.mp()
    z = mctx.mpc(2, 3)
    ladder = upper_incomplete_gamma_half_ladder(8, z, ctx40)
    solo = upper_incomplete_gamma_half_ladder(5, z, ctx40)[5]
    assert abs(ladder[5] - solo) <= mctx.mpf(10) ** (-(ctx40.digits - 5)) * abs(solo)


def test_scaled_ladder_matches_mpmath_gammainc():
    # e^{-z} ladder[m] against mpmath's Gamma(1/2 - m, z) at 20 more digits,
    # over seeded (digits, z, m <= 60); z = w^2 with w in the closed first
    # quadrant, as the remainder route passes it, with arg z up to pi
    rng = random.Random(2607)
    for _ in range(24):
        digits = rng.choice((16, 40, 100))
        ctx = PrecisionContext(digits=digits)
        w_abs = rng.uniform(0.5, 7.5)
        w_arg = rng.choice((0.0, math.pi / 2, rng.uniform(0, math.pi / 2)))
        m_max = rng.randint(0, 60)
        ref_ctx = mp_context(digits + 25)
        w = ref_ctx.mpc(w_abs * math.cos(w_arg), w_abs * math.sin(w_arg))
        z = ctx.mp().mpc(w * w)
        ladder = upper_incomplete_gamma_half_ladder(m_max, z, ctx)
        zr = ref_ctx.mpc(z)
        for m in sorted({0, m_max // 2, m_max}):
            want = ref_ctx.gammainc(ref_ctx.mpf(1) / 2 - m, zr)
            got = ref_ctx.exp(-zr) * ref_ctx.mpc(ladder[m])
            assert abs(got - want) <= ref_ctx.mpf(10) ** (1 - digits) * abs(want), (
                digits, z, m)


def _starved(monkeypatch):
    # the first sweep runs at the requested digits, with no widening for
    # the ~16 digits the recurrence loses at |z| = 36
    monkeypatch.setattr(numerics, "_gamma_widening", lambda absz, digits: digits)


@pytest.mark.parametrize("w_arg", [0.0, 0.3])
def test_gamma_ladder_retries_a_sweep_that_falls_short(monkeypatch, w_arg):
    digits, m_max = 40, 36
    ctx = PrecisionContext(digits=digits)
    ref_ctx = mp_context(digits + 25)
    zr = ref_ctx.mpf(36) * ref_ctx.expj(2 * w_arg)
    _starved(monkeypatch)
    ladder = upper_incomplete_gamma_half_ladder(m_max, ctx.mp().mpc(zr), ctx)
    for m in (0, m_max // 2, m_max):
        want = ref_ctx.gammainc(ref_ctx.mpf(1) / 2 - m, zr)
        got = ref_ctx.exp(-zr) * ref_ctx.mpc(ladder[m])
        assert abs(got - want) <= ref_ctx.mpf(10) ** (1 - digits) * abs(want), (w_arg, m)


def test_gamma_ladder_refuses_when_both_sweeps_fall_short(monkeypatch):
    # with the retry starved too, the loss check must raise rather than
    # hand back entries short of the requested digits
    _starved(monkeypatch)
    monkeypatch.setattr(numerics, "round_widening", lambda extra: 0)
    ctx = PrecisionContext(digits=40)
    with pytest.raises(PrecisionError) as caught:
        upper_incomplete_gamma_half_ladder(36, ctx.mp().mpf(36), ctx)
    assert 0 < caught.value.attained < 40


def test_gamma_widening_lands_on_few_precisions():
    # every widened precision is cached for good, so the widening is rounded
    # up to a multiple of 10 digits; it never drops below the cancellation rule
    rng = random.Random(1403)
    seen = set()
    for _ in range(200):
        absz = rng.uniform(9, 64)
        digits = 40
        widened = _gamma_widening(absz, digits)
        assert widened >= digits + math.ceil(absz * math.log10(math.e)) + 10
        assert (widened - digits) % 10 == 0
        seen.add(widened)
    assert len(seen) <= 8


# ------------------------------------------------------------- quadrature

def _quad_tol(ctx):
    # the absolute tolerance integrate_semi_infinite drives its estimate to
    return ctx.mp().mpf(10) ** (6 - ctx.digits)


def test_quadrature_unit_exponential(ctx40):
    mctx = ctx40.mp()
    res = integrate_semi_infinite(lambda t: mctx.exp(-t), ctx40)
    assert abs(res.value - 1) <= _quad_tol(ctx40)
    assert abs(res.value - 1) <= res.err_estimate


def test_quadrature_default_tolerance_past_double_range():
    # 10^(6-digits) is below the smallest double from 330 digits on; the
    # tolerance must stay positive there, or no estimate could meet it. The
    # engine itself has no digit cap; voigt_quadrature's is its own
    ctx = PrecisionContext(digits=330)
    mctx = ctx.mp()
    res = integrate_semi_infinite(lambda t: mctx.exp(-t), ctx)
    assert abs(res.value - 1) <= _quad_tol(ctx)


def test_quadrature_gaussian_two_half_lines(ctx40):
    mctx = ctx40.mp()
    res = integrate_semi_infinite(lambda t: mctx.exp(-t * t), ctx40)
    total = 2 * res.value  # even integrand: whole line is twice the half line
    assert abs(total - mctx.sqrt(mctx.pi)) <= 10 * _quad_tol(ctx40)


def test_quadrature_matches_gamma_route_for_terminant(ctx40):
    # the two independent remainder routes evaluate the same function
    mctx = ctx40.mp()
    arg = VoigtArgument.from_polar("3.5", mctx.pi / 10, ctx40)
    via_quad = remainder_exact(arg, 12, ctx40, route="quadrature")
    via_gamma = remainder_exact(arg, 12, ctx40, route="gamma")
    dq = mctx.mpc(via_quad.K, -via_quad.L)
    dg = mctx.mpc(via_gamma.K, -via_gamma.L)
    assert abs(dq - dg) <= mctx.mpf(10) ** (-30) * abs(dg)


def _closed_form_cases(mctx):
    # (integrand, exact value) pairs with known antiderivatives
    cases = []
    for a in (1, 2):
        for n in range(5):
            exact = mctx.factorial(n) / mctx.mpf(a) ** (n + 1)
            cases.append((lambda t, a=a, n=n: t**n * mctx.exp(-a * t), exact))
    for b in (1, 3):
        cases.append((lambda t, b=b: mctx.exp(-t) * mctx.sin(b * t),
                      mctx.mpf(b) / (1 + b * b)))
        cases.append((lambda t, b=b: mctx.exp(-t) * mctx.cos(b * t),
                      mctx.mpf(1) / (1 + b * b)))
    cases.append((lambda t: mctx.exp(-t * t), mctx.sqrt(mctx.pi) / 2))
    cases.append((lambda t: t * mctx.exp(-t * t), mctx.mpf(1) / 2))
    cases.append((lambda t: mctx.sech(t), mctx.pi / 2))
    cases.append((lambda t: t * mctx.sech(t) ** 2, mctx.log(2)))
    cases.append((lambda t: mctx.exp(-3 * t) * mctx.cosh(t), mctx.mpf(3) / 8))
    cases.append((lambda t: t * t * mctx.exp(-t * t), mctx.sqrt(mctx.pi) / 4))
    return cases


def test_quadrature_error_estimates_are_conservative(ctx40):
    mctx = ctx40.mp()
    cases = _closed_form_cases(mctx)
    assert len(cases) == 20
    for f, exact in cases:
        res = integrate_semi_infinite(f, ctx40)
        assert abs(res.value - exact) <= res.err_estimate


def test_quadrature_failure_reports_best_iterate():
    # violates the exponential-decay precondition on purpose: the engine must
    # give up with its best iterate rather than return a confident wrong value
    ctx = PrecisionContext(digits=16)
    mctx = ctx.mp()
    with pytest.raises(QuadratureError) as info:
        integrate_semi_infinite(lambda t: mctx.sin(50 * t) / (1 + t), ctx)
    assert info.value.gap is not None


def test_precision_monotonicity(ctx40, ctx60):
    # raising the working precision must only refine digits below the
    # 40-digit level, never move the leading ones
    mctx = ctx60.mp()
    z = mctx.mpc("1.25", "2.5")

    def poly_exp(m):
        return lambda t: (1 + t) ** 2 * m.exp(-t)

    pairs = [
        (erfcx(z, ctx40.mp()), erfcx(z, ctx60.mp())),
        (
            upper_incomplete_gamma_half_ladder(5, z, ctx40)[5],
            upper_incomplete_gamma_half_ladder(5, z, ctx60)[5],
        ),
        (
            integrate_semi_infinite(poly_exp(ctx40.mp()), ctx40).value,
            integrate_semi_infinite(poly_exp(ctx60.mp()), ctx60).value,
        ),
    ]
    for v40, v60 in pairs:
        diff = abs(mctx.mpc(v40) - mctx.mpc(v60))
        assert diff <= mctx.mpf(10) ** (-37) * abs(mctx.mpc(v60))
