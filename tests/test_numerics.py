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
)
from coefficient_reference import pochhammer
from quadrature_reference import remainder_quadrature
from voigt_asym import numerics
from voigt_asym.coefficients import _DOUBLE_FACTORIAL
from voigt_asym.numerics import (
    ERFCX_EDGE,
    ERFCX_EDGE_REAL,
    GAMMA_RECURRENCE_CAP,
    _gamma_widening,
    erfcx,
    integrate_semi_infinite,
    mp_context,
    upper_incomplete_gamma_half_ladder,
)

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


def _erfcx_edge_grid(seed):
    # (digits, re, im, fraction) just either side of erfcx's fraction edge,
    # on the real axis and at seeded t = |Im z|/Re z in (0, 1], and of
    # |arg z| = pi/4 above that edge, both below and past the asymptotic
    # threshold dps ln 10, with Im z of either sign; fraction says whether
    # the point lies on the fraction's side
    rng = random.Random(seed)
    for digits in (16, 40, 100, 400):
        dps = digits + 5  # the working precision of PrecisionContext.mp()
        for i in range(6):
            t = rng.uniform(0.01, 1) if i else 0.0
            edge = (dps / 3 + (ERFCX_EDGE if t else ERFCX_EDGE_REAL)) * (1 + t * t / 2)
            for side in (1 - 1e-6, 1 + 1e-6):
                re = math.sqrt(edge * side / (1 + t * t))
                yield digits, re, (-1) ** i * t * re, side > 1
        top, threshold = 1.5 * (dps / 3 + ERFCX_EDGE), dps * math.log(10)
        for r2 in (rng.uniform(top, threshold), rng.uniform(threshold, 2 * threshold)):
            for t in (1 - 1e-6, 1 + 1e-6):
                re = math.sqrt(r2 / (1 + t * t))
                for sign in (1, -1):
                    yield digits, re, sign * t * re, t < 1


def test_erfcx_matches_mpmath_across_the_fraction_edges(monkeypatch):
    # every point takes the branch its side names, and matches mpmath's
    # e^{z^2} erfc(z) at 20 more digits to 10^(1 - digits)
    real, calls = numerics._fraction, []
    monkeypatch.setattr(numerics, "_fraction", lambda *a: calls.append(a) or real(*a))
    for digits, re, im, fraction in _erfcx_edge_grid(2828):
        calls.clear()
        mctx = PrecisionContext(digits=digits).mp()
        z = mctx.mpc(re, im)
        ref_ctx = mp_context(mctx.dps + 20)
        zr = ref_ctx.mpc(z)
        want = ref_ctx.exp(zr * zr) * ref_ctx.erfc(zr)
        got = ref_ctx.mpc(erfcx(z, mctx))
        assert abs(got - want) <= ref_ctx.mpf(10) ** (1 - digits) * abs(want), (digits, z)
        assert bool(calls) == fraction, (digits, z)


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
        for x in ("0.1", "0.5", "1", "2.5", "4", "5.5"):  # all below the fraction's edge
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


# ------------------------------------------------------------ fixed point

def _exact(v) -> Fraction:
    # an mpf as the exact dyadic Fraction it is (man_exp is unsigned)
    man, exp = v.man_exp
    return (-1 if v < 0 else 1) * Fraction(man) * Fraction(2) ** exp


@pytest.mark.parametrize("digits", [16, 40, 100])
def test_fixed_point_helpers_keep_their_floor_contract(digits):
    # at wp = prec + 20 for the working context of each precision: _fixed
    # floors each part of an mpf or mpc; _from_fixed rounds back to nearest,
    # so a value on the 2^-wp grid comes back as mctx.mpc would round it;
    # _fixed_mul lies below the exact product of its integers, scaled by
    # 2^-wp, by less than 1 unit per part and sqrt 2 in modulus; and
    # _float_log is ln v, also past the float range
    rng = random.Random(2500 + digits)
    mctx = PrecisionContext(digits).mp()
    wide = mp_context(mctx.dps + 30)
    wp = mctx.prec + 20
    scale = Fraction(1 << wp)

    def part(bits):
        return rng.choice((-1, 1)) * rng.getrandbits(bits)

    for _ in range(100):
        e = rng.randint(-4, 4)
        on_grid = (part(wp + e), part(wp + e))
        v = mctx.mpc(*(wide.ldexp(wide.mpf(n), -wp) for n in on_grid))  # rounded once
        assert numerics._from_fixed(mctx, on_grid, wp) == mctx.mpc(
            *(mctx.ldexp(mctx.mpf(n), -wp) for n in on_grid))
        off = wide.mpc(*(wide.ldexp(wide.mpf(part(wide.prec)), e - wide.prec) for _ in "ri"))
        floors = tuple(math.floor(_exact(p) * scale) for p in (off.real, off.imag))
        assert numerics._fixed(off, wp) == floors
        assert numerics._fixed(off.real, wp) == floors[0]
        assert numerics._from_fixed(mctx, numerics._fixed(v, wp), wp) == v
        x, y = on_grid, (part(wp + 2), part(wp + 2))
        got = numerics._fixed_mul(x, y, wp)
        exact = (Fraction(x[0] * y[0] - x[1] * y[1]) / scale,
                 Fraction(x[0] * y[1] + x[1] * y[0]) / scale)
        miss = [w - g for w, g in zip(exact, got)]
        assert all(0 <= d < 1 for d in miss) and miss[0] ** 2 + miss[1] ** 2 < 2
    for text in ("3.25", "1e-30", "7e400", "2e-2000"):
        v = mctx.mpf(text)
        assert abs(numerics._float_log(v) - float(mctx.log(v))) <= 1e-13 * abs(float(mctx.log(v)))


# ------------------------------------------------------ incomplete gamma

def test_gamma_half_base_case(ctx40):
    # at m = 0 the ladder returns e^z Gamma(1/2, z) = e^z sqrt(pi) erfc(w), z = w^2
    mctx = ctx40.mp()
    for w in (mctx.sqrt(mctx.mpf("0.5")), mctx.sqrt(2), mctx.mpf(3)):
        got = upper_incomplete_gamma_half_ladder(0, w, ctx40)
        want = mctx.exp(mctx.fmul(w, w, exact=True)) * mctx.sqrt(mctx.pi) * mctx.erfc(w)
        assert abs(got - want) <= mctx.mpf(10) ** (-(ctx40.digits - 3)) * abs(want)


def test_gamma_half_feeds_terminant_identity(ctx40):
    # the m = 12 ladder value must reproduce the exact truncation remainder
    # through Khat - i Lhat = (-1)^m Gamma(m + 1/2) e^z Gamma(1/2 - m, z) / pi
    mctx = ctx40.mp()
    arg = VoigtArgument.from_polar("3.5", mctx.pi / 10, ctx40)
    m = 12
    w = mctx.mpc(arg.y, arg.x)
    gm = upper_incomplete_gamma_half_ladder(m, w, ctx40)  # e^z Gamma(1/2 - m, z)
    poch = mctx.convert(pochhammer(HALF, m)) * mctx.sqrt(mctx.pi)  # Gamma(m+1/2)
    via_gamma = (-1) ** m * poch * gm / mctx.pi
    ref = remainder_quadrature(arg, m, ctx40)
    want = mctx.mpc(ref.K, -ref.L)
    assert abs(via_gamma - want) <= mctx.mpf(10) ** (-30) * abs(want)


def test_gamma_half_recurrence_round_trip(ctx40):
    # climb back up from the m = 36 value and compare against the m = 0
    # value; the upward direction amplifies error by ~e^{2|z|}, hence the
    # documented 10^-(digits-35) allowance. On the scaled values the upward
    # step is G_{s+1} = s G_s + z^s.
    mctx = ctx40.mp()
    w, z = mctx.mpf(6), mctx.mpf(36)
    G = mctx.mpc(upper_incomplete_gamma_half_ladder(36, w, ctx40))
    for m in range(36, 0, -1):
        s = mctx.mpf(1) / 2 - m
        G = s * G + mctx.power(z, s)
    base = mctx.mpc(upper_incomplete_gamma_half_ladder(0, w, ctx40))
    assert abs(G - base) <= mctx.mpf(10) ** (-(ctx40.digits - 35)) * abs(base)


def test_gamma_half_ladder_prefix_consistency(ctx40):
    # each order is its own sweep, sized for that order, from its own base
    # case; the values at consecutive orders must still be one downward
    # step apart, G_{a-1} = (G_a - z^{a-1})/(a - 1) with a = 1/2 - m
    mctx = ctx40.mp()
    w = mctx.sqrt(mctx.mpc(2, 3))
    z = mctx.fmul(w, w, exact=True)
    values = [mctx.mpc(upper_incomplete_gamma_half_ladder(m, w, ctx40)) for m in range(9)]
    for m in range(8):
        a = mctx.mpf(1) / 2 - m
        step = (values[m] - mctx.power(z, a - 1)) / (a - 1)
        assert abs(step - values[m + 1]) <= mctx.mpf(10) ** (-(ctx40.digits - 5)) * abs(
            values[m + 1]), m


def _gammainc_miss(ref_ctx, w, m, ctx):
    # |e^{-z} ladder - Gamma(1/2 - m, z)| / |Gamma(1/2 - m, z)|, by mpmath,
    # at z = w^2 squared exactly
    zr = ref_ctx.fmul(w, w, exact=True)
    want = ref_ctx.gammainc(ref_ctx.mpf(1) / 2 - m, zr)
    got = ref_ctx.exp(-zr) * ref_ctx.mpc(upper_incomplete_gamma_half_ladder(m, w, ctx))
    return abs(got - want) / abs(want)


def test_scaled_ladder_matches_mpmath_gammainc():
    # the ladder against mpmath's Gamma(1/2 - m, z) at 25 more digits, over
    # seeded (digits, w, m <= GAMMA_RECURRENCE_CAP); w in the closed first
    # quadrant, rounded to the working context as the remainder route passes
    # it, so arg z = 2 arg w reaches pi
    rng = random.Random(2607)
    for _ in range(24):
        digits = rng.choice((16, 40, 100))
        ctx = PrecisionContext(digits=digits)
        w_abs = rng.uniform(0.5, 7.5)
        w_arg = rng.choice((0.0, math.pi / 2, rng.uniform(0, math.pi / 2)))
        m_max = rng.randint(0, GAMMA_RECURRENCE_CAP)
        ref_ctx = mp_context(digits + 25)
        w = ctx.mp().mpc(w_abs * math.cos(w_arg), w_abs * math.sin(w_arg))
        for m in sorted({0, m_max // 2, m_max}):
            miss = _gammainc_miss(ref_ctx, w, m, ctx)
            assert miss <= ref_ctx.mpf(10) ** (1 - digits), (digits, w, m)


@pytest.mark.parametrize("digits", [16, 40, 100])
def test_scaled_ladder_matches_gammainc_where_re_z_is_negative(digits):
    # the sweep's value u_m stays O(1) through the Stokes phenomenon: on the
    # line itself (theta = pi/2, so w = ix and z = -x^2 with arg z = pi)
    # and with Re z < 0 off it (theta/pi in (1/4, 1/2)), against mpmath at
    # 25 more digits, m from 0 to the cap
    rng = random.Random(2622 + digits)
    ctx = PrecisionContext(digits=digits)
    mctx, ref_ctx = ctx.mp(), mp_context(digits + 25)
    for on_line in (True, False) * 4:
        theta = mctx.pi / 2 if on_line else mctx.mpf(rng.uniform(0.26, 0.49)) * mctx.pi
        arg = VoigtArgument.from_polar(rng.uniform(0.5, 14.1), theta, ctx)
        w = mctx.mpc(arg.y, arg.x)
        z = mctx.fmul(w, w, exact=True)
        assert z.real < 0 and (z.imag == 0) == on_line
        m0 = int(arg.r ** 2 + 0.5)
        for m in sorted({0, rng.randint(0, GAMMA_RECURRENCE_CAP), min(m0, GAMMA_RECURRENCE_CAP)}):
            miss = _gammainc_miss(ref_ctx, w, m, ctx)
            assert miss <= ref_ctx.mpf(10) ** (1 - digits), (digits, z, m)


def _starved(monkeypatch):
    # the first sweep runs at the requested digits, with no widening for
    # the ~16 digits the recurrence loses at |z| = 36, m = 36
    monkeypatch.setattr(numerics, "_gamma_widening", lambda loss, digits: digits)


@pytest.mark.parametrize("w_arg", [0.0, 0.3])
def test_gamma_ladder_retries_a_sweep_that_falls_short(monkeypatch, w_arg):
    digits, m_max = 40, 36
    ctx = PrecisionContext(digits=digits)
    ref_ctx = mp_context(digits + 25)
    w = ctx.mp().mpc(6 * ref_ctx.expj(w_arg))
    _starved(monkeypatch)
    for m in (0, m_max // 2, m_max):
        miss = _gammainc_miss(ref_ctx, w, m, ctx)
        assert miss <= ref_ctx.mpf(10) ** (1 - digits), (w_arg, m)


def test_gamma_ladder_refuses_when_both_sweeps_fall_short(monkeypatch):
    # with the retry starved too, the loss check must raise rather than
    # hand back a value short of the requested digits
    _starved(monkeypatch)
    monkeypatch.setattr(numerics, "round_widening", lambda extra: 0)
    ctx = PrecisionContext(digits=40)
    with pytest.raises(PrecisionError) as caught:
        upper_incomplete_gamma_half_ladder(36, ctx.mp().mpf(6), ctx)
    assert 0 < caught.value.attained < 40


def _fraction_draws(digits, seed):
    # seeded (m, w) past the cap off the EPS_POLE collar: m in (200, 10^4]
    # with r near sqrt(m), a few with m far above r^2 or r far above sqrt(m),
    # and theta/pi from 0 to 0.4841, the first draw on the collar edge
    mctx = mp_context(digits + 5)
    rng = random.Random(seed + digits)
    for i in range(8):
        m = int(10 ** rng.uniform(math.log10(GAMMA_RECURRENCE_CAP + 1), 4))
        r = math.sqrt(m) * (1 if i < 2 else rng.choice((rng.uniform(0.9, 1.1), 0.05, 1e6)))
        theta = (0.5 - 0.05 / math.pi if i == 0 else rng.uniform(0, 0.4841)) * math.pi
        yield m, mctx.mpc(r * math.cos(theta), r * math.sin(theta))


@pytest.mark.parametrize("digits", [16, 40, 100])
def test_fraction_rounding_stays_within_its_stated_bound(monkeypatch, digits):
    # the loop as upper_incomplete_gamma_half_fraction sizes it, against the
    # same loop fed z floored 200 bits lower down, with the same stopping
    # target and limit: both stop after the same n pairs and differ by less
    # than the stated 2^(4 - wp) (n + 1) |F|. The wide value also meets the
    # stopping rule's promise, within 2^-p |F| of the fraction run to 200
    # bits more
    real, calls = numerics._fraction_sweep, []
    monkeypatch.setattr(numerics, "_fraction_sweep", lambda *a: calls.append(a) or real(*a))
    ctx = PrecisionContext(digits=digits)
    mctx, big = ctx.mp(), mp_context(digits + 200)

    def value(q, scale):
        return big.mpc(big.ldexp(q[0], -scale), big.ldexp(q[1], -scale))

    for m, w in _fraction_draws(digits, 2626):
        calls.clear()
        numerics.upper_incomplete_gamma_half_fraction(m, w, ctx)
        (_, z, wp, stop, limit), = calls
        square = mctx.fmul(w, w, exact=True)
        z_exact = square.real, square.imag
        wide = [numerics._fixed(v, wp + 200) for v in z_exact]
        q, scale, n = real(m, z, wp, stop, limit)
        q_wide, scale_wide, n_wide = real(m, wide, wp + 200, stop, limit)
        assert n == n_wide <= limit
        F, G = value(q, scale), value(q_wide, scale_wide)
        assert abs(F - G) <= big.ldexp(n + 1, 4 - wp) * abs(G), (digits, m, w, n)
        deep = [numerics._fixed(v, wp + 400) for v in z_exact]
        exact = value(*real(m, deep, wp + 400, stop + 200, 100 * limit)[:2])
        assert abs(G - exact) <= big.ldexp(1, -mctx.prec) * abs(G), (digits, m, w, n)


def test_fraction_limit_is_a_precision_error_naming_it(ctx40):
    # at the collar edge, r = 14.2 and m = 202 the fraction needs about 1500
    # pairs; a limit of 100 is refused with a typed error that names it
    mctx = ctx40.mp()
    w = 14.2 * mctx.expj(mctx.pi / 2 - mctx.mpf("0.05"))
    wp = mctx.prec + 40
    with pytest.raises(PrecisionError, match="Gragg-Warner limit of 100 pairs"):
        numerics._fraction_sweep(202, numerics._fixed(w * w, wp), wp, mctx.prec, 100)


@pytest.mark.parametrize("digits", [16, 40, 100])
def test_fraction_matches_the_ladder_below_the_cap(digits):
    # both kernels map (m, w, ctx) to e^z Gamma(1/2 - m, z), z = w^2; where
    # the ladder runs they agree to 10^(1 - digits), over seeded m in [0,
    # GAMMA_RECURRENCE_CAP], r in [3, 14.1] and theta/pi in [0, 0.45], the
    # first draw on the real w axis; at m = 0 both are sqrt(pi) erfcx(w)
    rng = random.Random(2727 + digits)
    ctx = PrecisionContext(digits=digits)
    mctx = ctx.mp()
    tol = mctx.mpf(10) ** (1 - digits)
    for i in range(12):
        m = 0 if i % 4 == 0 else rng.randint(0, GAMMA_RECURRENCE_CAP)
        theta = mctx.mpf(rng.uniform(0, 0.45) if i else 0) * mctx.pi
        arg = VoigtArgument.from_polar(rng.uniform(3, 14.1), theta, ctx)
        w = mctx.mpc(arg.y, arg.x)
        fraction = mctx.mpc(numerics.upper_incomplete_gamma_half_fraction(m, w, ctx))
        ladder = mctx.mpc(upper_incomplete_gamma_half_ladder(m, w, ctx))
        assert abs(fraction - ladder) <= tol * abs(ladder), (digits, m, w)
        if m == 0:
            want = mctx.sqrt(mctx.pi) * erfcx(w, mctx)
            assert abs(fraction - want) <= tol * abs(want), (digits, w)


def test_fraction_convergence_bounds_hold():
    # the two bounds the fraction's docstring cites, on its S-approximants
    # F_n summed at 60 digits: Henrici and Pfluger's |F - F_n| <= H |F_n -
    # F_{n-1}| (the stopping rule) and the Gragg-Warner product (the limit),
    # up to where F_n has converged to 10^-50, at the collar edge, on both
    # sides of theta = pi/4, and at small r
    ref = mp_context(60)
    for r, theta, m in ((14.2, math.pi / 2 - 0.05, 202), (3, 0.1 * math.pi, 250),
                        (30, 0.45 * math.pi, 901), (0.3, 0.2 * math.pi, 201)):
        w = ref.mpc(r * math.cos(theta), r * math.sin(theta))
        z, c, y = w * w, m + ref.mpf(1) / 2, r * math.cos(theta)
        F = ref.exp(z) * z ** (m - ref.mpf(1) / 2) * ref.gammainc(ref.mpf(1) / 2 - m, z)
        H = 1 if theta <= math.pi / 4 else 1 / math.sin(2 * theta)
        log_bound = math.log(2 / (r * y))
        A, A_prev, B, B_prev, F_prev = ref.mpf(0), ref.mpf(1), ref.mpf(1), ref.mpf(0), None
        for n in range(1, 20000):
            a, b = (1, z) if n == 1 else (c + n // 2 - 1, 1) if n % 2 == 0 else ((n - 1) // 2, z)
            A, A_prev, B, B_prev = b * A + a * A_prev, A, b * B + a * B_prev, B
            if n > 1:  # the S-coefficient alpha_{n-1} is c + j - 1 or j
                alpha = c + (n - 2) // 2 if n % 2 == 0 else (n - 1) // 2
                s = math.sqrt(1 + 4 * float(alpha) / y ** 2)
                log_bound += math.log((s - 1) / (s + 1))
            F_n = A / B
            err = abs(F - F_n)
            if err <= ref.mpf(10) ** -50 * abs(F):
                break
            assert float(ref.log(err)) <= log_bound, (r, theta, m, n)
            if F_prev is not None:
                assert err <= H * abs(F_n - F_prev), (r, theta, m, n)
            F_prev = F_n
        else:
            raise AssertionError("no convergence at r = %s" % r)


def test_gamma_widening_lands_on_few_precisions():
    # every widened precision is cached for good, so the widening is rounded
    # up to a multiple of 10 digits, and it never drops below the loss it is
    # sized by. At the optimal cut m = |z| + 1/2 rounded down, the loss is
    # about |z| log10(e), and the widening is within one step of the rule
    # digits + |z| log10(e) + 10 of an mpc sweep
    rng = random.Random(1403)
    seen = set()
    digits = 40
    for _ in range(200):
        absz = rng.uniform(9, 64)
        m = int(absz + 0.5)
        loss = numerics._sweep_loss(m, math.log2(absz))
        assert abs(loss - absz * math.log10(math.e)) < 0.5
        widened = _gamma_widening(loss, digits)
        assert widened >= digits + math.ceil(loss) + 10
        assert (widened - digits) % 10 == 0
        old = digits + numerics.round_widening(math.ceil(absz * math.log10(math.e)) + 10)
        assert old - 10 <= widened <= old
        seen.add(widened)
    assert len(seen) <= 8


def test_gamma_sweep_loss_follows_the_order_not_the_modulus():
    # far below the optimal cut the sweep loses 5 log10(2|z|) - log10(945)
    # digits at m = 5: 23.5 at |z| = 1e5 and 2998.5 at |z| = 1e600, where
    # the rule |z| log10(e) asked for 43,430 digits and then overflowed a
    # float. Past the cut only the smallness of |u_m| ~ |z|/m is added
    for log2_z, want in ((math.log2(1e5), 23.53), (2 * math.log2(1e300), 2998.53)):
        assert abs(numerics._sweep_loss(5, log2_z) - want) < 0.01
    assert abs(numerics._sweep_loss(200, math.log2(0.25)) - math.log10(200.5 / 0.25)) < 1e-9


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
            upper_incomplete_gamma_half_ladder(5, z, ctx40),
            upper_incomplete_gamma_half_ladder(5, z, ctx60),
        ),
        (
            integrate_semi_infinite(poly_exp(ctx40.mp()), ctx40).value,
            integrate_semi_infinite(poly_exp(ctx60.mp()), ctx60).value,
        ),
    ]
    for v40, v60 in pairs:
        diff = abs(mctx.mpc(v40) - mctx.mpc(v60))
        assert diff <= mctx.mpf(10) ** (-37) * abs(mctx.mpc(v60))


# ---------------------------------------------------------------- constants

def test_context_constants_equal_a_fresh_computation():
    # one table per mpmath context, computed once: at 16, 40, 100 and 250
    # digits and in a widened context, every entry equals the number the
    # callers used to recompute on each call
    numerics._constants.cache_clear()
    contexts = []
    for digits in (16, 40, 100, 250):
        ctx = PrecisionContext(digits=digits)
        contexts += [(ctx, ctx.mp()), (ctx, ctx.mp(extra=30))]
    for ctx, mctx in contexts:
        got = numerics._constants(mctx)
        assert numerics._constants(mctx) is got
        pi, ten = mctx.pi, mctx.mpf(10)
        assert got.sqrt_pi == mctx.sqrt(pi) and got.sqrt_2pi == mctx.sqrt(2 * pi)
        assert got.sqrt2 == mctx.sqrt(2) and got.three_halves == mctx.mpq(3, 2)
        digits = mctx.dps - numerics.GUARD_DIGITS
        assert got.eps == ten ** (1 - digits)
        assert got.phi_max == pi * (1 + ten ** (-10))
        half_collar = mctx.mpf(1) / 2 - mctx.mpf(numerics.THETA_COLLAR_OVER_PI)
        assert got.collar == pi * half_collar + ten ** (-12)
        assert got.stokes_warn == pi * mctx.mpf(numerics.STOKES_WARN_OVER_PI)
        # PrecisionContext.eps reads the table of its own working context
        assert ctx.eps() is numerics._constants(ctx.mp()).eps
    assert numerics._constants.cache_info().currsize == len(contexts)
