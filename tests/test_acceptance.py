"""Acceptance gate: the eight headline guarantees of the package.

Each test prints exactly one ``ACCEPTANCE n (<name>): PASS|FAIL`` line
before asserting, so running with ``pytest tests/test_acceptance.py -v -s``
yields a complete verdict report even when something breaks.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from voigt_asym import tables
from voigt_asym.cli import _check_cells, _table1_cells, _table2_cells
from coefficient_reference import B_LIMIT_POLYNOMIALS, CJK_TABLE, STIRLING_GAMMA, pochhammer
from quadrature_reference import voigt_fourier
from voigt_asym.coefficients import K_MAX, _laplace_tables, _stokes_limits, coefficient_set
from voigt_asym.expansions import (
    algebraic_partial_sums,
    optimal_truncation,
    terminant_asymptotic,
    theorem1,
    theorem2,
)
from voigt_asym.oracle import (
    VoigtArgument,
    remainder_exact,
    voigt_exact_erfc,
    voigt_quadrature,
)


def _verdict(n: int, name: str, ok: bool) -> bool:
    print("ACCEPTANCE %d (%s): %s" % (n, name, "PASS" if ok else "FAIL"))
    return ok


def test_acceptance_1_nine_digit_remainder_table(ctx40):
    t0 = time.perf_counter()
    rows, foot, _ = _table1_cells(ctx40)
    elapsed = time.perf_counter() - t0

    computed = dict(rows)
    expected = dict(tables.TABLE1_ROWS)
    computed["exact"] = foot
    expected["exact"] = tables.TABLE1_FOOT
    mismatches = _check_cells(
        computed, expected, tables.TABLE1_SIG,
        lambda key, i: "row %s col %d" % (key, i),
    )
    ok = not mismatches and elapsed < 30.0
    assert _verdict(1, "nine-digit remainder table under 30 s", ok), (
        "elapsed %.1f s; %s" % (elapsed, mismatches or "all 24 cells matched")
    )


def test_acceptance_2_four_digit_error_map(ctx40):
    t0 = time.perf_counter()
    rows, _ = _table2_cells(ctx40)
    elapsed = time.perf_counter() - t0

    mismatches = _check_cells(
        rows, tables.TABLE2_ROWS, tables.TABLE2_SIG,
        lambda key, i: "theta/pi=%s col %d" % (key, i),
    )
    ok = not mismatches and elapsed < 60.0
    assert _verdict(2, "four-digit error map under 60 s", ok), (
        "elapsed %.1f s; %s" % (elapsed, mismatches or "all 26 cells matched")
    )


def test_acceptance_3_exact_decomposition_all_orders(ctx40):
    mctx = ctx40.mp()
    rng = random.Random(733)
    worst = mctx.mpf(0)
    for _ in range(10):
        r = 2 + 4 * rng.random()
        frac = rng.random() / 2
        arg = VoigtArgument.from_polar(r, mctx.mpf(frac) * mctx.pi, ctx40)
        exact = voigt_exact_erfc(arg, ctx40)
        scale = abs(exact.K) + abs(exact.L)
        m_top = math.ceil(2 * r * r)
        for m in range(1, m_top + 1):
            sums = algebraic_partial_sums(arg, m, ctx40)
            rem = remainder_exact(arg, m, ctx40)
            gap = abs(sums.K + rem.K - exact.K) + abs(sums.L + rem.L - exact.L)
            worst = max(worst, gap / scale)
    ok = worst < mctx.mpf(10) ** (-25)
    assert _verdict(3, "exact decomposition at every truncation order", ok), (
        "worst relative reconstruction gap %s" % mctx.nstr(worst, 3)
    )


def test_acceptance_4_coefficients_from_reversion():
    # the run-time tables, built by the series reversion, against the
    # published gamma_k and c_{j,k}: exact Fraction equality
    gamma, rows = _laplace_tables()
    cjk = {(j, k): c for k in range(K_MAX + 1) for j, c in enumerate(rows[k], start=2)}
    published = {(j, k): c for k, row in CJK_TABLE.items() for j, c in row.items()}
    mismatches = [
        "gamma_%d: %s != %s" % (k, g, STIRLING_GAMMA[k])
        for k, g in enumerate(gamma) if g != STIRLING_GAMMA[k]
    ]
    mismatches += [
        "c_{%d,%d}: %s != %s" % (j, k, cjk.get((j, k)), c)
        for (j, k), c in sorted(published.items()) if cjk.get((j, k)) != c
    ]
    ok = not mismatches and len(gamma) == len(STIRLING_GAMMA) and set(cjk) == set(published)
    # structural identities tying the coefficient grid to its generators
    for k in range(1, 6):
        ok = ok and cjk[(2 * k, k)] == Fraction(2**k) * pochhammer(Fraction(1, 2), k)
        ok = ok and cjk[(2, k)] == (-1) ** (k - 1) * gamma[k - 1]
        if k >= 2:
            ok = ok and cjk[(3, k)] == 2 * (-1) ** k * gamma[k - 2]
    assert _verdict(4, "coefficient regeneration by series reversion", ok), (
        mismatches or "grid identities failed"
    )


def test_acceptance_5_terminant_half_value(ctx40):
    mctx = ctx40.mp()
    ok = True
    detail = []
    for absz in (9, 16, 25):
        z = mctx.mpf(absz) * mctx.expj(mctx.pi)
        T = terminant_asymptotic(z, absz + 0.5, "uniform", 2, ctx40)
        gap = abs(T - mctx.mpf(1) / 2)
        bound = mctx.mpf("1.5") / mctx.sqrt(absz)
        detail.append("|z|=%d gap %s" % (absz, mctx.nstr(gap, 3)))
        ok = ok and gap <= bound
    assert _verdict(5, "terminant approaches one half on the negative axis", ok), (
        "; ".join(detail)
    )


def test_acceptance_6_smoothed_matches_unsmoothed(ctx40):
    mctx = ctx40.mp()
    plan = optimal_truncation("6", ctx40)
    ok = True
    worst = mctx.mpf(0)
    for frac in ("0", "0.05", "0.1", "0.15", "0.2", "0.25", "0.3"):
        a = VoigtArgument.from_polar("6", mctx.mpf(frac) * mctx.pi, ctx40)
        e1 = theorem1(a, plan, 3, ctx40)
        e2 = theorem2(a, plan, 3, ctx40)
        # compare the combined complex remainder: either component alone
        # passes through zeros of the rotating phase, where its own
        # relative spread is meaningless
        d1 = mctx.mpc(e1.Khat, -e1.Lhat)
        d2 = mctx.mpc(e2.Khat, -e2.Lhat)
        rel = abs(d1 - d2) / abs(d1)
        worst = max(worst, rel)
        ok = ok and rel < mctx.mpf("1e-3")
    assert _verdict(6, "smoothed and unsmoothed forms agree off the axis", ok), (
        "worst relative spread %s" % mctx.nstr(worst, 3)
    )


def test_acceptance_7_axis_values_and_residual_scale(ctx40):
    mctx = ctx40.mp()
    tol = mctx.mpf(10) ** (-30)
    ok = True
    for xs in ("1", "2", "4"):
        for ys in ("1", "2", "4"):
            arg = VoigtArgument.from_xy(xs, ys, ctx40)
            ref = voigt_exact_erfc(arg, ctx40)
            for route in (voigt_quadrature, voigt_fourier):
                got = route(arg, ctx40)
                ok = ok and abs(got.K - ref.K) < tol
                ok = ok and abs(got.L - ref.L) < tol
    # on the imaginary axis the optimally-truncated residual scales like
    # exp(-y^2) / (y sqrt(2 pi)); demand the right size within a factor 3
    ratios = []
    for ys in ("3", "4", "5", "6"):
        arg = VoigtArgument.from_xy("0", ys, ctx40)
        plan = optimal_truncation(ys, ctx40)
        rem = remainder_exact(arg, plan.m, ctx40)
        y = mctx.mpf(ys)
        ratio = abs(rem.K) * y * mctx.exp(y * y) * mctx.sqrt(2 * mctx.pi)
        ratios.append(ratio)
        ok = ok and mctx.mpf(1) / 3 < ratio < 3
    assert _verdict(7, "oracle cross-checks and residual scaling", ok), (
        "scaling ratios %s" % ", ".join(mctx.nstr(q, 3) for q in ratios)
    )


def test_acceptance_8_limit_polynomials_stay_real(ctx40):
    # the phi -> 0 limits of B_2k are polynomials in alpha with rational
    # coefficients, so real: k <= 2 equal the published ones exactly, and
    # every order meets the closed form at phi = 1e-14 on a seeded grid
    limits = _stokes_limits()
    ok = len(limits) == K_MAX + 1
    ok = ok and all(isinstance(c, Fraction) for poly in limits for c in poly)
    ok = ok and all(limits[k] == poly for k, poly in B_LIMIT_POLYNOMIALS.items())
    rng = random.Random(808)
    worst = 0.0
    for _ in range(20):
        alpha = 1 - rng.random()  # (0, 1]
        on_line = coefficient_set(0, alpha, K_MAX, ctx40).B
        probe = coefficient_set("1e-14", alpha, K_MAX, ctx40).B
        worst = max(worst, max(float(abs(a - b)) for a, b in zip(on_line, probe)))
    assert _verdict(8, "limit coefficients stay real", ok and worst < 1e-12), (
        "largest distance to the closed form at phi = 1e-14: %.3g" % worst
    )
