"""Property tests: the reflection symmetry of the CLI output, the exact
decomposition K - iL = S_m + remainder, and the CLI exit-code contract on
arbitrary option strings for ``eval``, ``coeffs`` and ``scan``.

Hypothesis runs derandomized and keeps no example database, so every run
draws the same cases and no failure is replayed from an earlier one.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from voigt_asym import (
    BelowAsymptoticRangeWarning,
    PrecisionContext,
    StokesCollarWarning,
    VoigtArgument,
    algebraic_partial_sums,
    mp_context,
    remainder_exact,
    voigt_exact_erfc,
)
from voigt_asym.cli import EXIT_DOMAIN, EXIT_OK, EXIT_PRECISION, EXIT_USAGE, main

deterministic = settings(derandomize=True, database=None, deadline=None)


def _decimal(exponents, signs=("", "-")):
    # a decimal string d.ddde<exp>, whose exponent sets the scale
    return st.builds(
        "{}{}.{}e{}".format,
        st.sampled_from(signs),
        st.integers(0, 9),
        st.integers(0, 10 ** 6),
        exponents,
    )


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BelowAsymptoticRangeWarning)
            warnings.simplefilter("ignore", StokesCollarWarning)
            rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def _eval(*argv):
    return _run("eval", *argv)


# --------------------------------------------------------------- reflections

@settings(deterministic, max_examples=12)
@given(
    x=_decimal(st.integers(-1, 1), signs=("",)),
    y=_decimal(st.integers(-1, 1), signs=("",)),
    method=st.sampled_from(("oracle", "algebraic", "theorem1", "theorem2")),
)
def test_reflections_negate_K_with_y_and_L_with_x(x, y, method):
    # K is odd in y and even in x, L odd in x and even in y; the point, the
    # cut and every other printed field stay as they are
    mctx = mp_context(50)
    base = _eval("--x=" + x, "--y=" + y, "--method", method)
    for sx in ("", "-"):
        for sy in ("", "-"):
            got = _eval("--x=" + sx + x, "--y=" + sy + y, "--method", method)
            assert got[0] == base[0], (sx, sy)
            if base[0] != EXIT_OK:
                assert got[2] == base[2]
                continue
            rec, want = json.loads(got[1]), json.loads(base[1])
            # -0 is 0: a zero coordinate flips nothing
            flip_x = -1 if sx and mctx.mpf(x) else 1
            flip_y = -1 if sy and mctx.mpf(y) else 1
            for field, flip in (("K", flip_y), ("L", flip_x), ("x", flip_x), ("y", flip_y)):
                assert mctx.mpf(rec.pop(field)) == flip * mctx.mpf(want.pop(field)), field
            assert rec == want


# ------------------------------------------------------------ decomposition

@st.composite
def _cuts(draw):
    r = draw(st.floats(1, 8))
    theta_over_pi = draw(st.floats(0, 0.5))
    m = draw(st.integers(0, math.floor(3 * r * r) + 5))
    return "%.6f" % r, "%.6f" % theta_over_pi, m


@settings(deterministic, max_examples=25)
@given(cut=_cuts())
@example(cut=("1.000000", "0.500000", 0))
@example(cut=("8.000000", "0.000000", 197))
def test_partial_sum_plus_exact_remainder_is_the_function(cut):
    # K - iL = S_m + (hat-K - i hat-L) at every cut m, to the 1e-25
    # relative gap of Acceptance 3, on and off the Stokes line
    r, theta_over_pi, m = cut
    ctx = PrecisionContext(digits=40)
    mctx = ctx.mp()
    arg = VoigtArgument.from_polar(r, mctx.mpf(theta_over_pi) * mctx.pi, ctx)
    exact = voigt_exact_erfc(arg, ctx)
    sums = algebraic_partial_sums(arg, m, ctx)
    rem = remainder_exact(arg, m, ctx, route="gamma")
    gap = abs(sums.K + rem.K - exact.K) + abs(sums.L + rem.L - exact.L)
    assert gap < mctx.mpf(10) ** (-25) * (abs(exact.K) + abs(exact.L))


# ------------------------------------------------------------- exit codes

_coordinate = st.one_of(
    _decimal(st.integers(-700, 700)),
    st.sampled_from(("0", "nan", "-nan", "inf", "-inf", "1e", "--", "x", "")),
)


def _answered(rc, err) -> bool:
    # a documented exit code and no traceback; True when the run answered.
    # An uncaught exception, a traceback from the console script, fails the
    # calling test on its own
    assert rc in (EXIT_OK, EXIT_DOMAIN, EXIT_PRECISION, EXIT_USAGE), (rc, err)
    assert "Traceback" not in err
    return rc == EXIT_OK


def _finite(*values):
    mctx = mp_context(50)
    for v in values:
        assert mctx.isfinite(mctx.mpf(v)), v


@settings(deterministic, max_examples=60)
@given(
    x=_coordinate,
    y=_coordinate,
    method=st.sampled_from(("algebraic", "theorem1", "theorem2")),
    k_terms=st.integers(1, 5),
)
def test_eval_answers_or_refuses_by_exit_code(x, y, method, k_terms):
    # every coordinate pair, past the 2^+-2048 bound and not a number at all
    # included, ends in a finite answer or a documented exit code
    rc, out, err = _eval("--x=" + x, "--y=" + y, "--method", method, "--k-terms", str(k_terms))
    if _answered(rc, err):
        rec = json.loads(out)
        _finite(rec["K"], rec["L"], rec["err_estimate"])


# Draw bounds, for run time: precision at most 120 digits and m at most 400
# terms (a cut past the least term sums all m); the quadrature method, which
# takes seconds past 100 digits, is not drawn.
@settings(deterministic, max_examples=40)
@given(
    x=_decimal(st.integers(-1, 1)),
    y=_decimal(st.integers(-1, 1)),
    method=st.sampled_from(("oracle", "algebraic", "theorem1", "theorem2")),
    m=st.integers(-3, 400),
    precision=st.integers(-2, 120),
)
def test_eval_with_cut_and_precision_answers_or_refuses(x, y, method, m, precision):
    rc, out, err = _eval(
        "--x=" + x, "--y=" + y, "--method", method, "--m=%d" % m, "--precision=%d" % precision
    )
    if _answered(rc, err):
        rec = json.loads(out)
        _finite(rec["K"], rec["L"], rec["err_estimate"])


# Draw bounds, for run time: a drawn phi is at least 1e-60, so the widening,
# (2 kmax + 3) log10(PHI_SWITCH/phi) digits, stays under 800; the sampled
# 1e-20000 is refused before any widening.
@settings(deterministic, max_examples=60)
@given(
    phi=st.one_of(
        _decimal(st.integers(-60, 0), signs=("",)),
        st.sampled_from(("0", "-0", "-0.5", "3.14159265358979", "3.1416", "1e-20000",
                         "nan", "inf", "")),
    ),
    alpha=st.one_of(
        _decimal(st.integers(-3, 3)),
        st.sampled_from(("0", "1e700", "nan", "inf", "-inf", "x")),
    ),
    kmax=st.sampled_from(("-1", "0", "1", "2", "3", "4", "5", "6", "", "x", "2.5")),
)
def test_coeffs_answers_or_refuses_by_exit_code(phi, alpha, kmax):
    rc, out, err = _run(
        "coeffs", "--phi=" + phi, "--alpha=" + alpha, "--kmax=" + kmax, "--format", "json"
    )
    if _answered(rc, err):
        rec = json.loads(out)
        pairs = [rec["c"]] + [c[name] for c in rec["coefficients"] for name in ("A", "B", "Bhat")]
        for pair in pairs:
            if pair is not None:  # A is singular at phi = 0
                _finite(pair["re"], pair["im"])


# Draw bounds, for run time: r below 1000 besides the sampled 1e300, and at
# most 5 angles; past r = 14.1 an eq42 scan runs quadrature at every angle
# before the Stokes line refuses the gamma ladder's depth (exit 2).
@settings(deterministic, max_examples=40)
@given(
    r=st.one_of(
        _decimal(st.integers(-3, 2), signs=("",)),
        st.sampled_from(("0", "-3", "14.1", "14.2", "20", "1e300", "nan", "inf", "")),
    ),
    n=st.integers(-1, 5),
    variant=st.sampled_from(("eq41", "eq42")),
)
def test_scan_answers_or_refuses_by_exit_code(r, n, variant):
    rc, out, err = _run("scan", "--r=" + r, "--n=%d" % n, "--variant", variant)
    if _answered(rc, err):
        header, *rows = out.splitlines()
        assert header == "theta_over_pi,rel_err_K,rel_err_L"
        for row in rows:
            theta_over_pi, rel_K, rel_L = row.split(",")
            # L vanishes identically at theta = 0, where its error is nan
            _finite(theta_over_pi, rel_K, *([rel_L] if float(theta_over_pi) else []))
