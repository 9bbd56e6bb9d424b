"""Command-line front end tests, run in process through ``main``: output
formats, the documented exit-code contract, determinism, and the golden-table
check paths."""

from __future__ import annotations

import json
import re
import warnings
from pathlib import Path

import pytest
from mpmath.ctx_mp import MPContext

import voigt_asym.cli as cli
from voigt_asym import (
    BelowAsymptoticRangeWarning,
    DomainError,
    PrecisionContext,
    PrecisionError,
    TruncationPlan,
    VoigtArgument,
    mp_context,
    remainder_exact,
    tables,
    terminant_asymptotic,
)
from voigt_asym.cli import (
    EXIT_CHECK_FAILED,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_PRECISION,
    EXIT_USAGE,
    format_mantissa_exp,
    main,
)
from voigt_asym.numerics import (
    GAMMA_RECURRENCE_CAP,
    upper_incomplete_gamma_half_fraction,
    upper_incomplete_gamma_half_ladder,
)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -------------------------------------------------------------- formatting

def test_mantissa_format_basic():
    mctx = mp_context(30)
    assert format_mantissa_exp(mctx.mpf("1.73161445e-7"), 9) == "+1.73161445(-7)"
    assert format_mantissa_exp(mctx.mpf("-1.30410848e-6"), 9) == "-1.30410848(-6)"
    assert format_mantissa_exp(mctx.mpf("5.12"), 4, signed=False) == "5.120(+0)"


def test_mantissa_format_edge_cases():
    mctx = mp_context(30)
    # rounding across a decade renormalizes the mantissa
    assert format_mantissa_exp(mctx.mpf("0.99999"), 3) == "+1.00(+0)"
    assert format_mantissa_exp(0, 5) == "+0.0000(+0)"
    assert format_mantissa_exp(mctx.mpf("2.861e-6"), 4, signed=False) == "2.861(-6)"


# -------------------------------------------------------------------- eval

def test_eval_oracle_imaginary_axis(capsys):
    rc, out, err = run(capsys, "eval", "--x", "0", "--y", "1")
    assert rc == EXIT_OK
    rec = json.loads(out)
    mctx = mp_context(50)
    want = mctx.e * mctx.erfc(1)
    assert abs(mctx.mpf(rec["K"]) - want) < mctx.mpf(10) ** (-38)
    assert mctx.mpf(rec["L"]) == 0
    assert rec["method"] == "oracle"
    assert rec["alpha"] is None


def test_eval_oracle_real_axis(capsys):
    rc, out, _ = run(capsys, "eval", "--x", "1", "--y", "0")
    assert rc == EXIT_OK
    rec = json.loads(out)
    mctx = mp_context(50)
    assert abs(mctx.mpf(rec["K"]) - mctx.exp(-1)) < mctx.mpf(10) ** (-38)


def test_eval_polar_matches_cartesian(capsys):
    mctx = mp_context(50)
    rc1, out1, _ = run(capsys, "eval", "--r", "3.5", "--theta-over-pi", "0.1")
    rc2, out2, _ = run(
        capsys, "eval",
        "--x", mctx.nstr(mctx.mpf("3.5") * mctx.sin(mctx.pi / 10), 45),
        "--y", mctx.nstr(mctx.mpf("3.5") * mctx.cos(mctx.pi / 10), 45),
    )
    assert rc1 == rc2 == EXIT_OK
    K1 = mctx.mpf(json.loads(out1)["K"])
    K2 = mctx.mpf(json.loads(out2)["K"])
    assert abs(K1 - K2) < mctx.mpf(10) ** (-36) * abs(K1)


def test_eval_negative_arguments_reduce(capsys):
    rc, out, _ = run(capsys, "eval", "--x", "-2", "--y", "3")
    assert rc == EXIT_OK
    rec = json.loads(out)
    rc2, out2, _ = run(capsys, "eval", "--x", "2", "--y", "3")
    base = json.loads(out2)
    assert rec["K"] == base["K"]
    mctx = mp_context(50)
    assert mctx.mpf(rec["L"]) == -mctx.mpf(base["L"])


def test_eval_theorem_methods_track_oracle(capsys):
    mctx = mp_context(50)
    rc0, out0, _ = run(capsys, "eval", "--x", "2", "--y", "3")
    K_exact = mctx.mpf(json.loads(out0)["K"])
    for method in ("theorem1", "theorem2", "algebraic"):
        rc, out, _ = run(capsys, "eval", "--x", "2", "--y", "3", "--method", method)
        assert rc == EXIT_OK
        rec = json.loads(out)
        assert rec["m"] is not None and rec["alpha"] is not None
        err = mctx.mpf(rec["err_estimate"])
        assert abs(mctx.mpf(rec["K"]) - K_exact) <= err


def test_eval_far_out_returns_finite(capsys):
    # the optimal cut m = r^2 is 1e800 terms at x = 1e400 and 90,004 at
    # x = 300; the partial sum and the algebraic error estimate must both
    # finish and stay finite
    mctx = mp_context(50)
    for x, method in (("1e400", "theorem2"), ("300", "algebraic"), ("1e30", "theorem2")):
        rc, out, err = run(capsys, "eval", "--x", x, "--y", "2", "--method", method)
        assert rc == EXIT_OK, err
        rec = json.loads(out)
        K, L = mctx.mpf(rec["K"]), mctx.mpf(rec["L"])
        assert mctx.isfinite(K) and mctx.isfinite(L) and L > 0, (x, method)
        assert 0 < mctx.mpf(rec["alpha"]) <= 1, (x, method)
        if x == "300":
            _, out0, _ = run(capsys, "eval", "--x", x, "--y", "2")
            want = mctx.mpc(*(mctx.mpf(json.loads(out0)[k]) for k in ("K", "L")))
        else:
            # two terms of the asymptotic series leave 10^-120 relative
            w = mctx.mpc(2, x)
            v = (1 - 1 / (2 * w * w)) / (w * mctx.sqrt(mctx.pi))
            want = mctx.mpc(v.real, -v.imag)
        assert abs(K - want.real) <= mctx.mpf(10) ** (-38) * K
        assert abs(L - want.imag) <= mctx.mpf(10) ** (-38) * L


def test_eval_off_the_stokes_line_at_huge_x(capsys):
    # phi = 2 atan2(2, 1e60) = 4e-60 is not the Stokes line: theorem2 reads
    # the widened closed form there, at every order
    rc, out, err = run(capsys, "eval", "--x", "1e60", "--y", "2", "--method", "theorem2",
                       "--k-terms", "5")
    assert rc == EXIT_OK, err
    assert json.loads(out)["k_terms"] == 5


def test_eval_algebraic_estimate_covers_rounding(capsys):
    # at x = 300 the first omitted term and e^{-r^2} are near 10^-39089;
    # the sum's own rounding, about 10^-45 relative, has to be in the estimate
    mctx = mp_context(70)
    rc, out, err = run(capsys, "eval", "--x", "300", "--y", "2", "--method", "algebraic")
    assert rc == EXIT_OK, err
    rec = json.loads(out)
    _, out_ref, _ = run(capsys, "eval", "--x", "300", "--y", "2", "--precision", "60")
    ref = json.loads(out_ref)
    gap = sum(abs(mctx.mpf(rec[k]) - mctx.mpf(ref[k])) for k in ("K", "L"))
    assert 0 < gap <= mctx.mpf(rec["err_estimate"])


def test_eval_warns_once_below_asymptotic_range(capsys):
    # the truncation plan is built once per evaluation, and with it the
    # below-range warning
    for method in ("theorem1", "theorem2", "algebraic"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, out, err = run(capsys, "eval", "--r", "0.5", "--theta-over-pi", "0.1",
                               "--method", method)
        assert rc == EXIT_OK, err
        assert [w.category for w in caught] == [BelowAsymptoticRangeWarning], method


def test_eval_formats(capsys):
    rc, out, _ = run(capsys, "eval", "--x", "1", "--y", "2", "--format", "csv")
    assert rc == EXIT_OK
    header, row = out.strip().splitlines()
    assert header.startswith("x,y,r,theta_over_pi,method,K,L,err_estimate")
    assert ",oracle," in "," + row + ","
    rc, out, _ = run(capsys, "eval", "--x", "1", "--y", "2", "--format", "table")
    assert rc == EXIT_OK
    assert "(" in out  # mantissa(exponent) rendering of K


def test_eval_json_round_trip(capsys):
    rc, out, _ = run(capsys, "eval", "--r", "4", "--theta-over-pi", "0.3",
                     "--method", "theorem2")
    assert rc == EXIT_OK
    rec = json.loads(out)
    assert list(rec) == [
        "x", "y", "r", "theta_over_pi", "method", "K", "L",
        "err_estimate", "k_terms", "m", "alpha",
    ]
    mctx = mp_context(50)
    for key in ("x", "y", "r", "theta_over_pi", "K", "L", "err_estimate", "alpha"):
        mctx.mpf(rec[key])  # every numeric field parses as a decimal string
    assert isinstance(rec["k_terms"], int) and isinstance(rec["m"], int)


def test_determinism_byte_identical(capsys):
    args = ("eval", "--r", "5", "--theta-over-pi", "0.37", "--method", "theorem2")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == EXIT_OK
    assert out1 == out2


# ------------------------------------------------------------------ tables

def test_table1_check_passes(capsys):
    rc, out, err = run(capsys, "table1", "--check")
    assert rc == EXIT_OK, err
    assert "+1.73161445(-7)" in out  # the exact-value foot row


def test_table2_check_passes(capsys):
    rc, out, err = run(capsys, "table2", "--check")
    assert rc == EXIT_OK, err
    assert "5.1" in out and "(+0)" in out  # the collar blow-up cell
    assert " -" in out  # undefined relative-error cells render as dashes


def test_table1_csv_shape(capsys):
    rc, out, _ = run(capsys, "table1", "--format", "csv")
    assert rc == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 7  # header, five k-rows, exact foot
    assert lines[0].split(",")[0] == "k"


def test_table2_csv_shape(capsys):
    rc, out, _ = run(capsys, "table2", "--format", "csv")
    assert rc == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 8  # header plus seven angle rows
    assert lines[1].split(",")[0] == "0"


@pytest.mark.parametrize("table", ["table1", "table2"])
def test_table_json_cells_equal_csv_cells(capsys, table):
    # the JSON rows carry the CSV cells, a JSON null where the CSV has a
    # dash; table1's exact foot is its last CSV row
    rc, out, _ = run(capsys, table, "--format", "json")
    assert rc == EXIT_OK
    payload = json.loads(out)
    rows = [row["cells"] for row in payload["rows"]]
    if table == "table1":
        rows.append(payload["exact"])
    rc, out, _ = run(capsys, table, "--format", "csv")
    assert rc == EXIT_OK
    csv_rows = [line.split(",")[1:] for line in out.strip().splitlines()[1:]]
    assert [["-" if c is None else c for c in row] for row in rows] == csv_rows


@pytest.mark.parametrize("table, key, cell, name", [
    ("table1", 3, 0, "table1 k=2 Khat@0.1"),
    ("table2", "0.20", 2, "table2 theta/pi=0.20 eq42 Khat"),
])
def test_table_check_names_each_mismatched_cell(capsys, monkeypatch, table, key, cell, name):
    # one frozen cell off by far more than its last digit: --check exits 1
    # and writes one stderr line, naming that cell
    attr = table.upper() + "_ROWS"
    rows = dict(getattr(tables, attr))
    wrong = list(rows[key])
    wrong[cell] = "1.000e-1"
    rows[key] = tuple(wrong)
    monkeypatch.setattr(tables, attr, rows)
    rc, _, err = run(capsys, table, "--check")
    assert rc == EXIT_CHECK_FAILED
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(name + ": computed"), err


def test_tables_build_one_coefficient_pass_per_point(capsys, coefficient_pass):
    # table1 runs five orders at each of its two angles, table2 both
    # estimates at each of its seven: one pass per point either way
    for table, passes in (("table1", 2), ("table2", 7)):
        coefficient_pass.cache_clear()
        assert run(capsys, table)[0] == EXIT_OK
        assert coefficient_pass.cache_info().misses == passes, table


# -------------------------------------------------------------------- scan

def test_scan_eq42_endpoints(capsys):
    rc, out, _ = run(capsys, "scan", "--r", "6", "--n", "2")
    assert rc == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "theta_over_pi,rel_err_K,rel_err_L"
    assert len(lines) == 3
    first = lines[1].split(",")
    # the uniform estimate at theta = 0 reproduces the frozen 5.785e-7 cell
    assert abs(float(first[1]) - 5.785e-7) < 0.002e-7
    assert first[2] == "nan"  # x = 0 leaves the L error undefined
    last = lines[2].split(",")
    assert float(last[0]) == 0.5


def test_scan_eq41_grid_stops_at_collar(capsys):
    rc, out, _ = run(capsys, "scan", "--r", "6", "--n", "4", "--variant", "eq41")
    assert rc == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert float(lines[-1].split(",")[0]) == 0.48
    # accuracy collapses entering the collar: the frozen 5.120 cell
    assert abs(float(lines[-1].split(",")[1]) - 5.120) < 0.002


def test_scan_past_the_ladder_cap(capsys):
    # eq41 stops short of the collar, so past the cap (m = 400 at r = 20,
    # 10^40 at r = 1e20) every row is Legendre's fraction; the default
    # scan reaches the Stokes line, where the ladder refuses m = 225
    for r in ("20", "1e20"):
        rc, out, _ = run(capsys, "scan", "--r", r, "--n", "3", "--variant", "eq41")
        assert rc == EXIT_OK, r
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 3 and all(float(v) < 1 for row in rows for v in row[1:] if v != "nan")
    rc, out, err = run(capsys, "scan", "--r", "15", "--n", "3")
    assert rc == EXIT_DOMAIN and out == ""
    assert "exceeds the configured cap" in err


@pytest.mark.parametrize("name, argv", [
    ("table2.csv", ("table2", "--format", "csv")),
    ("scan_r6_n11.csv", ("scan", "--r", "6", "--n", "11")),
    ("scan_r14.1_n5_p100.csv", ("scan", "--r", "14.1", "--n", "5", "--precision", "100")),
])
def test_stdout_matches_golden_bytes(capsys, name, argv):
    # stdout byte for byte against frozen files in tests/golden: a change
    # that moves any printed digit of a table or an exact-remainder scan,
    # the deepest ladder (m = 199) at 100 digits included, fails here
    rc, out, _ = run(capsys, *argv)
    assert rc == EXIT_OK
    assert out.encode() == (Path(__file__).parent / "golden" / name).read_bytes()


def test_scan_rejects_degenerate_grid(capsys):
    rc, _, err = run(capsys, "scan", "--r", "6", "--n", "1")
    assert rc == EXIT_USAGE
    assert "usage error" in err


# ------------------------------------------------------------------ coeffs

def test_coeffs_near_stokes_line(capsys):
    rc, out, _ = run(capsys, "coeffs", "--phi", "3.141592653589793", "--alpha",
                     "0.25", "--kmax", "1", "--format", "json")
    assert rc == EXIT_OK
    payload = json.loads(out)
    a2 = payload["coefficients"][1]["A"]
    # A_2(pi, 1/4) = 1/12 + 1/32
    assert abs(float(a2["re"]) - (1 / 12 + 0.03125)) < 1e-12
    assert abs(float(a2["im"])) < 1e-12


def test_coeffs_at_phi_zero(capsys):
    rc, out, _ = run(capsys, "coeffs", "--phi", "0", "--alpha", "0.25",
                     "--kmax", "0", "--format", "json")
    assert rc == EXIT_OK
    payload = json.loads(out)
    row = payload["coefficients"][0]
    assert row["A"] is None  # singular there
    assert abs(float(row["B"]["re"]) - (2 / 3 - 0.25)) < 1e-12
    assert float(payload["c"]["re"]) == 0


def test_coeffs_table_marks_singularity(capsys):
    rc, out, _ = run(capsys, "coeffs", "--phi", "0", "--alpha", "0.5")
    assert rc == EXIT_OK
    assert "(singular at phi = 0)" in out


def test_coeffs_at_alpha_zero(capsys):
    rc, out, _ = run(capsys, "coeffs", "--phi", "1", "--alpha", "0",
                     "--kmax", "5", "--format", "json")
    assert rc == EXIT_OK
    rows = json.loads(out)["coefficients"]
    assert rows[0]["A"] == {"re": "1.0", "im": "0.0"}
    assert len(rows) == 6


def test_coeffs_phi_below_float_range(capsys):
    # a phi that underflows as a float still sizes its widening, from the
    # exponent of the mpf; the B limits are approached to O(phi)
    rc, out, err = run(capsys, "coeffs", "--phi", "1e-400", "--alpha", "0.5",
                       "--kmax", "5", "--format", "json")
    assert rc == EXIT_OK, err
    assert "Traceback" not in err
    rows = json.loads(out)["coefficients"]
    assert len(rows) == 6
    mctx = mp_context(20)  # A_2k ~ phi^{-2k} overflows a float
    for row in rows:
        for name in ("A", "B", "Bhat"):
            for part in row[name].values():
                assert mctx.isfinite(mctx.mpf(part))
    assert abs(float(rows[0]["B"]["re"]) - (2 / 3 - 0.5)) < 1e-12


def test_coeffs_order_cap(capsys):
    rc, _, err = run(capsys, "coeffs", "--phi", "1", "--alpha", "0.5",
                     "--kmax", "6")
    assert rc == EXIT_DOMAIN
    assert "domain error" in err
    # at phi = 0 every order up to 5 answers with a real limit, and past
    # it the refusal is the same
    rc, out, err = run(capsys, "coeffs", "--phi", "0", "--alpha", "0.5",
                       "--kmax", "5", "--format", "json")
    assert rc == EXIT_OK, err
    rows = json.loads(out)["coefficients"]
    assert len(rows) == 6
    assert all(float(row["B"]["im"]) == 0 for row in rows)
    rc, _, err = run(capsys, "coeffs", "--phi", "0", "--alpha", "0.5",
                     "--kmax", "6")
    assert rc == EXIT_DOMAIN
    assert "domain error" in err


# -------------------------------------------------------------- exit codes

def test_usage_errors(capsys):
    cases = [
        ("eval", "--x", "1"),  # half a cartesian point
        ("eval", "--x", "1", "--y", "2", "--r", "3", "--theta-over-pi", "0.1"),
        ("eval", "--r", "3"),  # half a polar point
        ("eval", "--x", "1", "--y", "notanumber"),
        ("eval", "--x", "1", "--y", "2", "--method", "simpson"),
    ]
    for argv in cases:
        rc, _, err = run(capsys, *argv)
        assert rc == EXIT_USAGE, argv
        assert "usage error" in err


def test_domain_errors(capsys):
    cases = [
        ("eval", "--r", "6", "--theta-over-pi", "0.49", "--method", "theorem1"),
        ("eval", "--x", "1", "--y", "2", "--precision", "10"),  # below floor
        ("eval", "--r", "0", "--theta-over-pi", "0.2", "--method", "theorem2"),
    ]
    for argv in cases:
        rc, _, err = run(capsys, *argv)
        assert rc == EXIT_DOMAIN, argv
        assert "domain error" in err


CTX = PrecisionContext(digits=16)
ORIGIN = VoigtArgument.from_xy(0, 0, CTX)


@pytest.mark.parametrize("call, error, match, argv", [
    (lambda: VoigtArgument.from_polar(-1, 1, CTX), DomainError, "radius must be nonnegative",
     ("eval", "--r", "-1", "--theta-over-pi", "0.2")),
    (lambda: VoigtArgument.from_polar(3, 2, CTX), DomainError, r"theta must lie in \[0, pi/2\]",
     ("eval", "--r", "3", "--theta-over-pi", "0.7")),
    (lambda: VoigtArgument.from_polar(3, -0.3, CTX), DomainError, r"theta must lie in \[0, pi/2\]",
     ("eval", "--r", "3", "--theta-over-pi", "-0.1")),
    (lambda: remainder_exact(ORIGIN, 3, CTX), DomainError, "undefined at the origin", None),
    (lambda: upper_incomplete_gamma_half_ladder(-1, 1, CTX), DomainError,
     "m_max must be nonnegative", None),
    (lambda: upper_incomplete_gamma_half_ladder(GAMMA_RECURRENCE_CAP + 1, 1, CTX), DomainError,
     "exceeds the configured cap", None),
    (lambda: upper_incomplete_gamma_half_ladder(3, 0, CTX), DomainError, "finite w != 0", None),
    (lambda: upper_incomplete_gamma_half_fraction(-1, CTX.mp().mpc(1, 1), CTX), DomainError,
     "the fraction needs m >= 0", None),
    (lambda: upper_incomplete_gamma_half_fraction(300, CTX.mp().mpc(0, 15), CTX), DomainError,
     "y > 0", None),
    (lambda: TruncationPlan.for_m(-1, 3, CTX), DomainError, "m must be nonnegative",
     ("eval", "--x", "1", "--y", "2", "--method", "theorem1", "--m", "-1")),
    (lambda: TruncationPlan.for_m(3, 0, CTX), DomainError, "truncation needs r > 0",
     ("eval", "--x", "0", "--y", "0", "--method", "algebraic", "--m", "3")),
    (lambda: terminant_asymptotic(mp_context(21).mpc(3, -3), 4.7, "uniform", 3, CTX),
     DomainError, "covers 0 <= arg z <= pi", None),
    (lambda: tables.tolerance_last_digit("0.0", 9), ValueError, "zero cell", None),
], ids=["polar-r", "polar-theta-high", "polar-theta-low", "remainder-origin",
        "gamma-m-max", "gamma-cap", "gamma-z", "fraction-m", "fraction-line",
        "plan-m", "plan-r", "terminant-arg", "tolerance-zero"])
def test_each_refusal_raises_its_typed_error(capsys, call, error, match, argv):
    # refusals no other test reaches; where the CLI reaches one, it exits 2
    # with the library's message and prints nothing to stdout
    with pytest.raises(error, match=match):
        call()
    if argv is not None:
        rc, out, err = run(capsys, *argv)
        assert rc == EXIT_DOMAIN and out == "", argv
        assert re.search(match, err), err


def test_non_finite_coordinates_exit_2(capsys):
    for bad in ("nan", "inf", "-inf"):
        for argv in (
            ("--x=" + bad, "--y", "2"),
            ("--x", "2", "--y=" + bad),
            ("--r=" + bad, "--theta-over-pi", "0.25"),
            ("--r", "2", "--theta-over-pi=" + bad),
        ):
            rc, out, err = run(capsys, "eval", *argv)
            assert rc == EXIT_DOMAIN, argv
            assert "domain error" in err and out == ""


def test_coordinates_past_the_exponent_bound_exit_2(capsys):
    # these ended in mpmath's OverflowError from an exact square, or (the
    # last) ran for minutes; coordinates just inside the bound still answer
    for argv in (
        ("--x", "1", "--y=1e999999999999999999999"),
        ("--x", "1", "--y=1e-999999999999999999999"),
        ("--x", "1e100000", "--y", "1", "--method", "theorem2"),
    ):
        rc, out, err = run(capsys, "eval", *argv)
        assert rc == EXIT_DOMAIN, argv
        assert "domain error" in err and out == ""
    for argv in (("--x", "3.2e616", "--y", "2"), ("--x", "1", "--y", "3.1e-617")):
        rc, out, err = run(capsys, "eval", *argv, "--method", "theorem2")
        assert rc == EXIT_OK, (argv, err)


def test_polar_radius_refusal_names_r_and_theta(capsys):
    # y = r cos theta = 2.35e-617 is past the bound, but the caller gave r
    # and theta, and the refusal speaks of those
    rc, out, err = run(capsys, "eval", "--r", "4e-617", "--theta-over-pi", "0.3")
    assert rc == EXIT_DOMAIN and out == ""
    assert "r = 4.0e-617 at theta = 0.94248" in err
    assert "y = 2.35" not in err


def test_coeffs_phi_bound_on_both_sides(capsys):
    # 2^-4096 ~ 9.5e-1234: just above it the widened pass still answers,
    # below it the refusal comes before any widening
    rc, out, err = run(capsys, "coeffs", "--phi", "1e-1233", "--alpha", "0.5",
                       "--kmax", "5", "--format", "json")
    assert rc == EXIT_OK, err
    assert len(json.loads(out)["coefficients"]) == 6
    for phi in ("1e-1234", "1e-20000"):
        rc, out, err = run(capsys, "coeffs", "--phi", phi, "--alpha", "0.5", "--kmax", "5")
        assert rc == EXIT_DOMAIN and out == "", phi
        assert "domain error" in err and "2^-4096" in err


def test_eval_m_runs_the_remainder_in_full(capsys, estimate_digits):
    # at r = 20 and 100 digits e^{-400} is below the last printed digit, so
    # the optimal cut skips the estimate; --m, even the optimal 400, runs it
    base = ("eval", "--r", "20", "--theta-over-pi", "0.3", "--method", "theorem1",
            "--precision", "100", "--format", "json")
    rc, skipped, err = run(capsys, *base)
    assert rc == EXIT_OK, err
    assert estimate_digits == []
    rc, full, err = run(capsys, *base, "--m", "400")
    assert rc == EXIT_OK, err
    assert estimate_digits == [100]
    skipped, full = json.loads(skipped), json.loads(full)
    assert (skipped["K"], skipped["L"], skipped["m"]) == (full["K"], full["L"], full["m"])


def test_quadrature_past_its_digit_cap_exits_2(capsys):
    # 400 digits of quadrature is minutes of work; the cap refuses it at once
    rc, out, err = run(capsys, "eval", "--x", "3", "--y", "4", "--method", "quadrature",
                       "--precision", "400")
    assert rc == EXIT_DOMAIN and out == ""
    assert "at most 150 digits" in err


def test_precision_error_maps_to_exit_3(capsys, monkeypatch):
    # no healthy input trips the precision path, so drive the dispatcher
    # directly: any command raising PrecisionError must exit 3
    def broken(arg, ctx):
        raise PrecisionError("tolerance unattainable", attained=1e-9)

    monkeypatch.setattr(cli, "voigt_exact_erfc", broken)
    rc, _, err = run(capsys, "eval", "--x", "1", "--y", "2")
    assert rc == EXIT_PRECISION
    assert "precision failure" in err


def test_erfcx_series_failure_exits_3(capsys, monkeypatch):
    # at (3, 4) E(phi) sums erfcx's Kummer series through hypsum; mpmath's
    # convergence failure there must reach the caller as a precision failure
    def fail(ctx, *args, **kwargs):
        raise ValueError("hypsum() failed to converge")

    monkeypatch.setattr(MPContext, "hypsum", fail)
    rc, out, err = run(capsys, "eval", "--x", "3", "--y", "4", "--method", "theorem2")
    assert rc == EXIT_PRECISION and out == ""
    assert "Kummer series" in err


def test_library_value_error_is_not_a_usage_error(capsys, monkeypatch):
    # exit 64 is for options that do not parse; a ValueError from inside a
    # command is a bug and must surface as one
    def broken(arg, ctx):
        raise ValueError("math domain error")

    monkeypatch.setattr(cli, "voigt_exact_erfc", broken)
    with pytest.raises(ValueError, match="math domain error"):
        main(["eval", "--x", "1", "--y", "2"])
    for argv in (("scan", "--r", "six"), ("coeffs", "--phi", "1", "--alpha", "half"),
                 ("eval", "--r", "2", "--theta-over-pi", "0.1.2"), ("eval", "--x", "1", "--y=--")):
        rc, _, err = run(capsys, *argv)
        assert rc == EXIT_USAGE and "must be a number" in err, argv


def test_env_var_controls_precision(capsys, monkeypatch):
    monkeypatch.setenv("VOIGT_PRECISION", "60")
    rc, out, _ = run(capsys, "eval", "--x", "1", "--y", "2")
    assert rc == EXIT_OK
    digits = len(json.loads(out)["K"].replace("0.", "").rstrip("0"))
    assert digits > 45
    # an explicit flag beats the environment
    rc, out, _ = run(capsys, "eval", "--x", "1", "--y", "2", "--precision", "20")
    assert rc == EXIT_OK
    assert len(json.loads(out)["K"]) < 30


def test_env_var_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("VOIGT_PRECISION", "many")
    rc, _, err = run(capsys, "eval", "--x", "1", "--y", "2")
    assert rc == EXIT_USAGE
    assert "VOIGT_PRECISION" in err
