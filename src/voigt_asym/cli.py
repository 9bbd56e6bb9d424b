"""Command-line front end.

Subcommands: ``eval`` (one point, any method), ``table1`` / ``table2``
(regenerate the built-in regression tables, optionally checking them against
the frozen expected values), ``scan`` (CSV of estimate errors over an angle
grid, for plotting), and ``coeffs`` (dump the expansion coefficients at one
(phi, alpha)).

Exit codes: 0 success, 1 table check mismatch, 2 domain error, 3 precision
failure, 64 usage error. Warnings go to stderr and do not affect the exit
code. Output is deterministic for fixed flags: values are printed through
a fixed-precision decimal formatter in every mode.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import warnings
from dataclasses import dataclass

from . import tables
from .coefficients import coefficient_set
from .exceptions import BelowAsymptoticRangeWarning, DomainError, PrecisionError
from .expansions import (
    TruncationPlan,
    algebraic_partial_sums,
    evaluate_via_expansion,
    optimal_truncation,
    theorem1,
    theorem2,
)
from .numerics import DEFAULT_CONTEXT, THETA_COLLAR_OVER_PI, PrecisionContext, mp_context
from .oracle import (
    VoigtArgument,
    reduce_to_first_quadrant,
    remainder_exact,
    voigt_exact_erfc,
    voigt_quadrature,
)

ENV_PRECISION = "VOIGT_PRECISION"
EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_DOMAIN = 2
EXIT_PRECISION = 3
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def format_mantissa_exp(value, sig: int, signed: bool = True) -> str:
    """Render ``value`` as mantissa(exponent), e.g. +1.73161445(-7)."""
    mctx = mp_context(sig + 15)
    v = mctx.mpf(value)
    if v == 0:
        return ("+" if signed else "") + "0." + "0" * (sig - 1) + "(+0)"
    sign = "-" if v < 0 else ("+" if signed else "")
    mant, expo = mctx.nstr(abs(v), sig, min_fixed=1, max_fixed=0, show_zero_exponent=True,
                           strip_zeros=False).split("e")
    return "%s%s(%+d)" % (sign, mant, int(expo))


def _numstr(v, digits: int) -> str:
    mctx = mp_context(digits + 5)
    return mctx.nstr(mctx.mpf(v), digits)


@dataclass(frozen=True)
class OutputRecord:
    """One evaluation, ready for serialization in any output mode."""

    x: object
    y: object
    r: object
    theta_over_pi: object
    method: str
    K: object
    L: object
    err_estimate: object
    k_terms: object = None
    m: object = None
    alpha: object = None

    def fields(self, digits: int):
        def s(v):
            return "" if v is None else _numstr(v, digits)

        return [
            ("x", s(self.x)),
            ("y", s(self.y)),
            ("r", s(self.r)),
            ("theta_over_pi", s(self.theta_over_pi)),
            ("method", self.method),
            ("K", s(self.K)),
            ("L", s(self.L)),
            ("err_estimate", s(self.err_estimate)),
            ("k_terms", self.k_terms),
            ("m", self.m),
            ("alpha", None if self.alpha is None else s(self.alpha)),
        ]

    def to_json(self, digits: int) -> str:
        return json.dumps(dict(self.fields(digits)))

    def to_csv(self, digits: int) -> str:
        pairs = self.fields(digits)
        header = ",".join(name for name, _ in pairs)
        row = ",".join("" if v is None else str(v) for _, v in pairs)
        return header + "\n" + row

    def to_table(self, digits: int) -> str:
        lines = []
        for name, v in self.fields(digits):
            if name in ("K", "L", "err_estimate") and v != "":
                v = format_mantissa_exp(getattr(self, name), min(digits, 12))
            lines.append("%-14s %s" % (name, "" if v is None else v))
        return "\n".join(lines)


def _resolve_digits(args) -> int:
    if getattr(args, "precision", None) is not None:
        return args.precision
    env = os.environ.get(ENV_PRECISION)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _UsageError(
                "%s must be an integer digit count, got %r" % (ENV_PRECISION, env)
            )
    return DEFAULT_CONTEXT.digits


def _number(text: str, flag: str, mctx):
    """A numeric option parsed at the working precision. Only a literal
    that does not parse is a usage error, so no ValueError raised by the
    library is reported as one (argparse hands ``--y=--`` over as a list,
    hence the TypeError)."""
    try:
        return mctx.mpf(text)
    except (ValueError, TypeError):
        raise _UsageError("%s must be a number, got %r" % (flag, text)) from None


def _parse_point(args, ctx: PrecisionContext):
    cartesian = args.x is not None or args.y is not None
    polar = args.r is not None or args.theta_over_pi is not None
    if cartesian and polar:
        raise _UsageError("give either --x/--y or --r/--theta-over-pi, not both")
    mctx = ctx.mp()
    if cartesian:
        if args.x is None or args.y is None:
            raise _UsageError("--x and --y must be given together")
        x, y = _number(args.x, "--x", mctx), _number(args.y, "--y", mctx)
        arg, sign_K, sign_L = reduce_to_first_quadrant(x, y, ctx)
        return arg, sign_K, sign_L, x, y
    if args.r is None or args.theta_over_pi is None:
        raise _UsageError("--r and --theta-over-pi must be given together")
    r = _number(args.r, "--r", mctx)
    theta = _number(args.theta_over_pi, "--theta-over-pi", mctx) * mctx.pi
    arg = VoigtArgument.from_polar(r, theta, ctx)
    return arg, 1, 1, arg.x, arg.y


def cmd_eval(args) -> int:
    ctx = PrecisionContext(digits=_resolve_digits(args))
    arg, sign_K, sign_L, x_in, y_in = _parse_point(args, ctx)
    mctx = ctx.mp()
    method = args.method
    k_terms = m_used = alpha = None
    if method in ("algebraic", "theorem1", "theorem2"):
        # one below-range warning per evaluation: evaluate_via_expansion
        # plans the same cut again and warns itself
        with warnings.catch_warnings():
            if method != "algebraic":
                warnings.simplefilter("ignore", BelowAsymptoticRangeWarning)
            plan = (
                optimal_truncation(arg.r, ctx)
                if args.m is None
                else TruncationPlan.for_m(args.m, arg.r, ctx)
            )
        m_used, alpha = plan.m, plan.alpha
    if method == "oracle":
        ev = voigt_exact_erfc(arg, ctx)
    elif method == "quadrature":
        ev = voigt_quadrature(arg, ctx)
    elif method == "algebraic":
        ev = algebraic_partial_sums(arg, plan.m, ctx)
        # accuracy is limited by the first omitted term, the exponentially
        # small remainder the sum cannot see, and the sum's own rounding,
        # which is the estimate the sum reports
        r = mctx.convert(arg.r)
        nxt = _next_term_magnitude(mctx, plan.m, r)
        ev = dataclasses.replace(ev, err_estimate=nxt + mctx.exp(-r * r) + ev.err_estimate)
    elif method in ("theorem1", "theorem2"):
        variant = "eq41" if method == "theorem1" else "eq42"
        k_terms = args.k_terms
        # the optimal cut only when --m is not given
        ev = evaluate_via_expansion(arg, variant, k_terms, args.m, ctx)
    else:
        raise _UsageError("unknown method %r" % (method,))

    out = ctx.mp()
    record = OutputRecord(
        x=x_in, y=y_in, r=arg.r, theta_over_pi=out.mpf(arg.theta) / out.pi,
        method=method, K=out.mpf(sign_K * ev.K), L=out.mpf(sign_L * ev.L),
        err_estimate=ev.err_estimate, k_terms=k_terms, m=m_used, alpha=alpha,
    )
    digits = ctx.digits
    if args.format == "csv":
        print(record.to_csv(digits))
    elif args.format == "table":
        print(record.to_table(digits))
    else:
        print(record.to_json(digits))
    return EXIT_OK


def _next_term_magnitude(mctx, m: int, r):
    # magnitude of algebraic term k = m: (1/2)_m / (sqrt(pi) r^{2m+1}),
    # with (1/2)_m from the gamma function rather than m exact products
    return mctx.rf(mctx.mpf(1) / 2, m) / (mctx.sqrt(mctx.pi) * r ** (2 * m + 1))


def _table1_cells(ctx: PrecisionContext):
    mctx = ctx.mp()
    angles = [mctx.mpf(t) * mctx.pi for t in tables.TABLE1_ANGLES]
    args_ = [VoigtArgument.from_polar(tables.TABLE1_R, th, ctx) for th in angles]
    plan = TruncationPlan.for_m(tables.TABLE1_M, tables.TABLE1_R, ctx)
    rows = {}
    for kt in sorted(tables.TABLE1_ROWS):
        e1 = theorem1(args_[0], plan, kt, ctx)
        e2 = theorem2(args_[1], plan, kt, ctx)
        rows[kt] = (e1.Khat, e1.Lhat, e2.Khat, e2.Lhat)
    foot_evals = [remainder_exact(a, tables.TABLE1_M, ctx) for a in args_]
    foot = (foot_evals[0].K, foot_evals[0].L, foot_evals[1].K, foot_evals[1].L)
    return rows, foot, plan


def _table2_cells(ctx: PrecisionContext):
    mctx = ctx.mp()
    plan = TruncationPlan.for_m(tables.TABLE2_M, tables.TABLE2_R, ctx)
    rows = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for key in tables.TABLE2_ANGLES:
            th = mctx.mpf(key) * mctx.pi
            a = VoigtArgument.from_polar(tables.TABLE2_R, th, ctx)
            exact = remainder_exact(a, tables.TABLE2_M, ctx)
            e1 = theorem1(a, plan, tables.TABLE2_K_TERMS, ctx)
            e2 = theorem2(a, plan, tables.TABLE2_K_TERMS, ctx)
            cells = []
            for est, ref, is_L in ((e1.Khat, exact.K, False), (e1.Lhat, exact.L, True),
                                   (e2.Khat, exact.K, False), (e2.Lhat, exact.L, True)):
                if is_L and a.x == 0:
                    cells.append(None)
                else:
                    cells.append(abs(est - ref) / abs(ref))
            rows[key] = tuple(cells)
    return rows, plan


def _check_cells(computed, expected, sig: int, describe) -> list:
    mismatches = []
    for key in expected:
        for i, want in enumerate(expected[key]):
            got = computed[key][i]
            if want is None:
                continue
            tol = tables.tolerance_last_digit(want, sig)
            if abs(float(got) - float(want)) > tol * 1.0000001:
                mismatches.append(
                    "%s: computed %s expected %s (tolerance %.1e)"
                    % (describe(key, i), format_mantissa_exp(got, sig), want, tol)
                )
    return mismatches


_T1_COLS = ("Khat@0.1", "Lhat@0.1", "Khat@0.375", "Lhat@0.375")
_T2_COLS = ("eq41 Khat", "eq41 Lhat", "eq42 Khat", "eq42 Lhat")


def cmd_table1(args) -> int:
    ctx = PrecisionContext(digits=_resolve_digits(args))
    rows, foot, plan = _table1_cells(ctx)
    sig = tables.TABLE1_SIG

    if args.format == "json":
        payload = {
            "r": tables.TABLE1_R,
            "m": tables.TABLE1_M,
            "alpha": _numstr(plan.alpha, 6),
            "columns": list(_T1_COLS),
            "rows": [
                {"k": kt - 1, "cells": [_numstr(v, sig) for v in rows[kt]]}
                for kt in sorted(rows)
            ],
            "exact": [_numstr(v, sig) for v in foot],
        }
        print(json.dumps(payload))
    elif args.format == "csv":
        print("k," + ",".join(_T1_COLS))
        for kt in sorted(rows):
            print("%d,%s" % (kt - 1, ",".join(_numstr(v, sig) for v in rows[kt])))
        print("exact," + ",".join(_numstr(v, sig) for v in foot))
    else:
        print(
            "remainders at r = %s, m = %d (theta/pi = %s via eq41, %s via eq42)"
            % (tables.TABLE1_R, tables.TABLE1_M, *tables.TABLE1_ANGLES)
        )
        print("%-6s %s" % ("k", "  ".join("%-16s" % c for c in _T1_COLS)))
        for kt in sorted(rows):
            print(
                "%-6d %s"
                % (kt - 1, "  ".join("%-16s" % format_mantissa_exp(v, sig) for v in rows[kt]))
            )
        print(
            "%-6s %s"
            % ("exact", "  ".join("%-16s" % format_mantissa_exp(v, sig) for v in foot))
        )

    if args.check:
        expected = dict(tables.TABLE1_ROWS)
        computed = dict(rows)
        expected["exact"] = tables.TABLE1_FOOT
        computed["exact"] = foot

        def describe(key, i):
            row = "exact" if key == "exact" else "k=%d" % (key - 1)
            return "table1 %s %s" % (row, _T1_COLS[i])

        mismatches = _check_cells(computed, expected, sig, describe)
        if mismatches:
            for line in mismatches:
                print(line, file=sys.stderr)
            return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_table2(args) -> int:
    ctx = PrecisionContext(digits=_resolve_digits(args))
    rows, plan = _table2_cells(ctx)
    sig = tables.TABLE2_SIG

    def cell_str(v, table_mode):
        if v is None:
            return "-"
        return format_mantissa_exp(v, sig, signed=False) if table_mode else _numstr(v, sig)

    if args.format == "json":
        payload = {
            "r": tables.TABLE2_R,
            "m": tables.TABLE2_M,
            "k_terms": tables.TABLE2_K_TERMS,
            "columns": list(_T2_COLS),
            "rows": [
                {"theta_over_pi": key, "cells": [
                    None if v is None else _numstr(v, sig) for v in rows[key]]}
                for key in tables.TABLE2_ANGLES
            ],
        }
        print(json.dumps(payload))
    elif args.format == "csv":
        print("theta_over_pi," + ",".join(c.replace(" ", "_") for c in _T2_COLS))
        for key in tables.TABLE2_ANGLES:
            print("%s,%s" % (key, ",".join(cell_str(v, False) for v in rows[key])))
    else:
        print(
            "relative errors of the remainder estimates at r = %s, m = %d, "
            "%d terms" % (tables.TABLE2_R, tables.TABLE2_M, tables.TABLE2_K_TERMS)
        )
        print("%-10s %s" % ("theta/pi", "  ".join("%-12s" % c for c in _T2_COLS)))
        for key in tables.TABLE2_ANGLES:
            print(
                "%-10s %s"
                % (key, "  ".join("%-12s" % cell_str(v, True) for v in rows[key]))
            )

    if args.check:
        def describe(key, i):
            return "table2 theta/pi=%s %s" % (key, _T2_COLS[i])

        mismatches = _check_cells(rows, tables.TABLE2_ROWS, sig, describe)
        if mismatches:
            for line in mismatches:
                print(line, file=sys.stderr)
            return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_scan(args) -> int:
    if args.n < 2:
        raise _UsageError("--n must be at least 2")
    ctx = PrecisionContext(digits=_resolve_digits(args))
    mctx = ctx.mp()
    r = _number(args.r, "--r", mctx)
    top = mctx.mpf(1) / 2
    if args.variant == "eq41":
        top = top - mctx.mpf(THETA_COLLAR_OVER_PI)
    plan = optimal_truncation(r, ctx)

    lines = ["theta_over_pi,rel_err_K,rel_err_L"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for j in range(args.n):
            frac = top * j / (args.n - 1)
            a = VoigtArgument.from_polar(r, frac * mctx.pi, ctx)
            exact = remainder_exact(a, plan.m, ctx)
            est = (
                theorem1(a, plan, args.k_terms, ctx)
                if args.variant == "eq41"
                else theorem2(a, plan, args.k_terms, ctx)
            )
            rel_K = abs(est.Khat - exact.K) / abs(exact.K)
            rel_L = (
                "nan"
                if a.x == 0
                else _numstr(abs(est.Lhat - exact.L) / abs(exact.L), 6)
            )
            lines.append("%s,%s,%s" % (_numstr(frac, 8), _numstr(rel_K, 6), rel_L))
    print("\n".join(lines))
    return EXIT_OK


def cmd_coeffs(args) -> int:
    ctx = PrecisionContext(digits=_resolve_digits(args))
    mctx = ctx.mp()
    phi = _number(args.phi, "--phi", mctx)
    alpha = _number(args.alpha, "--alpha", mctx)
    coeffs = coefficient_set(phi, alpha, args.kmax, ctx)
    A = coeffs.A or (None,) * (args.kmax + 1)
    rows = list(zip(range(args.kmax + 1), A, coeffs.B, coeffs.Bhat))

    digits = min(ctx.digits, 12)

    def pair(v):
        if v is None:
            return None
        return {"re": _numstr(v.real, digits), "im": _numstr(v.imag, digits)}

    if args.format == "json":
        payload = {
            "phi": _numstr(phi, digits),
            "alpha": _numstr(alpha, digits),
            "c": pair(coeffs.c),
            "coefficients": [
                {"k": k, "A": pair(A), "B": pair(B), "Bhat": pair(Bh)}
                for k, A, B, Bh in rows
            ],
        }
        print(json.dumps(payload))
    else:
        def fmt(v):
            if v is None:
                return "%-30s" % "(singular at phi = 0)"
            return "%-30s" % (
                "%s %s" % (_numstr(v.real, digits), _numstr(v.imag, digits))
            )

        print("phi    %s" % _numstr(phi, digits))
        print("alpha  %s" % _numstr(alpha, digits))
        print("c(phi) %s %s" % (_numstr(coeffs.c.real, digits), _numstr(coeffs.c.imag, digits)))
        print("%-3s %-30s %-30s %-30s" % ("k", "A_2k (re im)", "B_2k (re im)", "Bhat_2k (re im)"))
        for k, A, B, Bh in rows:
            print("%-3d %s %s %s" % (k, fmt(A), fmt(B), fmt(Bh)))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="voigt-asym", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--precision", type=int, default=None,
                       help="working decimal digits (default 40, or $%s)" % ENV_PRECISION)

    p_eval = sub.add_parser("eval", help="evaluate (K, L) at one point")
    p_eval.add_argument("--x", default=None)
    p_eval.add_argument("--y", default=None)
    p_eval.add_argument("--r", default=None)
    p_eval.add_argument("--theta-over-pi", default=None)
    p_eval.add_argument(
        "--method", default="oracle",
        choices=("oracle", "quadrature", "algebraic", "theorem1", "theorem2"),
    )
    p_eval.add_argument("--k-terms", type=int, default=3)
    p_eval.add_argument("--m", type=int, default=None,
                        help="override the optimal truncation order")
    p_eval.add_argument("--format", default="json", choices=("json", "csv", "table"))
    add_common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    for name, fn in (("table1", cmd_table1), ("table2", cmd_table2)):
        p = sub.add_parser(name, help="regenerate built-in table %s" % name[-1])
        p.add_argument("--check", action="store_true",
                       help="compare against the frozen expected values")
        p.add_argument("--format", default="table", choices=("table", "csv", "json"))
        add_common(p)
        p.set_defaults(func=fn)

    p_scan = sub.add_parser("scan", help="CSV of estimate errors over an angle grid")
    p_scan.add_argument("--r", required=True)
    p_scan.add_argument("--n", type=int, default=11)
    p_scan.add_argument("--variant", default="eq42", choices=("eq41", "eq42"))
    p_scan.add_argument("--k-terms", type=int, default=3)
    add_common(p_scan)
    p_scan.set_defaults(func=cmd_scan)

    p_c = sub.add_parser("coeffs", help="dump expansion coefficients at (phi, alpha)")
    p_c.add_argument("--phi", required=True)
    p_c.add_argument("--alpha", required=True)
    p_c.add_argument("--kmax", type=int, default=2)
    p_c.add_argument("--format", default="table", choices=("table", "json"))
    add_common(p_c)
    p_c.set_defaults(func=cmd_coeffs)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print("usage error: %s" % (exc,), file=sys.stderr)
        return EXIT_USAGE
    except PrecisionError as exc:
        print("precision failure: %s" % (exc,), file=sys.stderr)
        return EXIT_PRECISION
    except DomainError as exc:
        print("domain error: %s" % (exc,), file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
