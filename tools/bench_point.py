#!/usr/bin/env python3
"""Per-call times of the main paths at fixed points, before and after a change.

Times E(phi) from the pass's c(phi) (``coefficients._E_of_c``),
remainder_exact(route="gamma") at optimal m, theorem2 and theorem1 at
k = 3, theorem2's coefficient pass alone (B_0..B_6 and c(phi),
``coefficient_pass_k3``), algebraic_partial_sums at optimal m,
evaluate_via_expansion (eq42 and eq41, k = 3), voigt_exact_erfc and a
table2 cell (remainder_exact, theorem2 and theorem1 at k = 3 and optimal
m, as ``voigt-asym table2`` runs them) at 40 and 100 digits, each next to
the digits it attains against an mpmath reference at 20 more digits (for
the partial sum, the full m-term sum there; for the table2 cell, the
least of its three; for the pass, the least over its values, against the
closed forms of B_2k and c(phi) at a precision that covers their
cancellation). The points are
(x, y) = (3, 4), where r = 5 and m = 25; (12, 5), where r = 13 and m = 169:
there the partial sum stops early at 40 digits but needs every term at 100;
(16, 5), where r^2 = 281 puts e^{-r^2} ~ 1e-122 below the last digit of
K and L at both precisions, so evaluate_via_expansion skips the remainder
estimate; and (6, 0.01), where phi = 3.3e-3 lies near the Stokes line:
the pass is widened by about 40 digits there, and theorem1, inside its
collar, refuses the point, so it has no theorem1, eq41 or table2 cell row.
m = 281 is past the incomplete-gamma ladder's depth cap, so (16, 5) has
no remainder_exact or table2 cell row. Two source trees are timed
in alternating child processes, so that host drift hits both alike:

    python3 tools/bench_point.py --before ../parent/src --after src --out BENCH_24.json

Each time is the median over rounds of the mean of ``--calls`` calls, scaled
to a reference machine speed by the ``SpeedProbe`` of ``benchmarks/run.py``
timed in the same child process right after those calls, so that drift of a
shared host between the two trees' processes cancels. Every call is cold: a
tree that memoizes its coefficient pass has that memo emptied before each
call, outside the timing, so a row times the pass it runs, never a cache hit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import warnings
from time import perf_counter

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")
POINTS = ((3, 4), (12, 5), (16, 5), (6, 0.01))
DIGITS = (40, 100)
REF_EXTRA = 20


def _digits(mctx, got, want, cap):
    miss = abs(mctx.mpc(got) - mctx.mpc(want))
    if miss == 0:
        return float(cap)
    return round(min(float(cap), float(-mctx.log10(miss / abs(mctx.mpc(want))))), 1)


def measure(src, calls):
    """{"x,y": {digits: {path: (scaled ms per call, digits attained)}}} for
    the tree at src."""
    sys.path[:0] = [src, BENCHMARKS]
    import voigt_asym as va
    from run import SpeedProbe

    warnings.simplefilter("ignore")
    probes = {d: SpeedProbe(d) for d in DIGITS}
    out = {}
    for X, Y in POINTS:
        out["%g,%g" % (X, Y)] = {
            str(d): _measure_point(va, X, Y, d, calls, probes[d]) for d in DIGITS
        }
    return out


def _measure_point(va, X, Y, digits, calls, probe):
    ctx = va.PrecisionContext(digits=digits)
    arg = va.VoigtArgument.from_xy(X, Y, ctx)
    plan = va.optimal_truncation(arg.r, ctx)
    ref = va.mp_context(digits + va.numerics.GUARD_DIGITS + REF_EXTRA)
    w = ref.mpc(Y, X)
    z = w * w
    r = ref.convert(arg.r)
    c = ref.sqrt(2 * (1 - 1j * ref.convert(arg.phi) - ref.expj(-ref.convert(arg.phi))))
    zeta = c * r / ref.sqrt(2)
    E_ref = ref.sqrt(2 * ref.pi) * ref.exp(zeta * zeta) * ref.erfc(zeta)
    m = plan.m
    # (-1)^m Gamma(m + 1/2) e^z Gamma(1/2 - m, z) / pi = hat-K - i hat-L
    rem_ref = ((-1) ** m * ref.gamma(m + ref.mpf(1) / 2) * ref.exp(z)
               * ref.gammainc(ref.mpf(1) / 2 - m, z) / ref.pi)
    voigt_ref = ref.exp(z) * ref.erfc(w)
    # every one of the m algebraic terms, (-1)^k (1/2)_k w^{-2k-1} / sqrt(pi)
    sums_ref = sum(ref.rf(ref.mpf(1) / 2, k) * (-1 / z) ** k for k in range(m)) / (
        w * ref.sqrt(ref.pi))
    pass_ref = _pass_reference(va, arg.phi, plan.alpha, digits)

    def pair(ev):
        return ref.mpc(ev.K, -ev.L)

    def estimate(e):
        return ref.mpc(e.Khat, -e.Lhat)

    def table2_cell():
        return (va.remainder_exact(arg, m, ctx), va.theorem2(arg, plan, 3, ctx),
                va.theorem1(arg, plan, 3, ctx))

    c = va.coefficients._pass(arg.phi, plan.alpha, ctx).uniform(0)[1]
    paths = {
        "E_of_c": (lambda: va.coefficients._E_of_c(ctx.mp(), c, arg.r), lambda v: v, E_ref),
        "remainder_exact_gamma": (
            lambda: va.remainder_exact(arg, m, ctx, route="gamma"), pair, rem_ref),
        "theorem2_k3": (lambda: va.theorem2(arg, plan, 3, ctx), estimate, rem_ref),
        "theorem1_k3": (lambda: va.theorem1(arg, plan, 3, ctx), estimate, rem_ref),
        "coefficient_pass_k3": (
            lambda: va.coefficients._pass(arg.phi, plan.alpha, ctx).uniform(3),
            lambda Bc: (*Bc[0], Bc[1]), pass_ref),
        "algebraic_partial_sums": (
            lambda: va.algebraic_partial_sums(arg, m, ctx), pair, sums_ref),
        "evaluate_via_expansion_eq42": (
            lambda: va.evaluate_via_expansion(arg, "eq42", 3, None, ctx), pair, voigt_ref),
        "evaluate_via_expansion_eq41": (
            lambda: va.evaluate_via_expansion(arg, "eq41", 3, None, ctx), pair, voigt_ref),
        "voigt_exact_erfc": (lambda: va.voigt_exact_erfc(arg, ctx), pair, voigt_ref),
        "table2_cell": (table2_cell, lambda cell: (pair(cell[0]), *map(estimate, cell[1:])),
                        rem_ref),
    }
    if m > va.numerics.GAMMA_RECURRENCE_CAP:
        del paths["remainder_exact_gamma"], paths["table2_cell"]
    try:
        va.theorem1(arg, plan, 3, ctx)
    except va.DomainError:  # inside theorem1's Stokes collar
        for name in ("theorem1_k3", "evaluate_via_expansion_eq41", "table2_cell"):
            paths.pop(name, None)
    memo = getattr(va.coefficients, "_coefficient_pass", None)
    clear = memo.cache_clear if memo is not None else lambda: None
    row = {}
    for name, (call, value, want) in paths.items():
        got = value(call())  # warm-up, and the value judged
        if not isinstance(got, tuple):
            got = (got,)
        if not isinstance(want, tuple):
            want = (want,) * len(got)
        busy = 0.0
        for _ in range(calls):
            clear()
            t0 = perf_counter()
            call()
            busy += perf_counter() - t0
        ms = busy * 1e3 / calls * probe.factor()
        row[name] = (ms, min(_digits(ref, v, w, digits) for v, w in zip(got, want)))
    return row


def _pass_reference(va, phi, alpha, digits):
    """B_0..B_6 and c(phi) from their closed forms, term by term:
    u = e^{i phi}/(1 - e^{i phi}), h_j = sum_r C(alpha, j - r) u^r,
    A_2k = (-1)^k gamma_k + sum_j c_{j,k} h_j, c = sqrt(2 (1 - i phi - e^{-i phi})),
    B_2k = e^{i phi alpha} A_2k/(1 - e^{i phi}) - i (-1)^k (2k-1)!! c^{-2k-1}.
    They cancel across about 13 log10(2/phi) digits near the Stokes line, and
    the precision adds that to the reference's 20 more digits."""
    cancel = 13 * max(0.0, math.log10(2 / float(phi)))
    ref = va.mp_context(digits + va.numerics.GUARD_DIGITS + REF_EXTRA + int(cancel) + 10)
    phi, alpha = ref.convert(phi), ref.convert(alpha)
    gamma, cjk = va.coefficients._laplace_tables()
    e = ref.expj(phi)
    u = e / (1 - e)
    h = [sum(ref.binomial(alpha, j - r) * u**r for r in range(j + 1)) for j in range(7)]
    c = ref.sqrt(2 * (1 - 1j * phi - ref.expj(-phi)))
    B = []
    for k in range(4):
        A = (-1) ** k * ref.convert(gamma[k]) + sum(
            ref.convert(cj) * h[j] for j, cj in enumerate(cjk[k], start=2))
        B.append(ref.expj(phi * alpha) * A / (1 - e)
                 - 1j * (-1) ** k * math.prod(range(1, 2 * k, 2)) / c ** (2 * k + 1))
    return (*B, c)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", required=True, help="src/ of the parent tree")
    parser.add_argument("--after", required=True, help="src/ of the changed tree")
    parser.add_argument("--out", required=True)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--calls", type=int, default=30)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.child, args.calls)))
        return 0
    runs = {"before": [], "after": []}
    for _ in range(args.rounds):
        for side in ("before", "after"):
            cmd = [sys.executable, __file__, "--before", args.before, "--after", args.after,
                   "--out", args.out, "--calls", str(args.calls),
                   "--child", getattr(args, side)]
            done = subprocess.run(cmd, capture_output=True, text=True, check=True)
            runs[side].append(json.loads(done.stdout))
    import mpmath

    report = {"points": [{"x": x, "y": y} for x, y in POINTS],
              "rounds": args.rounds, "calls": args.calls,
              "reference": "mpmath at %d more digits" % REF_EXTRA,
              "times": "scaled to the reference speed of benchmarks/run.py's SpeedProbe",
              "host": {"python": platform.python_version(), "mpmath": mpmath.__version__,
                       "mpmath_backend": mpmath.libmp.BACKEND, "cpus": os.cpu_count(),
                       "machine": platform.machine()},
              "paths": {}}
    first = runs["before"][0]
    for point in first:
        for digits in first[point]:
            for name in first[point][digits]:
                entry = report["paths"].setdefault(name, {}).setdefault(point, {})
                cell = {}
                for side, side_runs in runs.items():
                    ms = statistics.median(run[point][digits][name][0] for run in side_runs)
                    cell[side + "_ms"] = round(ms, 3)
                    cell[side + "_digits"] = side_runs[0][point][digits][name][1]
                cell["speedup"] = round(cell["before_ms"] / cell["after_ms"], 2)
                entry[digits] = cell
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    json.dump(report["paths"], sys.stdout, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
