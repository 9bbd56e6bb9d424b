#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of voigt-asym.

Run from the root of a source checkout (no install needed; the library is
imported from ``src/``):

    python3 benchmarks/run.py --workload points-40 --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20

One process, one thread, one closed-loop client with no think time: the
next op starts when the previous one returns. ``--seconds`` is the op time
a run measures; the loop also runs at least the ops that are checked.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` replays a fixed
number of ops (sized from ``--seconds``) once untraced and once with every
public function of the library wrapped by ``tracer.Tracer``, and reports the
per-layer metrics; the spans go to ``.bench_out/``. Either way every answer
is then checked, untimed, against an exact oracle at 10 more digits.

Reported times are scaled to a reference machine speed by ``SpeedProbe``,
because a shared host drifts by tens of percent within seconds; the
``wall.*`` metrics give the same figures unscaled.

Each metric is printed as ``name value unit``; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and the metrics
listed in BENCHMARK.json. ``benchmarks/spec.json`` holds the full metric
catalog, the layer-to-end-to-end mapping and the baseline.

``attempted`` and ``failed`` (and the ``failed_share``, ``refused_share``
and ``digits_*`` metrics) cover the check set: the first
``workload.check_count(seconds)`` timed ops, a fixed number, so that a seed
gives the same counts on any host. ``failed`` counts the checked ops that
crashed, returned a non-finite value or missed the reference by more than
their own ``err_estimate``. Every timed op is checked too; ``ops_per_s``
counts only those that passed. ``correct`` is false only when a timed op
crashed or returned a non-finite value, or a frozen table check failed:
known estimate defects show up as failures, and the run still measures.

Exit codes: 0 correct; 1 not correct; 2 the library source is not there.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
import warnings
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

from tracer import Tracer
from workloads import WORKLOADS, PointOp

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# machine-speed probe: reported times are scaled to a machine on which one
# probe call at the workload's working precision takes PROBE_REF_S, using the
# probe's median over the ops within HALF_WINDOW of each op; after each op
# the probe runs for about PROBE_SHARE of the op's time
PROBE_REF_S = 0.0003
HALF_WINDOW = 10
PROBE_SHARE = 0.03
REF_EXTRA_DIGITS = 10
SETUP_PROBES = 2  # extra cold set-ups in child processes; the median of three is reported
ORACLE_PASS_OPS = 30
OK, REFUSED, CRASHED = "ok", "refused", "crashed"


class MissingLibrary(Exception):
    pass


def require_source():
    if not os.path.isfile(os.path.join(SRC, "voigt_asym", "__init__.py")):
        raise MissingLibrary("no library source at %s" % (SRC,))


def load_library():
    """Import voigt_asym from this checkout's src/, never from elsewhere."""
    require_source()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import voigt_asym
    import voigt_asym.cli  # noqa: F401  (the traced layers include the CLI)

    if os.path.dirname(os.path.dirname(os.path.abspath(voigt_asym.__file__))) != SRC:
        raise MissingLibrary("voigt_asym was imported from %s" % (voigt_asym.__file__,))
    return voigt_asym


# -- ops -------------------------------------------------------------------


class SpeedProbe:
    """Times a fixed mpmath computation that shares no code with the library.

    On a shared 2-vCPU host the same code ran up to 1.7 times slower for
    seconds at a time. Dividing each op's latency by the probe's concurrent
    time cancels that drift: there, 3-second medians of one repeated op
    scattered by 50% in wall time and by 3% scaled. A change to the library
    cannot move the probe.
    """

    def __init__(self, digits):
        from mpmath import MPContext

        self.mp = MPContext()
        self.mp.dps = digits + 5
        self.z = self.mp.mpc("1.25", "0.75")
        for _ in range(3):  # fill mpmath's constant caches at this precision
            self.sample()

    def sample(self):
        mp, z = self.mp, self.z
        t0 = perf_counter()
        acc = mp.mpf(0)
        for j in range(1, 9):
            acc += mp.exp(z / j).real * mp.sqrt(mp.mpf(j))
        return perf_counter() - t0

    def after(self, latency):
        """Mean probe time over enough calls to take about PROBE_SHARE of
        ``latency``."""
        n = max(1, round(PROBE_SHARE * latency / PROBE_REF_S))
        return sum(self.sample() for _ in range(n)) / n

    def factor(self, n=9):
        """Reference speed over current speed, from n probe calls now."""
        return PROBE_REF_S / statistics.median(self.sample() for _ in range(n))


def scale_to_reference(outcomes):
    """Set each outcome's ``scaled`` latency from the probe times around it."""
    probes = [o.probe for o in outcomes]
    for i, o in enumerate(outcomes):
        local = statistics.median(probes[max(0, i - HALF_WINDOW): i + HALF_WINDOW + 1])
        o.scaled = o.latency * PROBE_REF_S / local


class Outcome:
    __slots__ = ("op", "status", "latency", "payload", "warned", "probe", "scaled")

    def __init__(self, op, status, latency, payload, warned):
        self.op, self.status, self.latency = op, status, latency
        self.payload, self.warned = payload, warned
        self.probe = self.scaled = None


class Runner:
    """Executes one workload's ops against the library at its precision."""

    def __init__(self, lib, workload):
        self.lib = lib
        self.workload = workload
        self.ctx = lib.PrecisionContext(digits=workload.digits)
        self.speed = SpeedProbe(workload.digits)
        self._plan_r = None
        self._plan = None

    def op(self, op):
        lib, ctx = self.lib, self.ctx
        arg = lib.VoigtArgument.from_polar(op.r, op.theta, ctx)
        if isinstance(op, PointOp):
            return lib.evaluate_via_expansion(arg, op.variant, op.k_terms, None, ctx)
        # the ops of one radius share one truncation plan
        if self._plan_r != op.r:
            self._plan_r, self._plan = op.r, lib.optimal_truncation(op.r, ctx)
        plan, k = self._plan, self.workload.k_terms
        exact = lib.remainder_exact(arg, plan.m, ctx)
        est2 = lib.theorem2(arg, plan, k, ctx)
        est1 = lib.theorem1(arg, plan, k, ctx)
        return plan.m, exact, est1, est2

    def execute(self, op):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = perf_counter()
            try:
                payload, status = self.op(op), OK
            except self.lib.VoigtError as exc:
                payload, status = exc, REFUSED
            except Exception as exc:
                payload, status = exc, CRASHED
            latency = perf_counter() - t0
        if status == CRASHED:
            traceback.print_exception(payload, file=sys.stderr)
        warned = tuple(w.category.__name__ for w in caught)
        return Outcome(op, status, latency, payload, warned)

    def loop(self, ops, seconds=None, min_ops=0, tracer=None):
        """Closed loop over ``ops``: all of them, or until ``seconds`` of
        op time and at least ``min_ops`` ops have passed, at a group
        boundary (a scan radius is never cut short). A speed probe runs
        after each op, outside its timing."""
        outcomes, busy = [], 0.0
        for i, op in enumerate(ops):
            if (seconds is not None and busy >= seconds and len(outcomes) >= min_ops
                    and i % self.workload.group == 0):
                break
            if tracer is not None:
                tracer.op = i
            out = self.execute(op)
            out.probe = self.speed.after(out.latency)
            outcomes.append(out)
            busy += out.latency
        scale_to_reference(outcomes)
        return outcomes

    # -- correctness, untimed ------------------------------------------------

    def check(self, outcome):
        """(failed, reason, digits) for one op; digits is None unless the
        op returned a value."""
        if outcome.status == REFUSED:
            return False, None, None
        if outcome.status == CRASHED:
            return True, "crashed", None
        lib, digits = self.lib, self.workload.digits
        ref_ctx = lib.PrecisionContext(digits=digits + REF_EXTRA_DIGITS)
        mctx = ref_ctx.mp()
        op = outcome.op
        arg = lib.VoigtArgument.from_polar(op.r, op.theta, ref_ctx)
        if isinstance(op, PointOp):
            value = outcome.payload
            ref = lib.voigt_exact_erfc(arg, ref_ctx)
            bounded = ()
        else:
            m, value, est1, est2 = outcome.payload
            ref = lib.remainder_exact(arg, m, ref_ctx, route="gamma")
            bounded = (("theorem1", est1.Khat, est1.Lhat, est1.err_estimate),
                       ("theorem2", est2.Khat, est2.Lhat, est2.err_estimate))
        pairs = (("value", value.K, value.L, value.err_estimate),) + bounded
        if not all(mctx.isfinite(mctx.convert(v)) for p in pairs for v in p[1:]):
            return True, "nonfinite", None
        ref_z = mctx.mpc(ref.K, ref.L)
        scale = abs(ref_z)
        miss = abs(mctx.mpc(value.K, value.L) - ref_z)
        if miss == 0 or scale == 0:
            got = float(digits) if miss == 0 else 0.0
        else:
            got = max(0.0, min(float(digits), float(-mctx.log10(miss / scale))))
        if miss > max(mctx.convert(value.err_estimate), mctx.mpf(10) ** (1 - digits) * scale):
            return True, "missed_reference", got
        for name, K, L, err in bounded:
            if abs(mctx.mpc(K, L) - ref_z) > err:
                return True, name + "_outside_err_estimate", got
        return False, None, got


def ops_from(workload, seed, stream, count):
    it = workload.ops(seed, stream)
    return [next(it) for _ in range(count)]


def setup(workload, seed):
    """Import, input generation and warm-up; returns (runner, timed ops,
    wall seconds, seconds scaled to the reference speed)."""
    t0 = perf_counter()
    lib = load_library()
    runner = Runner(lib, workload)
    stream = workload.ops(seed, "timed")
    runner.loop(ops_from(workload, seed, "warmup", workload.warmup_ops))
    wall = perf_counter() - t0
    return runner, stream, wall, wall * runner.speed.factor()


def setup_probe(workload, seed):
    """Set-up time of a fresh interpreter, measured in a child process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload.name,
           "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError("set-up probe failed:\n" + done.stderr)
    wall, scaled = done.stdout.split()[-2:]
    return float(wall), float(scaled)


def run_tables(lib, counts):
    """In-process ``table1 --check`` and ``table2 --check``: (wall seconds,
    exit codes)."""
    seconds, codes = {}, {}
    for table in ("table1", "table2"):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = perf_counter()
            with redirect_stdout(out), redirect_stderr(err):
                codes[table] = lib.cli.main([table, "--check"])
            seconds[table] = perf_counter() - t0
        counts.update(w.category.__name__ for w in caught)
        if codes[table] != 0:
            sys.stderr.write("%s --check exited %d\n%s" % (table, codes[table], err.getvalue()))
    return seconds, codes


# -- metrics -----------------------------------------------------------------


def quantile(values, q):
    """The q-quantile (0 < q < 1) by linear interpolation between order
    statistics."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def classify(runner, outcomes):
    """Check every outcome, untimed: one (failed, reason, digits) each."""
    return [runner.check(o) for o in outcomes]


def tally(outcomes, verdicts):
    """The counts and digits the metrics use, over the given ops."""
    reasons = Counter(reason for failed, reason, _ in verdicts if failed)
    digits = [d for _, _, d in verdicts if d is not None]
    n_failed = sum(1 for failed, _, _ in verdicts if failed)
    n_refused = sum(1 for o in outcomes if o.status == REFUSED)
    hard = reasons["crashed"] + reasons["nonfinite"]
    return n_failed, n_refused, hard, reasons, digits


def end_to_end(outcomes, verdicts, n_check):
    """Throughput and latencies over every timed op; failed_share,
    refused_share and digits over the first ``n_check`` ops."""
    n = len(outcomes)
    n_failed, n_refused, _, _, _ = tally(outcomes, verdicts)
    n_ok = n - n_failed - n_refused
    n_failed, n_refused, _, _, digits = tally(outcomes[:n_check], verdicts[:n_check])
    scaled_ms = [o.scaled * 1e3 for o in outcomes]
    wall_ms = [o.latency * 1e3 for o in outcomes]
    return {
        "ops_per_s": n_ok / sum(o.scaled for o in outcomes),
        "latency_p50_ms": quantile(scaled_ms, 0.5),
        "latency_p90_ms": quantile(scaled_ms, 0.9),
        "wall.ops_per_s": n_ok / sum(o.latency for o in outcomes),
        "wall.latency_p50_ms": quantile(wall_ms, 0.5),
        "wall.latency_p90_ms": quantile(wall_ms, 0.9),
        "failed_share": n_failed / n_check,
        "refused_share": n_refused / n_check,
        "digits_min": min(digits) if digits else 0.0,
        "digits_p50": quantile(digits, 0.5) if digits else 0.0,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def oracle_pass(runner, ops):
    """Untraced ms per call of evaluate_via_expansion (eq42, k = 3, optimal
    m) and of voigt_exact_erfc on the same inputs at the workload precision."""
    lib, ctx = runner.lib, runner.ctx
    t_exp = t_ora = 0.0
    probes = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for op in ops:
            arg = lib.VoigtArgument.from_polar(op.r, op.theta, ctx)
            t0 = perf_counter()
            lib.evaluate_via_expansion(arg, "eq42", 3, None, ctx)
            t1 = perf_counter()
            lib.voigt_exact_erfc(arg, ctx)
            t2 = perf_counter()
            t_exp += t1 - t0
            t_ora += t2 - t1
            probes.append(runner.speed.sample())
    n = len(ops)
    factor = PROBE_REF_S / statistics.median(probes)
    return 1e3 * factor * t_exp / n, 1e3 * factor * t_ora / n, n


def layer_metrics(tracer, counters, errors, warned, loop_factor, tables_factor):
    """Per-layer metrics of the traced loop (op ids >= 0, whose counters and
    errors are given) and the traced table checks (op id -1); times are
    scaled to the reference speed."""
    loop = tracer.function_stats(ops=lambda op: op >= 0)
    tables = tracer.function_stats(ops=lambda op: op < 0)

    def calls(name):
        return loop.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return loop_factor * loop.get(name, (0, 0.0, 0.0))[2]

    def share(part, name):
        return counters[part] / calls(name) if calls(name) else 0.0

    m = {}
    for layer in ("numerics", "oracle", "coefficients", "expansions"):
        m[layer + ".self_s"] = loop_factor * sum(
            v[2] for n, v in loop.items() if n.startswith(layer + "."))
    for name in ("coefficients.B2k", "coefficients.Bhat2k", "coefficients.A2k",
                 "coefficients.binomial_alpha", "coefficients.E_of_phi",
                 "expansions.algebraic_partial_sums", "oracle.remainder_exact",
                 "numerics.integrate_semi_infinite",
                 "numerics.upper_incomplete_gamma_half_ladder"):
        m[name + ".calls"] = calls(name)
    for name in ("coefficients.B2k", "coefficients.E_of_phi",
                 "expansions.algebraic_partial_sums", "expansions.theorem1",
                 "expansions.theorem2", "oracle.remainder_exact",
                 "numerics.integrate_semi_infinite",
                 "numerics.upper_incomplete_gamma_half_ladder"):
        m[name + ".self_s"] = self_s(name)
    m["coefficients.B2k.widened_share"] = share("coefficients.B2k.widened_calls", "coefficients.B2k")
    m["coefficients.B2k.limit_calls"] = counters["coefficients.B2k.limit_calls"]
    for name in ("expansions.algebraic_partial_sums.terms",
                 "numerics.integrate_semi_infinite.integrand_evals",
                 "numerics.upper_incomplete_gamma_half_ladder.steps"):
        m[name] = counters[name]
    m["oracle.remainder_exact.quadrature_share"] = share(
        "oracle.remainder_exact.method.remainder-quadrature", "oracle.remainder_exact")
    m["numerics.integrate_semi_infinite.failed"] = errors[
        ("numerics.integrate_semi_infinite", "QuadratureError")]
    m["numerics.mp_context.contexts"] = tracer.originals["numerics.mp_context"].cache_info().currsize
    for table in ("table1", "table2"):
        m["cli.%s.s" % table] = tables_factor * tables.get("cli.cmd_" + table, (0, 0.0, 0.0))[1]
    for cls in ("StokesCollarWarning", "BelowAsymptoticRangeWarning"):
        m["warnings." + cls] = warned[cls]
    return m


# -- runs ----------------------------------------------------------------------


def untraced_run(workload, seed, seconds):
    setups = [setup_probe(workload, seed) for _ in range(SETUP_PROBES)]
    runner, stream, wall, scaled = setup(workload, seed)
    setups.append((wall, scaled))
    n_check = workload.check_count(seconds)
    outcomes = runner.loop(stream, seconds, n_check)
    metrics = {"setup_s": statistics.median(s for _, s in setups),
               "wall.setup_s": statistics.median(w for w, _ in setups)}
    codes = {}
    warned = Counter(w for o in outcomes for w in o.warned)
    if workload.kind == "scan":
        before = runner.speed.factor()
        table_s, codes = run_tables(runner.lib, warned)
        metrics["wall.tables_s"] = sum(table_s.values())
        metrics["tables_s"] = metrics["wall.tables_s"] * (before + runner.speed.factor()) / 2
    metrics["peak_rss_mb"] = peak_rss_mb()
    verdicts = classify(runner, outcomes)
    metrics.update(end_to_end(outcomes, verdicts, n_check))
    for cls, n in sorted(warned.items()):
        metrics["warnings." + cls] = n
    hard = tally(outcomes, verdicts)[2]
    n_failed, _, _, reasons, _ = tally(outcomes[:n_check], verdicts[:n_check])
    correct = hard == 0 and all(c == 0 for c in codes.values())
    return correct, n_check, n_failed, metrics, reasons


def traced_run(workload, seed, seconds, out_dir):
    runner, stream, _, _ = setup(workload, seed)
    ops = [next(stream) for _ in range(workload.trace_count(seconds))]
    plain = runner.loop(ops)

    tracer = Tracer(runner.lib)
    tracer.install()
    try:
        outcomes = runner.loop(ops, tracer=tracer)
        warned = Counter(w for o in outcomes for w in o.warned)
        loop_counters, loop_errors = Counter(tracer.counters), Counter(tracer.errors)
        codes = {}
        if workload.kind == "scan":
            tracer.op = -1
            _, codes = run_tables(runner.lib, Counter())
    finally:
        tracer.uninstall()
    tables_factor = runner.speed.factor()

    traced_s = sum(o.scaled for o in outcomes)
    loop_factor = traced_s / sum(o.latency for o in outcomes)
    metrics = layer_metrics(tracer, loop_counters, loop_errors, warned, loop_factor, tables_factor)
    metrics["trace.overhead_share"] = 1.0 - sum(o.scaled for o in plain) / traced_s
    exp_ms, ora_ms, n_oracle = oracle_pass(runner, ops[:ORACLE_PASS_OPS])
    metrics["expansions.evaluate_via_expansion.ms_per_call"] = exp_ms
    metrics["oracle.voigt_exact_erfc.ms_per_call"] = ora_ms
    metrics["oracle.voigt_exact_erfc.calls"] = n_oracle
    metrics["expansions.over_oracle"] = exp_ms / ora_ms

    n_failed, _, hard, reasons, _ = tally(outcomes, classify(runner, outcomes))
    os.makedirs(out_dir, exist_ok=True)
    tracer.write_spans(os.path.join(out_dir, "spans-%s-seed%d.csv.gz" % (workload.name, seed)))
    correct = hard == 0 and all(c == 0 for c in codes.values())
    return correct, len(outcomes), n_failed, metrics, reasons


def load_catalog():
    with open(os.path.join(HERE, "spec.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return units, bench


def run_one(args):
    workload = WORKLOADS[args.workload]
    units, bench = load_catalog()
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        correct, attempted, failed, metrics, reasons = traced_run(
            workload, args.seed, args.seconds, out_dir)
        listed = bench["per_layer"]
    else:
        correct, attempted, failed, metrics, reasons = untraced_run(
            workload, args.seed, args.seconds)
        listed = bench["end_to_end"]
    print("workload %s seed %d: %d ops checked, %d failed %s"
          % (workload.name, args.seed, attempted, failed, dict(sorted(reasons.items()))))
    for name in sorted(metrics):
        print("%-56s %.6g %s" % (name, metrics[name], units[name]))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0 if correct else 1


def run_all(args):
    """Every workload in turn, each in its own process."""
    code = 0
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        code = max(code, done.returncode)
    print(json.dumps(results))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            print("%r %r" % setup(WORKLOADS[args.workload], args.seed)[2:])
            return 0
        require_source()
        return run_all(args) if args.workload == "all" else run_one(args)
    except MissingLibrary as exc:
        print("benchmark cannot run: %s" % (exc,), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
