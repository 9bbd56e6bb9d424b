"""Optimally truncated expansions and their exponentially improved remainders.

The algebraic expansion of K - iL in inverse powers of w is divergent; cut
it at m terms and the remainder is exactly 2 e^{w^2} T_nu(w^2) with
nu = m + 1/2. Stopping near the least term, m ~ r^2, makes that remainder
exponentially small, of order e^{-r^2}, and this module estimates it two
ways:

* ``theorem1`` ("eq41"): a Poincare-type series in the A_2k coefficients,
  valid away from the Stokes line theta = pi/2 and increasingly wrong as it
  is approached;
* ``theorem2`` ("eq42"): the uniform form, with the Stokes jump smoothed by
  an error function through E(phi) and corrections in the B^_2k
  coefficients, valid up to and on the Stokes line.

Both are e^{-r^2}/sqrt(2 pi) times one bracketed sum, which a single
private kernel computes together with its first omitted term, the basis of
every ``err_estimate``; at k_terms = 1 either is the leading-order
remainder. ``terminant_asymptotic`` is e^{-z}/2 times theorem1 (region
"away") or theorem2 (region "uniform"), so "away" is refused in theorem1's
Stokes collar and warns where theorem1 warns. Every estimate runs its
refusals and warnings in one private check before any of its work, so
``evaluate_via_expansion``, which at the optimal cut runs an estimate only
to the digits it adds to the partial sums (or not at all), refuses and
warns as the estimate would. All estimates here are asymptotic, not exact;
the matching exact quantities live in ``oracle.remainder_exact``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .coefficients import K_MAX, _E_of_c, _pass
from .exceptions import (
    BelowAsymptoticRangeWarning,
    DomainError,
    StokesCollarWarning,
    UnsupportedOrderError,
)
from .numerics import (
    DEFAULT_CONTEXT,
    GUARD_DIGITS,
    PrecisionContext,
    _constants,
    _float_log,
    asymptotic_series,
    to_mpf,
)
from .oracle import Evaluation, VoigtArgument

# the first omitted term estimates the truncation error but does not bound
# it; this margin absorbs the O(1) wobble so err_estimate can be trusted
EST_SAFETY = 3

# for r >= 1 the exact remainder at the optimal cut obeys
# |hat-K - i hat-L| <= OPTIMAL_REMAINDER_BOUND e^{-r^2}; the ratio peaks on
# the Stokes line, at 1.08 near r = 1.2 and at 1.003 over r in [3, 13.5]
OPTIMAL_REMAINDER_BOUND = 2

# evaluate_via_expansion runs a remainder estimate at the digits it adds to
# K and L, rounded up to a multiple of this: every precision caches its own
# mpmath contexts
REMAINDER_DIGITS_STEP = 20


@dataclass(frozen=True)
class TruncationPlan:
    """A truncation order m with its interpolation parameter.

    alpha = m + 1/2 - r^2 measures the offset from optimal truncation; the
    uniform coefficients are functions of it. ``optimal_truncation`` yields
    alpha in (0, 1] for every finite r; plans built by hand may carry any
    alpha, at the price of a larger remainder. The expansions read alpha
    from here, never recompute it.
    """

    m: int
    alpha: object
    nu: object

    @classmethod
    def for_m(cls, m: int, r, ctx: PrecisionContext = DEFAULT_CONTEXT) -> "TruncationPlan":
        if m < 0:
            raise DomainError("truncation order m must be nonnegative, got %r" % (m,))
        mctx = ctx.mp()
        rr = to_mpf(mctx, r)
        if not rr > 0:
            raise DomainError("truncation needs r > 0, got %s" % (rr,))
        return cls._exact(m, mctx.fmul(rr, rr, exact=True), mctx)

    @classmethod
    def _exact(cls, m: int, r2, mctx) -> "TruncationPlan":
        # m + 1/2 and r^2 agree in their leading digits once r^2 outgrows the
        # precision, so alpha is formed from the exact r^2 and only then rounded
        nu = m + mctx.mpf(1) / 2
        alpha = mctx.fadd(mctx.fsub(m, r2, exact=True), 0.5, exact=True)
        return cls(m=m, alpha=mctx.mpf(alpha), nu=nu)


def optimal_truncation(r, ctx: PrecisionContext = DEFAULT_CONTEXT) -> TruncationPlan:
    """The least-term cut m = floor(r^2 + 1/2), giving alpha in (0, 1]."""
    mctx = ctx.mp()
    rr = to_mpf(mctx, r)
    if not 0 < rr < mctx.inf:
        raise DomainError("optimal truncation needs a finite r > 0, got %s" % (rr,))
    if rr < 1:
        warnings.warn(
            "r = %s is below the asymptotic range; the truncated expansion "
            "carries no accuracy there" % (rr,),
            BelowAsymptoticRangeWarning,
            stacklevel=2,
        )
    r2 = mctx.fmul(rr, rr, exact=True)
    m = int(mctx.fadd(r2, 0.5, exact=True))  # floor, exactly
    return TruncationPlan._exact(m, r2, mctx)


def algebraic_partial_sums(
    arg: VoigtArgument, m: int, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> Evaluation:
    """The m-term algebraic partial sums K_m, L_m.

    K_m - i L_m = (1/sqrt(pi)) sum_{k<m} (-1)^k (1/2)_k w^{-2k-1}, summed by
    ``numerics.asymptotic_series`` in complex arithmetic at guard precision.
    When every term before m shrinks (m - 1 < r^2, as at the optimal cut),
    the sum stops after the first term below that precision, so its work
    stays near prec ln 2 / ln r^2 terms however large m = r^2 grows; a cut
    past the least term sums all m terms. This is the only form evaluated;
    the tests check it against the real trigonometric resummation in
    (r, theta) and against the full sum at higher precision.
    """
    if m < 0:
        raise DomainError("partial sum length must be nonnegative, got %r" % (m,))
    if arg.r == 0:
        raise DomainError("the algebraic expansion is undefined at the origin")
    mctx = ctx.mp(extra=GUARD_DIGITS)
    # r^2 exactly as the truncation plan squares it
    r2 = mctx.fmul(arg.r, arg.r, exact=True)
    S = asymptotic_series(mctx.mpc(arg.y, arg.x), r2, mctx, m)

    out = ctx.mp()
    K = out.mpf(S.real)
    L = out.mpf(-S.imag)
    return Evaluation(
        K=K, L=L, method="algebraic", err_estimate=ctx.eps() * (abs(K) + abs(L))
    )


@dataclass(frozen=True, slots=True)  # callers keep many; slots make each smaller
class RemainderEstimate:
    """An asymptotic estimate of the truncation remainder (hat-K, hat-L)."""

    Khat: object
    Lhat: object
    method: str
    err_estimate: object = None


def _admit(arg: VoigtArgument, variant: str, k_terms: int, ctx: PrecisionContext) -> bool:
    """Refuse or warn as the remainder estimate ``variant`` does at arg and
    k_terms, and return whether its series is the uniform one (eq42).

    Every estimate passes its checks here, before any of its work, so a
    caller that skips the work meets the same refusals and warnings.
    """
    uniform = variant == "eq42"
    if not uniform:
        if variant != "eq41":
            raise DomainError("unknown expansion variant %r" % (variant,))
        # the non-uniform prefactor 1/cos theta has its pole on the Stokes line
        mctx = ctx.mp(extra=GUARD_DIGITS)
        theta = mctx.convert(arg.theta)
        if theta > _constants(mctx).collar:
            raise DomainError(
                "theta = %s is inside the Stokes collar; the non-uniform estimate "
                "diverges there, use theorem2" % (theta,)
            )
    # the error estimate reads the first omitted coefficient, of order k_terms
    if not 1 <= k_terms <= K_MAX:
        raise UnsupportedOrderError("k_terms must lie in [1, %d], got %r" % (K_MAX, k_terms))
    if not uniform and theta > _constants(mctx).stokes_warn:
        warnings.warn(
            "theta is close to the Stokes line; the non-uniform estimate is "
            "degrading, prefer theorem2",
            StokesCollarWarning,
            stacklevel=3,
        )
    return uniform


def _series_estimate(arg, plan, k_terms: int, uniform: bool, ctx) -> RemainderEstimate:
    """The remainder estimate of every entry point, from one bracketed sum
    and its first omitted term, of order k_terms.

    away (eq41): e^{i (nu - 1/2) phi} sum_{k < k_terms} A_2k / r^{2k+1},
    divided by sin(phi/2) = cos theta. uniform (eq42): since
    B^_2k = -2i e^{i phi (1/2 - alpha)} B_2k, every term shares the phase
    of the head e^{i (nu - alpha) phi} E(phi), and the sum is
    e^{i (nu - alpha) phi} (E(phi) - 2i sum_{k < k_terms} B_2k / r^{2k+1}),
    E(phi) formed from the pass's c(phi). After m terms, hat-K - i hat-L =
    2 e^z T_nu(z) (z = w^2, nu = m + 1/2) is e^{-r^2}/sqrt(2 pi) times this
    sum; err_estimate is EST_SAFETY times the modulus of the first omitted
    term. Each variant reads only its own part of the point's one pass.
    """
    mctx = ctx.mp(extra=GUARD_DIGITS)
    phi, r, nu, alpha = (mctx.convert(v) for v in (arg.phi, arg.r, plan.nu, plan.alpha))
    coeffs = _pass(phi, alpha, ctx)
    if uniform:
        (C, c), rot, rpow = coeffs.uniform(k_terms), mctx.expj((nu - alpha) * phi), 1 / r
    else:
        # the away series' division by sin(phi/2) rides on the powers of r
        C, rot, rpow = coeffs.A(k_terms), mctx.expj((nu - 0.5) * phi), 1 / (r * coeffs.sin_half)
    # rpow and total are numbers of mctx, so the sum runs at its precision
    total = mctx.mpc(0)
    for k in range(k_terms):
        total += rpow * C[k]
        rpow /= r * r
    tail = abs(mctx.convert(C[k_terms])) * rpow
    if uniform:
        total = mctx.convert(_E_of_c(ctx.mp(), c, r)) - 2j * total
        tail *= 2
    pref = mctx.exp(-r * r) / _constants(mctx).sqrt_2pi
    total *= rot * pref
    out = ctx.mp()
    return RemainderEstimate(
        Khat=out.mpf(total.real),
        Lhat=out.mpf(-total.imag),
        method="eq42" if uniform else "eq41",
        err_estimate=out.mpf(EST_SAFETY * pref * tail),
    )


def terminant_asymptotic(
    z, nu, region: str = "uniform", k_terms: int = 3,
    ctx: PrecisionContext = DEFAULT_CONTEXT,
):
    """Asymptotic value of the terminant T_nu(z) near optimal order.

    Requires nu = |z| + alpha with |alpha| <= 1 and 0 <= arg z <= pi. The
    remainder after m terms is 2 e^z T_{m+1/2}(z), so region="away" is
    e^{-z}/2 times theorem1 and region="uniform" e^{-z}/2 times theorem2,
    at w = sqrt z: r = sqrt|z|, theta = arg z / 2 and phi = pi - arg z.
    Each refuses and warns as its theorem does. "away" is refused within
    THETA_COLLAR_OVER_PI of the Stokes line in theta, that is for
    arg z > 0.96 pi, where its prefactor pole sits, and warns with
    StokesCollarWarning past STOKES_WARN_OVER_PI (arg z > 0.8 pi). "uniform"
    holds up to and on the Stokes line arg z = pi, where T = 1/2 + O(|z|^{-1/2}).
    """
    if region not in ("away", "uniform"):
        raise DomainError("region must be 'away' or 'uniform', got %r" % (region,))
    mctx = ctx.mp(extra=GUARD_DIGITS)
    zz = mctx.mpc(z)
    absz = abs(zz)
    if absz == 0:
        raise DomainError("the terminant needs z != 0")
    argz = mctx.arg(zz)
    slack = mctx.mpf(10) ** (-12)
    if argz < -slack or argz > mctx.pi + slack:
        raise DomainError("terminant_asymptotic covers 0 <= arg z <= pi, got arg z = %s" % (argz,))
    nu = to_mpf(mctx, nu)
    alpha = nu - absz
    if abs(alpha) > 1 + slack:
        raise DomainError(
            "nu must sit within one unit of |z| (|alpha| <= 1), got alpha = %s" % (alpha,)
        )
    # w = y + ix; the slack lets arg z, and with it x, dip just below zero.
    # A negative real z has arg z = pi exactly, so phi = 0 exactly
    w = mctx.sqrt(zz)
    arg = VoigtArgument(
        x=abs(w.imag), y=w.real, r=mctx.sqrt(absz), theta=argz / 2, phi=mctx.pi - argz
    )
    uniform = _admit(arg, "eq42" if region == "uniform" else "eq41", k_terms, ctx)
    # T_nu for any real nu: the cut m = nu - 1/2 need not be an integer
    plan = TruncationPlan(m=nu - 0.5, alpha=alpha, nu=nu)
    est = _series_estimate(arg, plan, k_terms, uniform, ctx)
    return ctx.mp().mpc(mctx.exp(-zz) / 2 * mctx.mpc(est.Khat, -est.Lhat))


def theorem1(
    arg: VoigtArgument, plan: TruncationPlan, k_terms: int = 3,
    ctx: PrecisionContext = DEFAULT_CONTEXT,
) -> RemainderEstimate:
    """Non-uniform remainder estimate in the A-coefficients.

    hat-K - i hat-L ~ e^{-r^2}/(sqrt(2 pi) cos theta)
    sum_k e^{i m phi} A_2k(phi, alpha) / r^{2k+1}. Refused within
    THETA_COLLAR_OVER_PI of the Stokes line, where cos theta sends the
    prefactor through a pole; a warning marks the band where accuracy decays.
    """
    _admit(arg, "eq41", k_terms, ctx)
    return _series_estimate(arg, plan, k_terms, False, ctx)


def theorem2(
    arg: VoigtArgument, plan: TruncationPlan, k_terms: int = 3,
    ctx: PrecisionContext = DEFAULT_CONTEXT,
) -> RemainderEstimate:
    """Uniform remainder estimate in the B^-coefficients, valid through the
    Stokes line.

    hat-K - i hat-L ~ e^{-r^2}/sqrt(2 pi) { e^{i r^2 phi} E(phi)
    + sum_k e^{i m phi} B^_2k(phi, alpha) / r^{2k+1} }, with the error
    function inside E(phi) carrying the smoothed Stokes jump.
    """
    _admit(arg, "eq42", k_terms, ctx)
    return _series_estimate(arg, plan, k_terms, True, ctx)


def _visible_remainder(arg, plan, sums, k_terms, uniform, ctx) -> RemainderEstimate:
    """The remainder estimate at the optimal cut, run only to the digits it
    adds to the partial sums K_m and L_m.

    There the remainder is at most B = OPTIMAL_REMAINDER_BOUND e^{-r^2}, so
    a component S of the sums takes d = digits - floor(log10(|S| / B))
    digits from it. The smaller component decides, never |K_m| + |L_m|:
    near the Stokes line K ~ e^{-x^2} is the remainder itself. Where
    d <= 0 the estimate is skipped and B is its error estimate; otherwise
    it runs at d + 2 digits, rounded up to a multiple of
    REMAINDER_DIGITS_STEP and at most ``ctx.digits``. A zero component, or
    r < 1 (where m = 0 falls), keeps the full precision.
    """
    small = min(abs(sums.K), abs(sums.L))
    if arg.r < 1 or not small:
        return _series_estimate(arg, plan, k_terms, uniform, ctx)
    r2 = ctx.mp().fmul(arg.r, arg.r, exact=True)
    # ln(|S| / B) = r^2 - gap; r^2 may pass the float range, so it meets the
    # skip threshold through its log
    gap = math.log(OPTIMAL_REMAINDER_BOUND) - _float_log(small)
    room = ctx.digits * math.log(10) + gap
    if room <= 0 or _float_log(r2) >= math.log(room):
        low = PrecisionContext(digits=REMAINDER_DIGITS_STEP).mp()
        bound = OPTIMAL_REMAINDER_BOUND * low.exp(low.fneg(r2, exact=True))
        return RemainderEstimate(Khat=0, Lhat=0, method="bound", err_estimate=bound)
    d = ctx.digits - math.floor((float(r2) - gap) / math.log(10))
    step = REMAINDER_DIGITS_STEP
    digits = min(ctx.digits, max(step, -(-(d + 2) // step) * step))
    return _series_estimate(arg, plan, k_terms, uniform, PrecisionContext(digits=digits))


def evaluate_via_expansion(
    arg: VoigtArgument,
    variant: str = "eq42",
    k_terms: int = 3,
    m: int = None,
    ctx: PrecisionContext = DEFAULT_CONTEXT,
) -> Evaluation:
    """Full (K, L) as algebraic partial sums plus the estimated remainder.

    The workhorse behind the CLI expansion methods: cut at m (optimal when
    not given), sum the algebraic terms exactly, and add the asymptotic
    remainder estimate of the requested variant.

    At the optimal cut (m not given) with r >= 1 the remainder is at most
    2 e^{-r^2}, and its estimate runs only to the digits it adds to K_m and
    to L_m: at a reduced precision, or not at all once 2 e^{-r^2} is below
    the last digit of both, when that bound joins err_estimate instead.
    Refusals and warnings are the same either way. A given m, the optimal
    one included, always runs the estimate at full precision.
    """
    plan = optimal_truncation(arg.r, ctx) if m is None else TruncationPlan.for_m(m, arg.r, ctx)
    sums = algebraic_partial_sums(arg, plan.m, ctx)
    uniform = _admit(arg, variant, k_terms, ctx)
    if m is None:
        est = _visible_remainder(arg, plan, sums, k_terms, uniform, ctx)
    else:
        est = _series_estimate(arg, plan, k_terms, uniform, ctx)
    out = ctx.mp()
    return Evaluation(
        K=out.mpf(sums.K + est.Khat),
        L=out.mpf(sums.L + est.Lhat),
        method=variant,
        err_estimate=out.mpf((sums.err_estimate or 0) + (est.err_estimate or 0)),
    )
