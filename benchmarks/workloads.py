"""Seeded workload definitions and input generators.

The library receives only the decimal strings generated here. Each
(workload, seed, stream) triple seeds its own ``random.Random``, so the timed
inputs and the warm-up inputs come from disjoint streams: warm-up fills the
library's caches but never the answers to the timed inputs.

Draws are stratified in blocks: within a block of ``block`` draws every
equal-probability stratum of a distribution gets the same number of draws,
in shuffled order. The marginal distributions are the ones each field
states; stratifying only removes the seed-to-seed scatter of how much work
a run of a few hundred ops contains.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, NamedTuple

# the timed loop runs at least the checked ops, so that the 90th latency
# percentile has ten samples beyond it
MIN_CHECKED = 100


class PointOp(NamedTuple):
    r: str
    theta: str
    variant: str
    k_terms: int


class ScanOp(NamedTuple):
    r: str
    theta: str


@dataclass(frozen=True)
class PointsWorkload:
    """Evaluation traffic: one ``evaluate_via_expansion`` per op."""

    name: str
    digits: int
    r_min: float
    r_max: float
    why: str
    # share of points drawn with phi = pi - 2 theta uniform on (0, near_phi)
    near_share: float = 0.25
    near_phi: float = 0.15
    # above this theta/pi the variant is always eq42, below it a coin flip
    eq42_only_above: float = 0.45
    k_terms_max: int = 5
    block: int = 40
    warmup_ops: int = 20
    # the traced run replays a fixed op count, trace_count(seconds), so
    # that its counts repeat exactly
    trace_ops_per_s: float = 50.0
    # the untimed check covers the first check_count(seconds) timed ops, so
    # that a seed gives the same checked ops however fast the host runs
    check_ops_per_s: float = 60.0
    kind: str = "points"
    # the loop may stop after any op
    group = 1

    def trace_count(self, seconds: float) -> int:
        return max(20, round(self.trace_ops_per_s * seconds))

    def check_count(self, seconds: float) -> int:
        return max(MIN_CHECKED, round(self.check_ops_per_s * seconds))

    def ops(self, seed: int, stream: str) -> Iterator[PointOp]:
        # Each block crosses block / k_terms_max radius strata with every
        # k_terms; every near_period-th cell is a near-Stokes point and the
        # eq41/eq42 coin alternates across (stratum, k_terms), so each block
        # holds the same mix of work. Cells run in shuffled order.
        rng = random.Random("%s/%d/%s" % (self.name, seed, stream))
        log_span = math.log(self.r_max / self.r_min)
        n_strata = self.block // self.k_terms_max
        near_period = round(1 / self.near_share)
        n_near = len(range(0, self.block, near_period))
        while True:
            u_near = iter(stratified(rng, n_near))
            u_far = iter(stratified(rng, self.block - n_near))
            cells = []
            for i in range(self.block):
                stratum, k_index = divmod(i, self.k_terms_max)
                r = self.r_min * math.exp(log_span * (stratum + rng.random()) / n_strata)
                if i % near_period == 0:
                    theta = (math.pi - self.near_phi * next(u_near)) / 2
                else:
                    theta = next(u_far) * math.pi / 2
                eq42 = theta / math.pi > self.eq42_only_above or (stratum + k_index) % 2 == 0
                cells.append(PointOp(repr(r), repr(theta), "eq42" if eq42 else "eq41",
                                     1 + k_index))
            rng.shuffle(cells)
            yield from cells


@dataclass(frozen=True)
class ScanWorkload:
    """Remainder-scan traffic: a grid of angles at each seeded radius."""

    name: str
    digits: int
    r_min: float
    r_max: float
    why: str
    n_angles: int = 11
    angle_step_over_pi: str = "0.048"
    k_terms: int = 3
    block: int = 9
    warmup_radii: int = 1
    trace_radii_per_s: float = 0.25
    check_radii_per_s: float = 0.5
    kind: str = "scan"

    @property
    def group(self) -> int:
        """Ops of one radius run together."""
        return self.n_angles

    @property
    def warmup_ops(self) -> int:
        return self.warmup_radii * self.n_angles

    def trace_count(self, seconds: float) -> int:
        return max(1, round(self.trace_radii_per_s * seconds)) * self.n_angles

    def check_count(self, seconds: float) -> int:
        radii = max(-(-MIN_CHECKED // self.n_angles), round(self.check_radii_per_s * seconds))
        return radii * self.n_angles

    def angles(self):
        """Decimal strings of the angles theta of the fixed grid."""
        # imported here so that the set-up timer covers the mpmath import
        from mpmath import MPContext

        mp = MPContext()
        mp.dps = 60
        step = mp.mpf(self.angle_step_over_pi) * mp.pi
        return [mp.nstr(j * step, 50) for j in range(self.n_angles)]

    def ops(self, seed: int, stream: str) -> Iterator[ScanOp]:
        rng = random.Random("%s/%d/%s" % (self.name, seed, stream))
        grid = self.angles()
        while True:
            for u in stratified(rng, self.block):
                r = repr(self.r_min + (self.r_max - self.r_min) * u)
                for theta in grid:
                    yield ScanOp(r, theta)


def stratified(rng: random.Random, n: int) -> list:
    """n uniform draws on [0, 1), one in each interval [i/n, (i+1)/n),
    in random order."""
    draws = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(draws)
    return draws


WORKLOADS = {
    w.name: w
    for w in (
        PointsWorkload(
            name="points-40",
            digits=40,
            r_min=2.0,
            r_max=8.0,
            why="evaluation at 40 digits, where the coefficient layer "
            "(B2k, Bhat2k, E_of_phi) does most of the work and no two ops "
            "share a radius",
        ),
        PointsWorkload(
            name="points-100-wide",
            digits=100,
            r_min=8.0,
            r_max=30.0,
            warmup_ops=40,
            trace_ops_per_s=6.0,
            check_ops_per_s=8.0,
            why="evaluation at 100 digits with radii up to 30, where the "
            "algebraic partial sum dominates and e^-r^2 crosses the "
            "100-digit epsilon",
        ),
        ScanWorkload(
            name="scan-40",
            digits=40,
            r_min=3.0,
            r_max=8.0,
            why="remainder scans and the frozen table checks, where quadrature "
            "in remainder_exact dominates and 11 angles share each radius",
        ),
    )
}
