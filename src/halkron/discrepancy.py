"""Exact star discrepancy in one and two dimensions, brute-force oracles,
and growth-exponent fitting.

The sup over anchored boxes is realized as a max over corner candidates
taken from the point coordinates and 1: closed counting captures the
overshoot limits (boxes shrinking onto a corner from above), open counting
captures the undershoot side.

The 2D routine ranks the distinct coordinates exactly (by sorting the
integer numerators) and makes one sweep over the rows of distinct x in
increasing order, in blocks of at most ``_BLOCK_CELLS`` corners.  A running
row holds the exact closed counts C (points with x <= row, y <= column);
each point of a row adds 1 to a suffix of it.  The open count of a corner
is the closed count one row up and one column left.  Counts are exact
integers; only the volume is a float, so a block's terms C - N*x*y and
N*x*y - C (in units of 1/N) err by a few ulp of N.  Every corner within
N*_CONFIRM_MARGIN of the running float maximum is kept with its exact
count, and the list is pruned each time the maximum rises.  The float
error is orders of magnitude below the margin, so every exact maximizer
survives, and each survivor is confirmed in O(1) as c/N - x*y (closed) or
x*y - c/N (open) in exact rationals.  The sweep is O(N^2) vectorized work
with O(N + _BLOCK_CELLS) memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .numtheory import UnitFraction
from .sequences import PerturbSpec, PointSet2, generate_point_set

# float terms are accurate to a few ulp; anything this close to the float
# maximum gets re-checked exactly
_CONFIRM_MARGIN = 1e-9
# a sweep block holds at most this many float64 corners (512 KiB)
_BLOCK_CELLS = 1 << 16


class GuardError(ValueError):
    """Raised when a scan would exceed the configured size guard."""


@dataclass(frozen=True)
class BoxSide:
    """One coordinate of a witness corner; closed means the counting that
    attains the supremum includes points sitting exactly on the corner."""

    coord: Fraction
    closed: bool


@dataclass(frozen=True)
class DiscrepancyResult:
    n_points: int
    d_star: Fraction
    witness_box: tuple[BoxSide, ...]

    @property
    def value(self) -> float:
        return float(self.d_star)


def star_discrepancy_1d(xs: Sequence[UnitFraction]) -> DiscrepancyResult:
    """Order-statistics formula max_i max(i/N - x_(i), x_(i) - (i-1)/N)."""
    n = len(xs)
    if n == 0:
        raise ValueError("empty point set")
    vals = sorted(x.as_fraction() for x in xs)
    best = Fraction(-1)
    witness = None
    for i, x in enumerate(vals, start=1):
        pos = Fraction(i, n) - x
        neg = x - Fraction(i - 1, n)
        if pos > best:
            best, witness = pos, (BoxSide(x, True),)
        if neg > best:
            best, witness = neg, (BoxSide(x, False),)
    return DiscrepancyResult(n, best, witness)


def star_discrepancy_2d(ps: PointSet2) -> DiscrepancyResult:
    """Exact supremum over anchored boxes: one blocked float sweep over the
    exact coordinate ranks, then exact rational confirmation of every
    near-maximal corner from its exact count."""
    n = len(ps)
    if n == 0:
        raise ValueError("empty point set")
    q = 1 << ps.width
    xs = sorted(set(ps.x_bits))
    ys = sorted(set(ps.y_bits))
    nx, ny = len(xs), len(ys)
    rank_x = {v: i for i, v in enumerate(xs)}
    rank_y = {v: i for i, v in enumerate(ys)}
    # y ranks of the points on each row; row nx (x = 1) holds none
    row_ys: list[list[int]] = [[] for _ in range(nx + 1)]
    for a, b in zip(ps.x_bits, ps.y_bits):
        row_ys[rank_x[a]].append(rank_y[b])
    # row nx and column ny are the corners at x = 1 and y = 1
    xs.append(q)
    ys.append(q)
    x_n = np.array([v / q for v in xs]) * n
    y_f = np.array([v / q for v in ys])

    # terms are carried in units of 1/N: closed C - N*x*y, open N*x*y - C
    margin = n * _CONFIRM_MARGIN
    best = -math.inf
    cands: list[tuple[float, bool, int, int, int]] = []  # (term, closed, row, col, count)

    def keep(terms: np.ndarray, closed: bool, a0: int, le: np.ndarray, above: np.ndarray):
        nonlocal best, cands
        m = float(terms.max())
        if m > best:
            best = m
            cands = [c for c in cands if c[0] >= best - margin]
        if m < best - margin:
            return
        for i, j in zip(*np.nonzero(terms >= best - margin)):
            if closed:
                c = le[i, j]
            else:  # points strictly below and left: one row up, one column left
                c = 0 if j == 0 else (le[i - 1] if i else above)[j - 1]
            cands.append((float(terms[i, j]), closed, a0 + int(i), int(j), int(c)))

    step = max(1, _BLOCK_CELLS // (ny + 1))
    le_buf = np.empty((step, ny))  # closed counts, exact in float64
    xy_buf = np.empty((step, ny + 1))
    t_buf = np.empty((step, ny))
    cnt = np.zeros(ny)  # closed counts of the last row filled
    above = np.zeros(ny)  # closed counts of the row above the block
    for a0 in range(0, nx + 1, step):
        r = min(step, nx + 1 - a0)
        le, xy = le_buf[:r], xy_buf[:r]
        for i in range(r):
            for b in row_ys[a0 + i]:
                cnt[b:] += 1
            le[i] = cnt
        np.multiply.outer(x_n[a0:a0 + r], y_f, out=xy)
        rows = min(r, nx - a0)  # closed corners at x = 1 or y = 1 are dominated
        if rows:
            keep(np.subtract(le[:rows], xy[:rows, :ny], out=t_buf[:rows]), True, a0, le, above)
        xy[0, 1:] -= above
        xy[1:, 1:] -= le[:-1]
        keep(xy, False, a0, le, above)
        above[:] = le[-1]

    # the lexicographically smallest (closed, x, y) among the exact maximizers
    d_star: Fraction | None = None
    witness: tuple[BoxSide, ...] = ()
    for _, closed, a, b, c in sorted(cands, key=lambda t: t[1:4]):
        vol = Fraction(xs[a] * ys[b], q * q)
        term = Fraction(c, n) - vol if closed else vol - Fraction(c, n)
        if d_star is None or term > d_star:
            d_star = term
            witness = (BoxSide(Fraction(xs[a], q), closed), BoxSide(Fraction(ys[b], q), closed))
    return DiscrepancyResult(n, d_star, witness)


def brute_force_discrepancy_points(ps: PointSet2) -> Fraction:
    """Independent oracle: full enumeration of corners over the point
    coordinates and 1, both counting modes, everything in exact rationals."""
    n = len(ps)
    if n == 0:
        raise ValueError("empty point set")
    q = 1 << ps.width
    xs_u = sorted(set(ps.x_bits))
    ys_u = sorted(set(ps.y_bits))
    rx = {v: i for i, v in enumerate(xs_u)}
    ry = {v: i for i, v in enumerate(ys_u)}
    p_, q_ = len(xs_u), len(ys_u)
    cnt = np.zeros((p_, q_), dtype=np.int64)
    for a, b in zip(ps.x_bits, ps.y_bits):
        cnt[rx[a], ry[b]] += 1
    cum = np.zeros((p_ + 1, q_ + 1), dtype=np.int64)
    cum[1:, 1:] = cnt.cumsum(axis=0).cumsum(axis=1)

    best = Fraction(0)
    for a in range(p_ + 1):
        xnum = xs_u[a] if a < p_ else q
        le_a = a + 1 if a < p_ else p_
        lt_a = a if a < p_ else p_
        for b in range(q_ + 1):
            ynum = ys_u[b] if b < q_ else q
            le_b = b + 1 if b < q_ else q_
            lt_b = b if b < q_ else q_
            vol = Fraction(xnum * ynum, q * q)
            t1 = abs(Fraction(int(cum[le_a, le_b]), n) - vol)
            t2 = abs(vol - Fraction(int(cum[lt_a, lt_b]), n))
            if t1 > best:
                best = t1
            if t2 > best:
                best = t2
    return best


def brute_force_discrepancy_2d(ps: PointSet2, grid: int) -> float:
    """Max over the (grid+1)^2 uniform corners of |A/N - area| with both
    strict and non-strict counting; a lower bound converging to the exact
    value, computed with exact corner comparisons."""
    if grid < 2:
        raise ValueError("grid must be >= 2")
    n = len(ps)
    if n == 0:
        raise ValueError("empty point set")
    q = 1 << ps.width
    g = grid
    # smallest corner index strictly above / at-or-above each coordinate
    hist_lt = np.zeros((g + 1, g + 1), dtype=np.int64)
    hist_le = np.zeros((g + 1, g + 1), dtype=np.int64)
    for a, b in zip(ps.x_bits, ps.y_bits):
        ax, ay = a * g // q + 1, b * g // q + 1
        bxi, byi = -(-a * g // q), -(-b * g // q)  # ceil
        if ax <= g and ay <= g:
            hist_lt[ax, ay] += 1
        if bxi <= g and byi <= g:
            hist_le[bxi, byi] += 1
    cum_lt = hist_lt.cumsum(axis=0).cumsum(axis=1)
    cum_le = hist_le.cumsum(axis=0).cumsum(axis=1)
    idx = np.arange(g + 1, dtype=float)
    vol = np.outer(idx, idx) / (g * g)
    d = np.abs(cum_le / n - vol)
    d = np.maximum(d, np.abs(vol - cum_lt / n))
    return float(d.max())


@dataclass(frozen=True)
class GrowthRecord:
    """(N, N*D*) samples along N = 2^{nL} with the fitted log-log slope."""

    n: int
    samples: tuple[tuple[int, int, float], ...]  # (L, N, N*D*_N)
    fitted_exponent: float | None
    residual: float | None
    reference_exponent: float


def growth_scan(
    spec: PerturbSpec,
    alpha: UnitFraction,
    exponents: Sequence[int],
    guard: int = 1 << 16,
    force: bool = False,
) -> GrowthRecord:
    """N*D*_N at N = 2^{nL} for each L, with an unweighted least-squares fit
    of log(N*D*) against log N.  The underlying bounds only control the
    limsup rate, so the fit is reported with its residual, never asserted."""
    from .trigprod import a_exponent

    if not exponents:
        raise ValueError("need at least one L value")
    n = spec.period
    for ell in exponents:
        if ell < 1:
            raise ValueError("L values must be >= 1")
        if (1 << (n * ell)) > guard and not force:
            raise GuardError(f"N = 2^{n * ell} exceeds the guard {guard}")
    samples = []
    for ell in sorted(exponents):
        big_n = 1 << (n * ell)
        ps = generate_point_set(spec, alpha, big_n)
        res = star_discrepancy_2d(ps)
        samples.append((ell, big_n, float(big_n * res.d_star)))
    if len(samples) >= 2:
        logs_n = np.log([s[1] for s in samples])
        logs_d = np.log([s[2] for s in samples])
        slope, intercept = np.polyfit(logs_n, logs_d, 1)
        resid = float(np.max(np.abs(logs_d - (slope * logs_n + intercept))))
        fitted: float | None = float(slope)
    else:
        fitted, resid = None, None
    return GrowthRecord(n, tuple(samples), fitted, resid, a_exponent(n))
