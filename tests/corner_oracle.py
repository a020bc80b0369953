"""Oracles for the exact 2D star discrepancy by corner enumeration.

``brute_force_discrepancy_points`` evaluates every corner over the point
coordinates and 1, in both counting modes, in exact rationals: it is the
gate of acceptance criterion 7.  ``brute_force_discrepancy_2d`` takes the
same maximum over a uniform grid of corners only, a lower bound that
converges to the exact value as the grid refines.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from halkron.numtheory import from_words
from halkron.sequences import PointSet2


def brute_force_discrepancy_points(ps: PointSet2) -> Fraction:
    """Independent oracle: full enumeration of corners over the point
    coordinates and 1, both counting modes, everything in exact rationals."""
    n = len(ps)
    if n == 0:
        raise ValueError("empty point set")
    q = 1 << ps.width
    xb, yb = from_words(ps.x, ps.width), from_words(ps.y, ps.width)
    xs_u = sorted(set(xb))
    ys_u = sorted(set(yb))
    rx = {v: i for i, v in enumerate(xs_u)}
    ry = {v: i for i, v in enumerate(ys_u)}
    p_, q_ = len(xs_u), len(ys_u)
    cnt = np.zeros((p_, q_), dtype=np.int64)
    for a, b in zip(xb, yb):
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
    for a, b in zip(from_words(ps.x, ps.width), from_words(ps.y, ps.width)):
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
