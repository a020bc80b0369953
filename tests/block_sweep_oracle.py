"""Oracle for the exact 2D star discrepancy: the former single blocked
sweep over the exact coordinate ranks, which evaluates every corner.

It makes one pass over all rows of distinct x in blocks of at most
``_BLOCK_CELLS`` corners, keeps every corner whose float term lies within
``_CONFIRM_MARGIN`` of the running float maximum together with its exact
count, and confirms the survivors in exact rationals.  It is Theta(N^2)
with no pruning, so it checks the two-pass sweep's pruning: both must
return the same ``(d_star, witness_box)``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from halkron.discrepancy import _BLOCK_CELLS, _CONFIRM_MARGIN, BoxSide, DiscrepancyResult
from halkron.numtheory import from_words
from halkron.sequences import PointSet2


def block_sweep_discrepancy_2d(ps: PointSet2) -> DiscrepancyResult:
    """Exact supremum over anchored boxes: one blocked float sweep over the
    exact coordinate ranks, then exact rational confirmation of every
    near-maximal corner from its exact count."""
    n = len(ps)
    if n == 0:
        raise ValueError("empty point set")
    q = 1 << ps.width
    xb, yb = from_words(ps.x, ps.width), from_words(ps.y, ps.width)
    xs = sorted(set(xb))
    ys = sorted(set(yb))
    nx, ny = len(xs), len(ys)
    rank_x = {v: i for i, v in enumerate(xs)}
    rank_y = {v: i for i, v in enumerate(ys)}
    # y ranks of the points on each row; row nx (x = 1) holds none
    row_ys: list[list[int]] = [[] for _ in range(nx + 1)]
    for a, b in zip(xb, yb):
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
