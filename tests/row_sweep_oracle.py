"""Mid-size oracle for the exact 2D star discrepancy: the former two-pass
float row sweep with float-bucket exact confirmation.

It scans every distinct double x in increasing order, once for the float
maximum and once more to collect each corner whose float term lies within
``_CONFIRM_MARGIN`` of it, then maps every candidate double back to all
exact numerators that round to it and recounts each exact corner in O(N).
Its cost is quadratic with a large constant, so it is meant for N <= 2^12.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction

import numpy as np

from halkron.discrepancy import _CONFIRM_MARGIN, BoxSide, DiscrepancyResult
from halkron.numtheory import from_words
from halkron.sequences import PointSet2


def _scan_rows(
    n: int,
    xs_f: np.ndarray,
    ys_f: np.ndarray,
    y_rank_sorted: np.ndarray,
    x_bounds: np.ndarray,
    threshold: float | None,
):
    """One sweep over the distinct x candidates in increasing order.

    Returns the float maximum; when ``threshold`` is given also returns every
    candidate corner (mode, x_float, y_float) whose term reaches it.
    """
    qy = len(ys_f)
    ys_ext = np.append(ys_f, 1.0)
    cnt = np.zeros(qy, dtype=np.int64)
    included = 0
    best = -math.inf
    cands: list[tuple[bool, float, float]] = []
    lt_ext = np.empty(qy + 1)

    def neg_row(x: float) -> None:
        nonlocal best
        cums = np.cumsum(cnt)
        lt_ext[:qy] = cums - cnt
        lt_ext[qy] = included
        terms = x * ys_ext - lt_ext / n
        m = float(terms.max())
        if m > best:
            best = m
        if threshold is not None:
            for t in np.nonzero(terms >= threshold)[0]:
                cands.append((False, x, float(ys_ext[t])))

    for ix, x in enumerate(xs_f):
        neg_row(float(x))
        lo, hi = x_bounds[ix], x_bounds[ix + 1]
        np.add.at(cnt, y_rank_sorted[lo:hi], 1)
        included += hi - lo
        cums = np.cumsum(cnt)
        terms = cums / n - float(x) * ys_f
        m = float(terms.max())
        if m > best:
            best = m
        if threshold is not None:
            for t in np.nonzero(terms >= threshold)[0]:
                cands.append((True, float(x), float(ys_f[t])))
    neg_row(1.0)
    return best, cands


def row_sweep_discrepancy_2d(ps: PointSet2) -> DiscrepancyResult:
    """Exact supremum over anchored boxes; float pre-scan plus exact rational
    confirmation of every near-maximal corner."""
    n = len(ps)
    if n == 0:
        raise ValueError("empty point set")
    q = 1 << ps.width
    xb, yb = from_words(ps.x, ps.width), from_words(ps.y, ps.width)
    # round-to-nearest double coordinates
    xf = np.array([b / q for b in xb], dtype=float)
    yf = np.array([b / q for b in yb], dtype=float)
    xs_f = np.unique(xf)
    ys_f = np.unique(yf)
    order = np.argsort(xf, kind="stable")
    y_rank_sorted = np.searchsorted(ys_f, yf[order])
    x_rank_sorted = np.searchsorted(xs_f, xf[order])
    # start offset of each distinct x among the sorted points
    x_bounds = np.searchsorted(x_rank_sorted, np.arange(len(xs_f) + 1))

    fmax, _ = _scan_rows(n, xs_f, ys_f, y_rank_sorted, x_bounds, None)
    _, cands = _scan_rows(n, xs_f, ys_f, y_rank_sorted, x_bounds, fmax - _CONFIRM_MARGIN)

    # float value -> exact numerators over q (several exact values can share
    # a float, and the artificial corner at 1 shares the bucket of any
    # coordinate that rounds to 1.0)
    bx: dict[float, set[int]] = defaultdict(set)
    by: dict[float, set[int]] = defaultdict(set)
    for v in set(xb):
        bx[v / q].add(v)
    for v in set(yb):
        by[v / q].add(v)
    bx[1.0].add(q)
    by[1.0].add(q)

    exact_cands: set[tuple[bool, int, int]] = set()
    for closed, xfv, yfv in cands:
        for xnum in bx[xfv]:
            for ynum in by[yfv]:
                exact_cands.add((closed, xnum, ynum))

    best: Fraction | None = None
    witness: tuple[BoxSide, ...] = ()
    for closed, xnum, ynum in sorted(exact_cands):
        if closed:
            c = sum(1 for a, b in zip(xb, yb) if a <= xnum and b <= ynum)
            term = Fraction(c, n) - Fraction(xnum * ynum, q * q)
        else:
            c = sum(1 for a, b in zip(xb, yb) if a < xnum and b < ynum)
            term = Fraction(xnum * ynum, q * q) - Fraction(c, n)
        if best is None or term > best:
            best = term
            witness = (
                BoxSide(Fraction(xnum, q), closed),
                BoxSide(Fraction(ynum, q), closed),
            )
    return DiscrepancyResult(n, best, witness)
