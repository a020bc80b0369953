"""Exact star discrepancy in two dimensions and growth-exponent fitting.

The sup over anchored boxes is realized as a max over corner candidates
taken from the point coordinates and 1: closed counting captures the
overshoot limits (boxes shrinking onto a corner from above), open counting
captures the undershoot side.

The 2D routine ranks the distinct coordinates exactly (one ``np.lexsort``
over their word columns).  Row a is the a-th distinct x (row nx is x = 1),
column b the b-th distinct y (column ny is y = 1).  With X_a = N*x_a and
C(a, b) the number of points with x rank <= a and y rank <= b, row a holds
the closed terms C(a, b) - X_a*y_b (b < ny, a < nx; closed corners at x = 1
or y = 1 are dominated) and the open terms X_a*y_b - C(a-1, b-1), all in
units of 1/N.  Counts are exact integers; only the volume is a float, so a
term errs by a few ulp of N.

One generator, ``_RankSweep.terms``, gives both kinds of term for any
increasing list of rows, in blocks of at most ``_BLOCK_CELLS`` corners.  It
keeps a running row of exact closed counts, to which each point adds 1 on
a suffix (or, past more than ``_FOLD_POINTS`` points, one cumulative
histogram).  Per block it forms X_a*y_b once, writes the closed terms over
the counts C(a, b) and the open terms over X_a*y_b, and keeps the counts
C(a-1, b-1).  An open corner's exact count is one of those; a closed
corner's adds to C(a-1, b) the row's own points with y rank <= b, found by
one binary search over the sorted (x rank, y rank) keys of the points.

Two passes read the generator and do no term arithmetic of their own.

Pass 1 takes the float maxima of both kinds of term on the sample rows:
every ``_SAMPLE_STRIDE``-th row and row nx.  Let best0 be the largest
(row nx's closed maximum only serves as a bound).  For s < a of the same
column b, with all y <= 1:

- closed, forward: C(a, b) - X_a*y_b <= C(s, b) + (points in rows (s, a])
  - X_s*y_b, since X_a >= X_s;
- closed, backward from t > a: C(a, b) - X_a*y_b <= C(t, b) - X_t*y_b +
  (X_t - X_a)*y_b <= closed(t, b) + X_t - X_a;
- open, forward: X_a*y_b - C(a-1, b-1) <= X_s*y_b - C(s-1, b-1) + X_a - X_s;
- open, backward from t > a: X_a*y_b - C(a-1, b-1) <= X_t*y_b - C(t-1, b-1)
  + (points in rows [a, t)).

So a row a between the sample rows s < a < t has no term above the bound
max(min(closed max(s) + points in (s, a], closed max(t) + X_t - X_a),
min(open max(s) + X_a - X_s, open max(t) + points in [a, t))), and a
sample row none above its own maxima.  Pass 1 bounds every row at once,
in O(N) temporaries, and keeps the rows whose bound is at least
best0 - 2*N*_CONFIRM_MARGIN.

Pass 2 reads only those rows and keeps every corner within
N*_CONFIRM_MARGIN of the running float maximum, with its exact count; the
list is pruned each time the maximum rises.  Every row with a corner in
that band is swept: its bound is at least the corner's term, which is at
least (float maximum) - N*_CONFIRM_MARGIN >= best0 - N*_CONFIRM_MARGIN,
and the second margin covers the float error of the bounds.  So pass 2
keeps the same corners as a sweep of every row, and since the float error
is orders of magnitude below the margin, every exact maximizer.  Each
survivor is confirmed in O(1) as c/N - x*y (closed) or x*y - c/N (open)
in exact rationals, and the witness is the smallest (closed, x, y) among
the exact maximizers.

Pass 1 costs 1/_SAMPLE_STRIDE of a full sweep plus one suffix add per
point.  On the generated sets only a few dozen rows reach pass 2, but the
worst case stays O(N^2): on a set where no row can be ruled out (every
row holds the maximum), pass 2 sweeps every row.  Memory is
O(N + _BLOCK_CELLS).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .numtheory import UnitFraction, from_words
from .sequences import PerturbSpec, PointSet2, generate_point_set
from .trigprod import a_exponent, doubled_phases

# float terms are accurate to a few ulp; anything this close to the float
# maximum gets re-checked exactly
_CONFIRM_MARGIN = 1e-9
# a sweep block holds at most this many float64 corners (512 KiB)
_BLOCK_CELLS = 1 << 16
# the first pass takes the row maxima of every this many-th row
_SAMPLE_STRIDE = 8
# more points than this between two swept rows are added as one histogram
_FOLD_POINTS = 8


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


def _ranks(words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of a word array in increasing order, the rank of
    each row among them, and the number of rows of lower rank than each
    distinct row: one lexsort, the most significant word the primary key."""
    order = np.lexsort(words.T[::-1])
    ordered = words[order]
    new = np.append(True, (ordered[1:] != ordered[:-1]).any(axis=1))
    rank = np.empty_like(order)
    rank[order] = np.cumsum(new) - 1
    return ordered[new], rank, np.flatnonzero(new)


class _RankSweep:
    """Exact coordinate ranks of a point set, and the one term sweep that
    both passes of the 2D discrepancy read.

    Rows are the distinct x in increasing order plus row nx (x = 1),
    columns the distinct y plus column ny (y = 1).  Row a holds the closed
    terms C(a, b) - X_a*y_b and the open terms X_a*y_b - C(a-1, b-1) in
    units of 1/N, with X = N*x and C(a, b) the number of points with x rank
    <= a and y rank <= b."""

    def __init__(self, ps: PointSet2):
        n = len(ps)
        (self.xs, rank_x, below), (self.ys, rank_y, _) = _ranks(ps.x), _ranks(ps.y)
        self.nx, self.ny = nx, ny = len(self.xs), len(self.ys)
        # each point as x rank * ny + y rank, in increasing order, and its y
        # rank + 1, the first count column it adds to; rows a-1 and a end at
        # k[a] and k[a+1] (row nx holds no point)
        self.keys = np.sort(rank_x * ny + rank_y)
        self.pts_y1 = (self.keys % ny + 1).tolist()
        self.k = np.append(below, [n, n])
        self.x_n = np.append(doubled_phases(self.xs, 1), 1.0) * n
        self.y_f = np.append(doubled_phases(self.ys, 1), 1.0)
        self.step = step = max(1, _BLOCK_CELLS // (ny + 1))
        self.le = np.empty((step, ny))  # C(a, b), exact in float64, then the closed terms
        self.lt = np.zeros((step, ny + 1))  # C(a-1, b-1), 0 in column 0
        self.xy = np.empty((step, ny + 1))  # X_a*y_b, then the open terms

    def terms(self, rows: np.ndarray):
        """Yield (chunk, closed, opened, lt) for chunks of at most ``step``
        of the increasing ``rows``; for a = chunk[i], closed[i, b] =
        C(a, b) - X_a*y_b (b < ny), opened[i, b] = X_a*y_b - C(a-1, b-1) and
        lt[i, b] = C(a-1, b-1) (b <= ny, C(a-1, -1) = 0).  The next chunk
        reuses the buffers.  Skipped rows cost one cumulative histogram."""
        ny = self.ny
        cnt = np.zeros(ny + 1)  # cnt[b]: points folded so far with y rank < b
        closed_cnt = cnt[1:]
        done = 0  # points folded, in increasing x rank
        k = self.k.tolist()

        def fold(upto: int) -> None:
            nonlocal done
            ys = self.pts_y1[done:upto]
            if len(ys) > _FOLD_POINTS:
                cnt[:] += np.bincount(ys, minlength=ny + 1).cumsum()
            else:
                for b in ys:
                    cnt[b:] += 1
            done = upto

        for i0 in range(0, len(rows), self.step):
            chunk = rows[i0:i0 + self.step]
            r = len(chunk)
            le, lt, xy = self.le[:r], self.lt[:r], self.xy[:r]
            for i, a in enumerate(chunk.tolist()):
                fold(k[a])
                lt[i] = cnt
                fold(k[a + 1])
                le[i] = closed_cnt
            np.multiply.outer(self.x_n[chunk], self.y_f, out=xy)
            yield chunk, np.subtract(le, xy[:, :ny], out=le), np.subtract(xy, lt, out=xy), lt

    def rows_to_visit(self, margin: float) -> np.ndarray:
        """Pass 1: the float row maxima of the sample rows (every
        ``_SAMPLE_STRIDE``-th and row nx), then the rows whose bound is at
        least best0 - 2*margin, best0 the largest sample maximum."""
        nx, k, x_n = self.nx, self.k, self.x_n
        samples = np.append(np.arange(0, nx, _SAMPLE_STRIDE), nx)
        # closed and open maxima; row nx's closed maximum only bounds
        maxima = [(c.max(axis=1), o.max(axis=1)) for _, c, o, _ in self.terms(samples)]
        top_c, top_o = (np.concatenate(m) for m in zip(*maxima))
        best0 = max(float(top_c[:-1].max()), float(top_o.max()))
        thr = best0 - 2.0 * margin
        # rows a < nx lie between the samples s = samples[lo] <= a < t = samples[lo + 1]
        a = np.arange(nx)
        lo = a // _SAMPLE_STRIDE
        s, t = samples[lo], samples[lo + 1]
        closed = np.minimum(top_c[lo] + (k[a + 1] - k[s + 1]), top_c[lo + 1] + (x_n[t] - x_n[a]))
        opened = np.minimum(top_o[lo] + (x_n[a] - x_n[s]), top_o[lo + 1] + (k[t] - k[a]))
        visit = a[np.maximum(closed, opened) >= thr]
        return np.append(visit, nx) if top_o[-1] >= thr else visit

    def near_max_corners(self, rows: np.ndarray, margin: float):
        """Pass 2: every corner of ``rows`` whose float term lies within
        ``margin`` of the float maximum, as (term, closed, row, col, count)."""
        nx = self.nx
        best = -math.inf
        cands: list[tuple[float, bool, int, int, int]] = []

        def keep(terms: np.ndarray, closed: bool, chunk: np.ndarray, lt: np.ndarray):
            nonlocal best, cands
            m = float(terms.max())
            if m > best:
                best = m
                cands = [c for c in cands if c[0] >= best - margin]
            if m < best - margin:
                return
            i, b = np.nonzero(terms >= best - margin)
            a = chunk[i]
            if closed:  # C(a-1, b) plus the row's own points with y rank <= b
                own = np.searchsorted(self.keys, a * self.ny + b, side="right") - self.k[a]
                counts = lt[i, b + 1] + own
            else:
                counts = lt[i, b]
            cands.extend(zip(terms[i, b].tolist(), [closed] * len(i), a.tolist(), b.tolist(),
                             counts.astype(np.int64).tolist()))

        for chunk, closed, opened, lt in self.terms(rows):
            r = int(np.searchsorted(chunk, nx))  # closed corners at x = 1 or y = 1 are dominated
            if r:
                keep(closed[:r], True, chunk, lt)
            keep(opened, False, chunk, lt)
        return cands


def star_discrepancy_2d(ps: PointSet2) -> DiscrepancyResult:
    """Exact supremum over anchored boxes: a pass over the sample rows that
    proves most rows cannot hold the maximum, a blocked float sweep over
    the rest, then exact rational confirmation of every near-maximal corner
    from its exact count."""
    n = len(ps)
    if n == 0:
        raise ValueError("empty point set")
    sweep = _RankSweep(ps)
    # terms are carried in units of 1/N
    margin = n * _CONFIRM_MARGIN
    cands = sweep.near_max_corners(sweep.rows_to_visit(margin), margin)

    q = 1 << ps.width
    # the lexicographically smallest (closed, x, y) among the exact maximizers
    d_star: Fraction | None = None
    witness: tuple[BoxSide, ...] = ()
    for _, closed, a, b, c in sorted(cands, key=lambda t: t[1:4]):
        # the exact numerators; row nx and column ny are x = 1 and y = 1
        x, y = (from_words(v[i : i + 1], ps.width)[0] if i < len(v) else q
                for v, i in ((sweep.xs, a), (sweep.ys, b)))
        vol = Fraction(x * y, q * q)
        term = Fraction(c, n) - vol if closed else vol - Fraction(c, n)
        if d_star is None or term > d_star:
            d_star = term
            witness = (BoxSide(Fraction(x, q), closed), BoxSide(Fraction(y, q), closed))
    return DiscrepancyResult(n, d_star, witness)


@dataclass(frozen=True)
class GrowthRecord:
    """(N, N*D*) samples along N = 2^{nL} with the fitted log-log slope."""

    n: int
    samples: tuple[tuple[int, int, float], ...]  # (L, N, N*D*_N)
    fitted_exponent: float | None
    residual: float | None
    reference_exponent: float


def growth_scan(spec: PerturbSpec, alpha: UnitFraction, exponents: Sequence[int]) -> GrowthRecord:
    """N*D*_N at N = 2^{nL} for each L, with an unweighted least-squares fit
    of log(N*D*) against log N.  The underlying bounds only control the
    limsup rate, so the fit is reported with its residual, never asserted.
    No size is capped here: the time is quadratic in the largest N, and the
    CLI's ``scan`` refuses N above its point cap unless forced."""
    if not exponents:
        raise ValueError("need at least one L value")
    n = spec.period
    for ell in exponents:
        if ell < 1:
            raise ValueError("L values must be >= 1")
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
