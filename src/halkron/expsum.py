"""The perturbed exponential sum, the 2-additive telescoping bound, and
evaluation of the generic upper-bound right-hand side.

Every phase derives from an exact fixed-point reduction of alpha (two orbit
tables over split indices for the sums, one orbit {k 2 alpha} doubled for
all levels of the bound table, each rounded once by ``doubled_phases``),
never from a double-precision 2^l*h*alpha: at large shifts the float
product has no phase accuracy left while the shifted bits stay exact.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numtheory import UnitFraction, to_words
from .sequences import PerturbSpec
from .trigprod import doubled_phases, lacunary_factors, log_pi_product

_MAX_V = 1 << 22
_TABLE_ROWS = 1 << 14  # rows per bound-table block: bounds the [rows, r] temporaries


def _compensated_sum(arr: np.ndarray) -> float:
    """Chunked pairwise partial sums combined exactly with math.fsum."""
    if arr.size <= 1 << 15:
        return math.fsum(arr)
    chunks = [float(c.sum()) for c in np.array_split(arr, arr.size // (1 << 15) + 1)]
    return math.fsum(chunks)


def _phases(values: np.ndarray, alpha: UnitFraction) -> np.ndarray:
    """{v * alpha} for a nonempty int64 array, via two exact fixed-point tables."""
    vmax = int(values.max())
    low_bits = min(13, max(1, vmax.bit_length()))
    lo_tab = doubled_phases(alpha.multiples(1 << low_bits), 1)[:, 0]
    hi_step = alpha.shift_left(low_bits)  # {2^low_bits alpha}
    hi_tab = doubled_phases(hi_step.multiples((vmax >> low_bits) + 1), 1)[:, 0]
    return (lo_tab[values & ((1 << low_bits) - 1)] + hi_tab[values >> low_bits]) % 1.0


@dataclass(frozen=True)
class ExpSumResult:
    value: complex
    modulus: float
    n_terms: int


def _sum_of_phases(phases: np.ndarray) -> ExpSumResult:
    ang = 2.0 * np.pi * phases
    re = _compensated_sum(np.cos(ang))
    im = _compensated_sum(np.sin(ang))
    return ExpSumResult(complex(re, im), math.hypot(re, im), len(phases))


def exp_sum_perturbed(n: int, log2_count: int, alpha: UnitFraction) -> ExpSumResult:
    """sum_{m < 2^R} e(m*alpha + s_c(m)/2), the telescoping side of the
    product identity |sum| = 2^R * Pi_{R,c}(alpha)."""
    if not 0 <= log2_count <= 24:
        raise ValueError("log2_count must be in [0, 24]")
    ms = np.arange(1 << log2_count, dtype=np.int64)
    phases = (_phases(ms, alpha) + 0.5 * PerturbSpec(n).digit_parity(ms)) % 1.0
    return _sum_of_phases(phases)


def frac_sin_abs(k: int, alpha: UnitFraction) -> float:
    """|sin(k * pi * alpha)| = sin(pi * ||k*alpha||), with the exact distance
    of {k*alpha} to the nearest integer rounded to double once."""
    return math.sin(math.pi * float(alpha.mul_int(k).distance_to_int()))


def product_lower_bound(n: int, blocks: int, alpha: UnitFraction) -> float:
    """Right-hand side of the discrepancy lower bound at N = 2^{nL}:
    2^{nL-3} Pi_{nL,c}(alpha) - |sin(2^{nL} pi alpha)| / (8 sin(pi alpha))."""
    sin_alpha = frac_sin_abs(1, alpha)
    if sin_alpha == 0.0:
        raise ValueError("||alpha|| must be nonzero: |sin(pi alpha)| is 0 as a double")
    r = n * blocks
    log_prod = log_pi_product(r, PerturbSpec(n).gamma(r), alpha.bits, alpha.modulus)
    lead = 2.0 ** (r - 3) * math.exp(log_prod)
    corr = frac_sin_abs(1 << r, alpha) / (8.0 * sin_alpha)
    return lead - corr


@dataclass(frozen=True)
class TwoAdditiveCheck:
    """Both sides of |sum_{v<V} e(2^l v h alpha + s(v)/2)| <=
    sum_r 2^r Pi_{r,c^(l)}(2^l h alpha)."""

    lhs: float
    rhs: float
    n_terms: int

    @property
    def ok(self) -> bool:
        return self.lhs <= self.rhs + 1e-6 * self.n_terms


def two_additive_bound_check(
    ell: int, h: int, alpha: UnitFraction, n: int, count: int
) -> TwoAdditiveCheck:
    if count < 1 or count > _MAX_V:
        raise ValueError(f"count must be in [1, {_MAX_V}]")
    if ell < 0 or h < 1:
        raise ValueError("need ell >= 0 and h >= 1")
    theta = alpha.mul_int(h).shift_left(ell)
    shifted = PerturbSpec(n, shift=ell)
    vs = np.arange(count, dtype=np.int64)
    phases = (_phases(vs, theta) + 0.5 * shifted.digit_parity(vs)) % 1.0
    lhs = _sum_of_phases(phases).modulus
    rmax = count.bit_length() - 1  # floor(log2 count)
    table = doubled_phases(to_words([theta.bits], theta.width), rmax)
    rhs = float(_weighted_prefix_sum(lacunary_factors(table, shifted.gamma(rmax)))[0])
    return TwoAdditiveCheck(lhs, rhs, count)


def _weighted_prefix_sum(factors: np.ndarray) -> np.ndarray:
    """sum_{r=0}^{R} 2^r prod_{j<r} f_j for each row of an [rows, R] factor
    table, the partial products grown one column at a time."""
    total = np.ones(len(factors))  # r = 0: empty product
    running = np.ones(len(factors))
    for r in range(factors.shape[1]):
        running *= factors[:, r]
        total += 2.0 ** (r + 1) * running
    return total


@dataclass(frozen=True)
class BoundParams:
    """Free parameters of the generic upper bound."""

    n_points: int
    h_limit: int
    k_limit: int

    def __post_init__(self) -> None:
        if self.n_points < 2:
            raise ValueError("need N >= 2")
        if not 1 <= self.h_limit <= self.n_points:
            raise ValueError("need 1 <= H <= N")
        if not 1 <= self.k_limit <= self.n_points:
            raise ValueError("need 1 <= K <= N")

    @property
    def table_rows(self) -> int:
        """Rows (l, h) of the double sum: floor(H / 2^l) for each
        1 <= l <= floor(log2 K)."""
        return sum(self.h_limit >> ell for ell in range(1, self.k_limit.bit_length()))


class UpperBoundRow(NamedTuple):
    ell: int
    h: int
    term_norm: float  # 1 / ||2^l h alpha||
    term_prod: float  # sum_r 2^r Pi_{r,c^(l)}(2^l h alpha)


class BoundRows(Sequence):
    """The rows of a bound table, held as its four columns: ``columns`` is
    the lists (ell, h, term_norm, term_prod), and an ``UpperBoundRow`` is
    built only where a row is read.  Equal to any sequence of the same rows."""

    def __init__(self, ell: list, h: list, term_norm: list, term_prod: list) -> None:
        self.columns = (ell, h, term_norm, term_prod)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return BoundRows(*(c[i] for c in self.columns))
        return UpperBoundRow(*(c[i] for c in self.columns))

    def __iter__(self):
        return map(UpperBoundRow._make, zip(*self.columns))

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and tuple(self) == tuple(other)


@dataclass(frozen=True)
class UpperBoundTerms:
    """The four summands of the right-hand side, kept separate: the bound is
    an order statement and consumers need term-level visibility."""

    params: BoundParams
    term_nk: float
    term_nh_log: float
    term_log2: float
    term_sum: float
    rows: Sequence[UpperBoundRow]
    degenerate: tuple[tuple[int, int], ...]  # (ell, h) with ||2^l h alpha|| = 0

    @property
    def total(self) -> float:
        return self.term_nk + self.term_nh_log + self.term_log2 + self.term_sum

    @property
    def finite(self) -> bool:
        return not self.degenerate


def upper_bound_rhs(params: BoundParams, n: int, alpha: UnitFraction) -> UpperBoundTerms:
    """N/K + (N/H) log N + log^2 N + the double sum over (l, h); natural
    logarithms.  A vanishing ||2^l h alpha|| (alpha effectively rational at
    that shift) makes the term +inf and is reported in ``degenerate``.

    One orbit {k 2 alpha}, k <= H/2, serves every level: 2^l h alpha is its
    point h 2^(l-1), whose j-th doubling is column l - 1 + j of orbit row h
    in one ``doubled_phases`` / ``lacunary_factors`` table, built per block
    of ``_TABLE_ROWS`` rows; level l reads its first H/2^l rows."""
    big_n, h_lim, k_lim = params.n_points, params.h_limit, params.k_limit
    levels = range(1, k_lim.bit_length())  # ell <= floor(log2 K)
    cols = big_n.bit_length() - 2  # columns ell - 1 + j, j < floor(log2 N) - ell
    gamma = PerturbSpec(n, shift=1).gamma(cols)  # weight c^(l)_j = c_{l+j} of column l - 1 + j
    orbit = alpha.shift_left(1).multiples((h_lim >> 1) + 1 if levels else 1)
    prods: list[list[np.ndarray]] = [[] for _ in levels]  # per level, its rows of each block
    for h0 in range(1, len(orbit), _TABLE_ROWS):
        factors = lacunary_factors(doubled_phases(orbit[h0 : h0 + _TABLE_ROWS], cols), gamma)
        for level, prod in zip(levels, prods):
            block = factors[: max((h_lim >> level) + 1 - h0, 0), level - 1 :]
            prod.append(_weighted_prefix_sum(block))
    # 1 / ||b||: the exact distance min(b, 2^W - b) / 2^W rounds to the smaller
    # of the rounded b / 2^W and (2^W - b) / 2^W, an orbit point of -2 alpha
    minus = UnitFraction(-(alpha.bits << 1) % alpha.modulus, alpha.width).multiples(len(orbit))
    dist = np.minimum(doubled_phases(orbit, 1), doubled_phases(minus, 1))[:, 0]
    norms = np.divide(1.0, dist, out=np.full(len(dist), math.inf), where=dist > 0)
    # the columns, level by level; row h of level ell is orbit point h 2^(ell-1)
    counts = [h_lim >> level for level in levels]
    ell = np.repeat(np.arange(1, len(counts) + 1), counts)
    h = np.concatenate([np.empty(0, np.int64)] + [np.arange(1, c + 1) for c in counts])
    term_norm = norms[h << (ell - 1)]
    term_prod = np.concatenate(sum(prods, [np.empty(0)]))
    # from 0.0, row by row, as a loop adds them (np.sum would pair them)
    total = float(np.cumsum(np.append(0.0, (term_norm + term_prod) / h))[-1])
    rows = BoundRows(ell.tolist(), h.tolist(), term_norm.tolist(), term_prod.tolist())
    deg = term_norm == math.inf
    degenerate = zip(ell[deg].tolist(), h[deg].tolist())
    log_n = math.log(big_n)
    return UpperBoundTerms(
        params, big_n / k_lim, big_n / h_lim * log_n, log_n * log_n, total,
        rows, tuple(degenerate),
    )
