"""Exponential sums over the m_k subsequence, the 2-additive telescoping
bound, and evaluation of the generic upper-bound right-hand side.

Every phase derives from an exact fixed-point reduction of alpha (table
lookups over split indices), never from a double-precision 2^l*h*alpha:
at large shifts the float product has no phase accuracy left while the
shifted bit pattern is still exact modulo 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

from .numtheory import UnitFraction
from .sequences import PerturbSpec, mk_array, _parity_u64
from .trigprod import lacunary_factor, log_pi_product

_MAX_MK_COUNT = 1 << 24
_MAX_V = 1 << 22
_TABLE_ROWS = 1 << 14  # rows per bound-table block: bounds the [rows, r] temporaries


def _compensated_sum(arr: np.ndarray) -> float:
    """Chunked pairwise partial sums combined exactly with math.fsum."""
    if arr.size <= 1 << 15:
        return math.fsum(arr)
    chunks = [float(c.sum()) for c in np.array_split(arr, arr.size // (1 << 15) + 1)]
    return math.fsum(chunks)


def _phases(values: np.ndarray, alpha: UnitFraction) -> np.ndarray:
    """{v * alpha} for an int64 array, via two exact fixed-point tables."""
    if values.size == 0:
        return np.empty(0)
    vmax = int(values.max())
    low_bits = min(13, max(1, vmax.bit_length()))
    mod = alpha.modulus
    mask = mod - 1
    lo_tab = np.empty(1 << low_bits)
    b = 0
    for j in range(1 << low_bits):
        lo_tab[j] = b / mod
        b = (b + alpha.bits) & mask
    hi_count = (vmax >> low_bits) + 1
    hi_tab = np.empty(hi_count)
    step = (alpha.bits << low_bits) & mask
    b = 0
    for j in range(hi_count):
        hi_tab[j] = b / mod
        b = (b + step) & mask
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


def exp_sum_mk(n: int, count: int, alpha: UnitFraction) -> ExpSumResult:
    """sum_{k<count} e(m_k * alpha) with m_k the even-weighted-digit-sum
    indices; compensated accumulation."""
    if count < 1 or count > _MAX_MK_COUNT:
        raise ValueError(f"count must be in [1, {_MAX_MK_COUNT}]")
    mks = mk_array(n, count)
    return _sum_of_phases(_phases(mks, alpha))


def exp_sum_perturbed(n: int, log2_count: int, alpha: UnitFraction) -> ExpSumResult:
    """sum_{m < 2^R} e(m*alpha + s_c(m)/2), the telescoping side of the
    product identity |sum| = 2^R * Pi_{R,c}(alpha)."""
    if not 0 <= log2_count <= 24:
        raise ValueError("log2_count must be in [0, 24]")
    ms = np.arange(1 << log2_count, dtype=np.int64)
    mask = PerturbSpec(n).digit_mask(63)
    phases = (_phases(ms, alpha) + 0.5 * _parity_u64(ms & mask)) % 1.0
    return _sum_of_phases(phases)


def frac_sin_abs(k: int, alpha: UnitFraction) -> float:
    """|sin(k * pi * alpha)| = sin(pi * ||k*alpha||), with the exact distance
    of {k*alpha} to the nearest integer rounded to double once."""
    return math.sin(math.pi * float(alpha.mul_int(k).distance_to_int()))


def product_lower_bound(n: int, blocks: int, alpha: UnitFraction) -> float:
    """Right-hand side of the discrepancy lower bound at N = 2^{nL}:
    2^{nL-3} Pi_{nL,c}(alpha) - |sin(2^{nL} pi alpha)| / (8 sin(pi alpha))."""
    r = n * blocks
    log_prod = log_pi_product(r, PerturbSpec(n).gamma(r), alpha.bits, alpha.modulus)
    lead = 2.0 ** (r - 3) * math.exp(log_prod)
    corr = frac_sin_abs(1 << r, alpha) / (8.0 * frac_sin_abs(1, alpha))
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
    mask = shifted.digit_mask(63)
    phases = (_phases(vs, theta) + 0.5 * _parity_u64(vs & mask)) % 1.0
    lhs = _sum_of_phases(phases).modulus
    rmax = count.bit_length() - 1  # floor(log2 count)
    table = _doubled_phases([theta.bits], theta.width, rmax)
    rhs = float(_weighted_prefix_sum(table, shifted.gamma(rmax))[0])
    return TwoAdditiveCheck(lhs, rhs, count)


def _weighted_prefix_sum(phases: np.ndarray, gamma: Sequence[int]) -> np.ndarray:
    """sum_{r=0}^{R} 2^r prod_{j<r} f_j for each row of an [rows, R] phase
    table, f_j the ``lacunary_factor`` of column j (sine where gamma_j = 1)
    and the partial products grown one column at a time."""
    total = np.ones(len(phases))  # r = 0: empty product
    running = np.ones(len(phases))
    f = np.empty(len(phases))
    for r in range(phases.shape[1]):
        running *= lacunary_factor(phases[:, r], gamma[r], out=f)
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


@dataclass(frozen=True)
class UpperBoundTerms:
    """The four summands of the right-hand side, kept separate: the bound is
    an order statement and consumers need term-level visibility."""

    params: BoundParams
    term_nk: float
    term_nh_log: float
    term_log2: float
    term_sum: float
    rows: tuple[UpperBoundRow, ...]
    degenerate: tuple[tuple[int, int], ...]  # (ell, h) with ||2^l h alpha|| = 0

    @property
    def total(self) -> float:
        return self.term_nk + self.term_nh_log + self.term_log2 + self.term_sum

    @property
    def finite(self) -> bool:
        return not self.degenerate


def _doubled_phases(bs: list[int], width: int, r: int) -> np.ndarray:
    """The [rows, r] table of phases ((b << j) mod 2^W) / 2^W, j < r, each
    rounded to double exactly as the int division ``num / 2^W`` rounds.

    Column j < 64 reads the 64 bits of b that start j bits below its top
    bit, out of b's top 128, and folds every lower bit of b into the
    window's last bit (round to odd).  A
    window of at least 2^54 keeps 55 or more bits, so the one rounding of
    the uint64 -> float64 cast is then the correct one; so is the cast of a
    window with no lower bits.  The remaining entries, and every column
    from j = 64 on, take the int division.
    """
    rows = len(bs)
    mod = 1 << width
    cols = min(r, 64)
    if width >= 128:
        low = (1 << (width - 128)) - 1
        tops = [b >> (width - 128) for b in bs]
        rest = np.array([b & low != 0 for b in bs], dtype=bool).reshape(rows, 1)
    else:
        tops = [b << (128 - width) for b in bs]
        rest = False
    limbs = np.frombuffer(b"".join(t.to_bytes(16, "little") for t in tops), dtype="<u8")
    lo, hi = limbs.reshape(rows, 2).T.astype(np.uint64)[:, :, None]
    js = np.arange(cols, dtype=np.uint64)
    window = (hi << js) | ((lo >> np.uint64(1)) >> (np.uint64(63) - js))
    sticky = ((lo << js) != 0) | rest
    phases = np.empty((rows, r))
    np.multiply((window | sticky).astype(np.float64), 2.0**-64, out=phases[:, :cols])
    for i, j in zip(*np.nonzero(sticky & (window < np.uint64(1 << 54)))):
        phases[i, j] = ((bs[i] << int(j)) & (mod - 1)) / mod
    for j in range(cols, r):
        phases[:, j] = [((b << j) & (mod - 1)) / mod for b in bs]
    return phases


def upper_bound_rhs(params: BoundParams, n: int, alpha: UnitFraction) -> UpperBoundTerms:
    """N/K + (N/H) log N + log^2 N + the double sum over (l, h); natural
    logarithms.  A vanishing ||2^l h alpha|| (alpha effectively rational at
    that shift) makes the term +inf and is reported in ``degenerate``.

    Each l is one [rows, r] table over h of the doubled phases of
    2^l h alpha.  Its factors are taken column by column, one
    ``trigprod.lacunary_factor`` call per column, and multiplied into the
    weighted prefix sums; the rows are bit-identical to doubling each row's
    phase on its own with ``trigprod.doubling_factors``."""
    big_n, h_lim, k_lim = params.n_points, params.h_limit, params.k_limit
    log_n = math.log(big_n)
    term_nk = big_n / k_lim
    term_nh = big_n / h_lim * log_n
    term_log2 = log_n * log_n
    rows: list[UpperBoundRow] = []
    degenerate: list[tuple[int, int]] = []
    total = 0.0
    log2n = big_n.bit_length() - 1  # floor(log2 N)
    mod = alpha.modulus
    half = mod >> 1
    for ell in range(1, k_lim.bit_length()):  # ell <= floor(log2 K)
        rmax = log2n - ell
        gamma = PerturbSpec(n, shift=ell).gamma(rmax)
        step = (alpha.bits << ell) & (mod - 1)
        h_max = h_lim >> ell
        for h0 in range(1, h_max + 1, _TABLE_ROWS):
            hs = range(h0, min(h0 + _TABLE_ROWS, h_max + 1))
            bs = [(step * h) & (mod - 1) for h in hs]
            # 1 / (min(b, 2^W - b) / 2^W), rounded as the exact distance's float
            norms = [1.0 / ((b if b <= half else mod - b) / mod) if b else math.inf for b in bs]
            prods = _weighted_prefix_sum(_doubled_phases(bs, alpha.width, rmax), gamma).tolist()
            for h, norm, prod in zip(hs, norms, prods):
                total += (norm + prod) / h
            rows += map(UpperBoundRow._make, zip(repeat(ell), hs, norms, prods))
            degenerate += [(ell, h) for h, b in zip(hs, bs) if b == 0]
    return UpperBoundTerms(
        params, term_nk, term_nh, term_log2, total, tuple(rows), tuple(degenerate)
    )
