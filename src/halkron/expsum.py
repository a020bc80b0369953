"""Exponential sums over the m_k subsequence, the 2-additive telescoping
bound, and evaluation of the generic upper-bound right-hand side.

Every phase derives from an exact fixed-point reduction of alpha (table
lookups over split indices), never from a double-precision 2^l*h*alpha:
at large shifts the float product has no phase accuracy left while the
shifted bit pattern is still exact modulo 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .numtheory import UnitFraction
from .sequences import PerturbSpec, mk_array, _parity_u64
from .trigprod import TrigProductParams, _abs_sin_pi, doubling_factors

_MAX_MK_COUNT = 1 << 24
_MAX_V = 1 << 22


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


def geometric_sum(count: int, alpha: UnitFraction) -> ExpSumResult:
    """sum_{m<count} e(m*alpha) in closed form; modulus
    |sin(count*pi*alpha)| / |sin(pi*alpha)| for non-integer alpha."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if alpha.bits == 0:
        return ExpSumResult(complex(count, 0.0), float(count), count)
    a = alpha.to_float()
    top = frac_sin_abs(count, alpha)
    den = math.sin(math.pi * a)
    num = cmath.exp(2j * math.pi * ((count * alpha.bits & (alpha.modulus - 1)) / alpha.modulus)) - 1.0
    dencplx = cmath.exp(2j * math.pi * a) - 1.0
    value = num / dencplx
    return ExpSumResult(value, top / den if den else abs(value), count)


def frac_sin_abs(k: int, alpha: UnitFraction) -> float:
    """|sin(k * pi * alpha)| via the exact fractional part of k*alpha."""
    return _abs_sin_pi(alpha.mul_int(k).to_float())


def product_lower_bound(n: int, blocks: int, alpha: UnitFraction) -> float:
    """Right-hand side of the discrepancy lower bound at N = 2^{nL}:
    2^{nL-3} Pi_{nL,c}(alpha) - |sin(2^{nL} pi alpha)| / (8 sin(pi alpha))."""
    from .trigprod import pi_product

    r = n * blocks
    params = TrigProductParams.from_spec(PerturbSpec(n), r, alpha)
    lead = 2.0 ** (r - 3) * pi_product(params)
    corr = frac_sin_abs(1 << r, alpha) / (8.0 * math.sin(math.pi * alpha.to_float()))
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
    factors = doubling_factors(theta.bits, theta.modulus, shifted.gamma(rmax), rmax)
    return TwoAdditiveCheck(lhs, _weighted_prefix_sum(factors), count)


def _weighted_prefix_sum(factors: list[float]) -> float:
    """sum_{r=0}^{len(factors)} 2^r prod_{j<r} f_j, the partial products
    grown incrementally."""
    total = 1.0  # r = 0: empty product
    running = 1.0
    for r, f in enumerate(factors):
        running *= f
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


@dataclass(frozen=True)
class UpperBoundRow:
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


def upper_bound_rhs(params: BoundParams, n: int, alpha: UnitFraction) -> UpperBoundTerms:
    """N/K + (N/H) log N + log^2 N + the double sum over (l, h); natural
    logarithms.  A vanishing ||2^l h alpha|| (alpha effectively rational at
    that shift) makes the term +inf and is reported in ``degenerate``."""
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
    for ell in range(1, k_lim.bit_length()):  # ell <= floor(log2 K)
        rmax = log2n - ell
        gamma = PerturbSpec(n, shift=ell).gamma(rmax)
        for h in range(1, h_lim // (1 << ell) + 1):
            b = (alpha.bits * h << ell) & (mod - 1)
            theta = UnitFraction(b, alpha.width)
            if b == 0:
                degenerate.append((ell, h))
                term_norm = math.inf
            else:
                term_norm = 1.0 / float(theta.distance_to_int())
            term_prod = _weighted_prefix_sum(doubling_factors(b, mod, gamma, rmax))
            rows.append(UpperBoundRow(ell, h, term_norm, term_prod))
            total += (term_norm + term_prod) / h
    return UpperBoundTerms(
        params, term_nk, term_nh, term_log2, total, tuple(rows), tuple(degenerate)
    )
