"""Oracle for the bound table: the former scalar row loop of
``expsum.upper_bound_rhs``.

Every row doubles its phase one factor at a time on the exact fixed-point
bits, converts each reduced phase with one int division, takes |sin(pi p)|
or |cos(pi p)| with math.sin on the reduced argument, and grows the
weighted prefix sum one factor at a time.  It shares no factor code with
``halkron``.  It makes one Python call per factor, so keep N and H small.
"""

from __future__ import annotations

import math

from halkron.expsum import BoundParams, UpperBoundRow, UpperBoundTerms
from halkron.numtheory import UnitFraction
from halkron.sequences import PerturbSpec


def row_factors(b: int, width: int, gamma, r: int) -> list[float]:
    """|sin(pi p)| where gamma_j = 1 and |cos(pi p)| where gamma_j = 0, for
    the phases p = ((b << j) mod 2^W) / 2^W, j < r."""
    mod = 1 << width
    out = []
    for j in range(r):
        p = b / mod
        out.append(math.sin(math.pi * (p if p <= 0.5 else 1.0 - p)) if gamma[j]
                   else math.sin(math.pi * abs(0.5 - p)))
        b = (b << 1) & (mod - 1)
    return out


def weighted_prefix_sum(factors: list[float]) -> float:
    """sum_{r=0}^{len(factors)} 2^r prod_{j<r} f_j, the partial products
    grown incrementally."""
    total = 1.0  # r = 0: empty product
    running = 1.0
    for r, f in enumerate(factors):
        running *= f
        total += 2.0 ** (r + 1) * running
    return total


def upper_bound_rhs(params: BoundParams, n: int, alpha: UnitFraction) -> UpperBoundTerms:
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
            term_prod = weighted_prefix_sum(row_factors(b, alpha.width, gamma, rmax))
            rows.append(UpperBoundRow(ell, h, term_norm, term_prod))
            total += (term_norm + term_prod) / h
    return UpperBoundTerms(
        params, term_nk, term_nh, term_log2, total, tuple(rows), tuple(degenerate)
    )
