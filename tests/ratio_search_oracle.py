"""Oracle for the ratio extrema of a level stack: a scalar golden-section
search, one search at a time, through ``PhiGrid.interpolate``.

For each pair of levels it takes the extrema of the ratio on the whole
sample grid, put together from the program's blocks, and refines each in
the two grid cells around it by 60 golden-section steps, calling the
scalar barycentric interpolation twice per point.
"""

from __future__ import annotations

import math

import numpy as np

from halkron.metric import PhiGrid, _sample_blocks

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_extremum(f, lo: float, hi: float, maximize: bool, iters: int = 60) -> float:
    """Deterministic golden-section search; returns the extremal value."""
    a, d = lo, hi
    b = d - _GOLDEN * (d - a)
    c = a + _GOLDEN * (d - a)
    fb, fc = f(b), f(c)
    sign = 1.0 if maximize else -1.0
    for _ in range(iters):
        if sign * fb >= sign * fc:
            d, c, fc = c, b, fb
            b = d - _GOLDEN * (d - a)
            fb = f(b)
        else:
            a, b, fb = b, c, fc
            c = a + _GOLDEN * (d - a)
            fc = f(c)
    best = max(fb, fc) if maximize else min(fb, fc)
    return best


def grid_samples(levels: list[PhiGrid]) -> np.ndarray:
    """The normalized samples [level, point] of ``levels`` at all the
    grid_size + 1 points of their grid, copied from the program's blocks."""
    g = levels[0].grid_size
    out = np.empty((len(levels), g + 1))
    for start, samples in _sample_blocks(levels):
        out[:, start : start + samples.shape[1]] = samples
    return out


def _ratio_extrema(prev: PhiGrid, nxt: PhiGrid, prev_grid: np.ndarray,
                   nxt_grid: np.ndarray) -> tuple[float, float]:
    """Extrema of q(x) = Phi_{j+1}(x)/Phi_j(x) over [0,1]: sample-grid
    extrema plus golden-section refinement in the two adjacent cells."""
    scale = math.exp(nxt.log_scale - prev.log_scale)
    ratio = nxt_grid / prev_grid * scale
    g = prev.grid_size
    xs = np.linspace(0.0, 1.0, g + 1)

    def q(x: float) -> float:
        return scale * nxt.interpolate(x) / prev.interpolate(x)

    imax = int(np.argmax(ratio))
    imin = int(np.argmin(ratio))
    hi = max(
        float(ratio[imax]),
        _golden_extremum(q, xs[max(imax - 1, 0)], xs[min(imax + 1, g)], maximize=True),
    )
    lo = min(
        float(ratio[imin]),
        _golden_extremum(q, xs[max(imin - 1, 0)], xs[min(imin + 1, g)], maximize=False),
    )
    return lo, hi


def oracle_ratio_extrema(levels: list[PhiGrid], j_max: int) -> list[tuple[float, float]]:
    """(min, max) of the ratio of levels j+1 over j for j <= j_max."""
    grids = grid_samples(levels)
    return [_ratio_extrema(levels[j], levels[j + 1], grids[j], grids[j + 1])
            for j in range(j_max + 1)]
