"""Oracle for the transfer-operator level step, in coefficient space: each
level is the Chebyshev series of degree M - 1 that interpolates the
operator applied to the level before, built by numpy's
``Chebyshev.interpolate`` at its own first-kind points and evaluated by
Clenshaw's recurrence at every child.

The node values are normalized to max 1 as in ``metric``, with the scale
tracked in log space.  No barycentric basis and no collocation matrix take
part, and every branch weight is taken at once by ``np.sin``.
"""

from __future__ import annotations

import math

import numpy as np

from halkron.metric import _NODES, PhiGrid


def _operator(n: int, f):
    """x -> (L f)(x) = 2^-n sum_k w_k(x) f((x + k)/2^n) at interior x, with
    w_k(x) = |sin(pi x)| / (2^n |cos(pi (x + k)/2^n)|)."""
    b = 1 << n
    k = np.arange(b, dtype=float)

    def lf(x):
        x = np.asarray(x, dtype=float)[..., None]
        num = np.sin(np.pi * np.minimum(x, 1.0 - x))  # |sin(pi x)|
        den = b * np.sin(np.pi * np.abs(((k - b / 2) + x) / b))  # b |cos(pi (x + k) / b)|
        return (num / den * f((x + k) / b)).sum(axis=-1) / b

    return lf


def oracle_phi_levels(n: int, j_max: int, grid_size: int) -> list[PhiGrid]:
    """Levels 0..j_max of the recurrence from the constant 1, each sampled on
    grid_size + 1 uniform points."""
    series = np.polynomial.Chebyshev
    deg = _NODES - 1
    t = (np.polynomial.chebyshev.chebpts1(_NODES) + 1.0) / 2.0  # the points on [0,1]
    xs = np.linspace(0.0, 1.0, grid_size + 1)
    levels = [PhiGrid(n, 0, np.ones(_NODES), 0.0, np.ones(grid_size + 1))]
    f = series.interpolate(np.ones_like, deg, domain=[0.0, 1.0])
    while len(levels) <= j_max:
        lf = _operator(n, f)
        s = float(lf(t).max())
        f = series.interpolate(lambda x: lf(x) / s, deg, domain=[0.0, 1.0])
        log_scale = levels[-1].log_scale + math.log(s)
        levels.append(PhiGrid(n, len(levels), f(t), log_scale, f(xs)))
    return levels
