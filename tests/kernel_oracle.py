"""Oracle for the transfer operator on a level's sample grid: the full fill
of the branch weights, which takes the cosine of every entry of the
[q, r, k] buffer, and the operator applied with them at every sample node.

The interpolant of a level is read as a Chebyshev series fitted through
its node values, so neither the barycentric basis nor the collocation
matrix of ``metric`` takes part.
"""

from __future__ import annotations

import numpy as np


def full_kernel(n: int, grid_size: int) -> np.ndarray:
    """Branch weights w_k(x_i) = |sin(pi x_i)| / (2^n |cos(pi (x_i + k)/2^n)|)
    indexed [q, r, k] for node i = q 2^n + r of the grid, x_i = i/grid_size.
    The 0/0 points (x = 0 with the middle branch, x = 1 with its mirror)
    take their finite limit 1; rows past i = grid_size belong to no node."""
    b = 1 << n
    m = grid_size // b
    i = np.arange((m + 1) * b, dtype=float).reshape(m + 1, b, 1)
    # the cosine's phase offset from 1/2, (i + g (k - b/2)) / (b g), and the
    # sine's phase min(i, g - i) / g have exact integer numerators
    w = np.add(i, grid_size * np.arange(-b // 2, b // 2, dtype=float), out=np.empty((m + 1, b, b)))
    w /= b * grid_size
    np.abs(w, out=w)
    np.sin(np.multiply(w, np.pi, out=w), out=w)  # |cos(pi (x_i + k) / b)|
    w *= b
    sin_x = np.sin(np.pi * np.minimum(i, grid_size - i) / grid_size)  # |sin(pi x_i)|
    with np.errstate(invalid="ignore"):
        np.divide(sin_x, w, out=w)
    w[0, 0, b // 2] = 1.0
    w[m, 0, b // 2 - 1] = 1.0
    return w


def full_fill(n: int, grid_size: int, nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """(L f)(x_i) = 2^-n sum_k w_k(x_i) f((x_i + k)/2^n) at the grid_size + 1
    sample nodes x_i, with f the polynomial through (nodes, values) and the
    weights of ``full_kernel``, node i = q 2^n + r at [q, r, k]."""
    b = 1 << n
    f = np.polynomial.Chebyshev.fit(nodes, values, len(nodes) - 1, domain=[0.0, 1.0])
    w = full_kernel(n, grid_size).reshape(-1, b)[: grid_size + 1]  # [node, k]
    x = np.linspace(0.0, 1.0, grid_size + 1)
    out = np.zeros(grid_size + 1)
    for k in range(b):
        out += w[:, k] * f((x + k) / b)
    return out / b
