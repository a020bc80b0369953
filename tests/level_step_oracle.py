"""Oracle for the transfer-operator level step: the former Horner pass over
every child and ``einsum`` against a [r, k, q] branch-weight kernel.

For each of the 2^n local offsets it evaluates every cell polynomial, views
the (2^n, grid + 1) result as an overlapping strided [r, k, q] array of all
children, and sums them against weights built from ``np.linspace`` nodes.
It allocates several arrays of 2^n x (grid + 2^n) floats, so keep n and the
grid small.  Levels are not cached.
"""

from __future__ import annotations

import math

import numpy as np

from halkron.metric import PhiGrid


def _children(cells: np.ndarray, b: int) -> np.ndarray:
    """Interpolated values at every child (x_i + k)/b of the grid nodes,
    indexed [r, k, q] for node i = q b + r.

    On g cells with b | g that child lies in cell k g/b + q at the local
    offset r/b, so one Horner pass at the b offsets gives every child, and
    the (k, q) axes are an overlapping strided view of each offset's row.
    Entries with q b + r > g belong to no node.
    """
    m = (cells.shape[1] - 1) // b
    t = np.arange(b)[:, None] / b
    v = cells[0] * t
    v += cells[1]
    v *= t
    v += cells[2]
    v *= t
    v += cells[3]
    row, col = v.strides
    return np.lib.stride_tricks.as_strided(
        v, shape=(b, b, m + 1), strides=(row, m * col, col), writeable=False
    )


def _kernel(n: int, grid_size: int) -> np.ndarray:
    """Branch weights w_k(x_i) = |sin(pi x_i)| / (2^n |cos((x_i+k) pi / 2^n)|)
    indexed [r, k, q] for node i = q 2^n + r like ``_children``, zero where
    q 2^n + r > grid_size.  The 0/0 points (x=0 with the middle branch, x=1
    with its mirror) take their finite limit 1."""
    b = 1 << n
    x = np.zeros(grid_size + b)
    x[: grid_size + 1] = np.linspace(0.0, 1.0, grid_size + 1)
    x = np.ascontiguousarray(x.reshape(-1, b).T)[:, None, :]
    k = np.arange(b, dtype=float)[None, :, None]
    num = np.sin(np.pi * np.minimum(x, 1.0 - x))  # |sin(pi x)|
    den = b * np.sin(np.pi * np.abs(0.5 - (x + k) / b))  # b |cos(pi (x + k) / b)|
    with np.errstate(divide="ignore", invalid="ignore"):
        w = num / den
    w[den == 0.0] = 1.0
    w[1:, :, -1] = 0.0
    return w


def oracle_phi_levels(n: int, j_max: int, grid_size: int) -> list[PhiGrid]:
    """Levels 0..j_max of the recurrence by the former einsum step."""
    b = 1 << n
    levels = [PhiGrid(n, 0, np.ones(grid_size + 1), 0.0)]
    w = _kernel(n, grid_size)
    while len(levels) <= j_max:
        prev = levels[-1]
        sums = np.einsum("rkq,rkq->rq", w, _children(prev.cells, b))
        vals = sums.T.ravel()[: grid_size + 1] / b
        s = float(vals.max())
        levels.append(PhiGrid(n, len(levels), vals / s, prev.log_scale + math.log(s)))
    return levels
