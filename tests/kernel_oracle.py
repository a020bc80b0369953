"""Oracle for the transfer-operator kernel: the former fill of
``metric._kernel``, which takes the cosine of every entry of the [q, r, k]
buffer, the mirrored half included.
"""

from __future__ import annotations

import numpy as np

from halkron.trigprod import lacunary_factor


def full_kernel(n: int, grid_size: int) -> np.ndarray:
    b = 1 << n
    m = grid_size // b
    i = np.arange((m + 1) * b, dtype=float).reshape(m + 1, b, 1)
    w = np.add(i, grid_size * np.arange(b, dtype=float), out=np.empty((m + 1, b, b)))
    w /= b * grid_size
    lacunary_factor(w, False, out=w)
    w *= b
    with np.errstate(invalid="ignore"):
        np.divide(lacunary_factor(i / grid_size, True), w, out=w)
    w[0, 0, b // 2] = 1.0
    w[m, 0, b // 2 - 1] = 1.0
    return w
