"""Oracle for the direct quadrature of Pi_{nL,c}: the former loop of
``metric._pi_direct_quadrature``, which forms each factor's phase as
``(x * 2^j) % 1.0`` and allocates fresh arrays for every factor.
"""

from __future__ import annotations

import numpy as np

from halkron.metric import _abs_cos_pi, _abs_sin_pi
from halkron.sequences import PerturbSpec


def pi_direct_quadrature(n: int, blocks: int, qpts: int) -> float:
    r = n * blocks
    panels = 1 << min(r, 18)
    nodes, weights = np.polynomial.legendre.leggauss(qpts)
    h = 1.0 / panels
    mids = (np.arange(panels, dtype=float) + 0.5) * h
    xs = (mids[:, None] + (0.5 * h) * nodes[None, :]).ravel()
    gamma = PerturbSpec(n).gamma(r)
    prod = np.ones_like(xs)
    for j in range(r):
        t = (xs * float(2**j)) % 1.0
        prod *= _abs_sin_pi(t) if gamma[j] else _abs_cos_pi(t)
    prod = prod.reshape(panels, qpts)
    return float((prod * weights[None, :]).sum() * 0.5 * h)
