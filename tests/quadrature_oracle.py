"""Oracle for the direct quadrature of Pi_{nL,c}: the former loop of
``metric._pi_direct_quadrature``, which forms each factor's phase as
``(x * 2^j) % 1.0`` and allocates fresh arrays for every factor, with its
own |sin(pi t)| and |cos(pi t)| on the reduced arguments.
"""

from __future__ import annotations

import numpy as np

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
        arg = np.minimum(t, 1.0 - t) if gamma[j] else np.abs(0.5 - t)
        prod *= np.sin(np.pi * arg)
    prod = prod.reshape(panels, qpts)
    return float((prod * weights[None, :]).sum() * 0.5 * h)
