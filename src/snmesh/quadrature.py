"""Gauss-Lobatto and Gauss-Legendre rules on [-1, 1].

Angle sets use Lobatto rules so the endpoint directions mu = +-1 are carried
explicitly; projections onto the cell basis use Legendre rules.  Nodes are
found by Newton iteration on the defining polynomial conditions, seeded with
Chebyshev-type guesses, so no table lookup is involved.  Newton passes keep
two rows of ``basis.legendre_rows`` at a time: an n-point rule needs O(n) memory.
"""

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import legendre_rows

_NEWTON_TOL = 1e-15
_NEWTON_MAXIT = 100


@dataclass(frozen=True)
class QuadratureSet:
    """Immutable node/weight pair."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def n(self) -> int:
        return self.nodes.size


def _legendre_and_derivs(n, x):
    """P_n(x), P_n'(x), P_n''(x) for n >= 1; valid only at interior points
    |x| < 1."""
    p_prev, p = deque(legendre_rows(x, n), maxlen=2)
    omx2 = 1.0 - x * x
    dp = n * (p_prev - x * p) / omx2
    d2p = (2.0 * x * dp - n * (n + 1) * p) / omx2
    return p, dp, d2p


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> QuadratureSet:
    """n-point Gauss-Legendre rule; exact for polynomials of degree 2n - 1."""
    if n < 1:
        raise ValueError(f"Gauss-Legendre rule needs n >= 1, got {n}")
    k = np.arange(1, n + 1)
    x = np.cos(np.pi * (4 * k - 1) / (4 * n + 2))  # Chebyshev-type seeds
    for _ in range(_NEWTON_MAXIT):
        p, dp, _ = _legendre_and_derivs(n, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < _NEWTON_TOL:
            break
    nodes = np.sort(x)
    # Symmetrize so paired nodes cancel exactly.
    nodes = 0.5 * (nodes - nodes[::-1])
    _, dp, _ = _legendre_and_derivs(n, nodes)
    weights = 2.0 / ((1.0 - nodes * nodes) * dp * dp)
    return QuadratureSet(nodes, weights)


@lru_cache(maxsize=None)
def gauss_lobatto(n: int) -> QuadratureSet:
    """n-point Gauss-Lobatto rule including the endpoints +-1.

    Interior nodes are the roots of P'_{n-1}; exact for degree 2n - 3.
    """
    if n < 2:
        raise ValueError(f"Gauss-Lobatto rule needs n >= 2, got {n}")
    if n == 2:
        nodes = np.array([-1.0, 1.0])
        weights = np.array([1.0, 1.0])
        return QuadratureSet(nodes, weights)
    m = n - 1
    k = np.arange(1, n - 1)
    x = np.cos(np.pi * k / m)  # Chebyshev-Lobatto seeds for roots of P'_{n-1}
    for _ in range(_NEWTON_MAXIT):
        _, dp, d2p = _legendre_and_derivs(m, x)
        dx = dp / d2p
        x = x - dx
        if np.max(np.abs(dx)) < _NEWTON_TOL:
            break
    interior = np.sort(x)
    interior = 0.5 * (interior - interior[::-1])
    nodes = np.concatenate(([-1.0], interior, [1.0]))
    (p,) = deque(legendre_rows(nodes, m), maxlen=1)
    weights = 2.0 / (n * m * p * p)
    return QuadratureSet(nodes, weights)
