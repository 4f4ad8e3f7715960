"""Orthonormal Legendre basis on moving cells.

A cell [x_L(t), x_R(t)] with edge velocities (v_L, v_R) carries the basis
B_i(x, t) = sqrt(2i + 1) / sqrt(h) * P_i(z),  z = (2x - x_L - x_R) / h,
with h = x_R - x_L, so that integral(B_i * B_j) dx = delta_ij at every time.
The gradient and motion matrices of a cell are

    L_ij = integral(B_j * dB_i/dx) dx
    G_ij = integral(B_j * dB_i/dt) dx

where the time derivative is taken at fixed x through x_L(t), x_R(t).
Both are fixed index patterns scaled by the cell width and edge speeds;
``index_masks`` gives the patterns, which the right-hand side applies to
all cells at once.
"""

import numpy as np


def legendre_table(z, order):
    """P_0..P_order at points z, shape (order + 1,) + z.shape."""
    z = np.asarray(z, dtype=float)
    out = np.empty((order + 1,) + z.shape)
    out[0] = 1.0
    if order >= 1:
        out[1] = z
    for k in range(2, order + 1):
        out[k] = ((2 * k - 1) * z * out[k - 1] - (k - 1) * out[k - 2]) / k
    return out


def index_masks(order):
    """sqrt((2i + 1)(2j + 1)) and the masks of the odd (i + j odd, j < i)
    and even (i + j even, j <= i - 2) couplings below the diagonal, (J, J)
    each: the index patterns of the gradient and motion matrices."""
    i = np.arange(order + 1)[:, None]
    j = np.arange(order + 1)[None, :]
    coupled = np.sqrt((2 * i + 1) * (2 * j + 1)).astype(float)
    odd_lower = (j < i) & ((i + j) % 2 == 1)
    even_lower = (j <= i - 2) & ((i + j) % 2 == 0)
    return coupled, odd_lower, even_lower
