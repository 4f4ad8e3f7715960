"""The basis of one cell, its traces, and the gradient and motion matrices
cell by cell: the per-cell forms the tests check the solver's batched
right-hand side against."""

from dataclasses import dataclass

import numpy as np

from snmesh.basis import index_masks, legendre_table


@dataclass(frozen=True)
class CellBasis:
    """Basis metadata for one cell: polynomial order and edge state."""

    order: int
    x_left: float
    x_right: float
    v_left: float = 0.0
    v_right: float = 0.0

    def __post_init__(self):
        if self.x_right <= self.x_left:
            raise ValueError(
                f"degenerate cell: x_left={self.x_left} x_right={self.x_right}"
            )
        if self.order < 0:
            raise ValueError(f"order must be >= 0, got {self.order}")

    @property
    def width(self) -> float:
        return self.x_right - self.x_left


def eval_basis(basis: CellBasis, i: int, x):
    """B_i at points x; x must lie inside the cell (tiny fp slack allowed)."""
    if not 0 <= i <= basis.order:
        raise ValueError(f"basis index {i} outside 0..{basis.order}")
    x = np.asarray(x, dtype=float)
    h = basis.width
    slack = 1e-12 * max(h, 1.0)
    if np.any(x < basis.x_left - slack) or np.any(x > basis.x_right + slack):
        raise ValueError("evaluation point outside the cell")
    z = (2.0 * x - basis.x_left - basis.x_right) / h
    z = np.clip(z, -1.0, 1.0)
    return np.sqrt((2 * i + 1) / h) * legendre_table(z, i)[i]


def edge_traces(basis: CellBasis):
    """(left, right) trace vectors B_i(-1), B_i(+1), each length order + 1."""
    i = np.arange(basis.order + 1)
    right = np.sqrt((2 * i + 1) / basis.width)
    left = np.where(i % 2 == 0, right, -right)
    return left, right


def gradient_matrix(basis: CellBasis):
    """L_ij = integral(B_j dB_i/dx) dx: strictly lower triangular, odd i+j."""
    return gradient_matrices(
        basis.order, np.array([basis.x_left]), np.array([basis.x_right])
    )[0]


def motion_matrix(basis: CellBasis):
    """G_ij = integral(B_j dB_i/dt) dx for the cell's edge velocities."""
    return motion_matrices(
        basis.order,
        np.array([basis.x_left]),
        np.array([basis.x_right]),
        np.array([basis.v_left]),
        np.array([basis.v_right]),
    )[0]


def gradient_matrices(order, x_left, x_right):
    """Stacked L matrices for cells given as arrays of edges, shape (K, J, J)."""
    coupled, odd_lower, even_lower = index_masks(order)
    h = np.asarray(x_right, dtype=float) - np.asarray(x_left, dtype=float)
    base = np.where(odd_lower, 2.0 * coupled, 0.0)
    return base[None, :, :] / h[:, None, None]


def motion_matrices(order, x_left, x_right, v_left, v_right):
    """Stacked G matrices for moving cells, shape (K, J, J).

    Diagonal: -(2i + 1) hdot / (2h).  Below the diagonal the entries are
    -sqrt((2i+1)(2j+1)) * (v_L + v_R) / h   for odd  i + j,
    -sqrt((2i+1)(2j+1)) * hdot / h          for even i + j (j <= i - 2),
    and zero above the diagonal.
    """
    coupled, odd_lower, even_lower = index_masks(order)
    x_left = np.asarray(x_left, dtype=float)
    x_right = np.asarray(x_right, dtype=float)
    v_left = np.asarray(v_left, dtype=float)
    v_right = np.asarray(v_right, dtype=float)
    h = (x_right - x_left)[:, None, None]
    hdot = (v_right - v_left)[:, None, None]
    vsum = (v_right + v_left)[:, None, None]
    i = np.arange(order + 1)
    diag = np.diag(2 * i + 1).astype(float)
    out = -0.5 * diag[None, :, :] * hdot / h
    out = out - np.where(odd_lower, coupled, 0.0)[None, :, :] * vsum / h
    out = out - np.where(even_lower, coupled, 0.0)[None, :, :] * hdot / h
    return out
