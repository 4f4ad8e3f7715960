import numpy as np
import numpy.testing as npt
import pytest

from snmesh.basis import legendre_table
from snmesh.quadrature import gauss_legendre

from cell_matrices import (
    CellBasis,
    edge_traces,
    eval_basis,
    gradient_matrices,
    gradient_matrix,
    motion_matrices,
    motion_matrix,
)

SQ3 = np.sqrt(3.0)
SQ15 = np.sqrt(15.0)


def test_legendre_table_recurrence():
    z = np.linspace(-1, 1, 11)
    table = legendre_table(z, 4)
    npt.assert_allclose(table[0], np.ones_like(z))
    npt.assert_allclose(table[1], z)
    npt.assert_allclose(table[2], 0.5 * (3 * z**2 - 1), atol=1e-15)
    npt.assert_allclose(table[3], 0.5 * (5 * z**3 - 3 * z), atol=1e-15)
    npt.assert_allclose(
        table[4], 0.125 * (35 * z**4 - 30 * z**2 + 3), atol=1e-15
    )


@pytest.mark.parametrize("order,x_left,x_right", [
    (0, -1.0, 1.0),
    (3, 0.0, 0.25),
    (8, -0.3, 1.7),
])
def test_orthonormality(order, x_left, x_right):
    cell = CellBasis(order, x_left, x_right)
    rule = gauss_legendre(order + 2)
    mid, half = 0.5 * (x_left + x_right), 0.5 * (x_right - x_left)
    x = mid + half * rule.nodes
    tab = np.stack([eval_basis(cell, i, x) for i in range(order + 1)])
    gram = (tab * rule.weights) @ tab.T * half
    npt.assert_allclose(gram, np.eye(order + 1), atol=1e-13)


def test_eval_outside_cell_rejected():
    cell = CellBasis(2, 0.0, 1.0)
    with pytest.raises(ValueError):
        eval_basis(cell, 0, np.array([1.5]))


def test_edge_traces_signs_and_magnitude():
    cell = CellBasis(3, 0.0, 2.0)  # width 2, so traces are +-sqrt(2i+1)/sqrt(2)
    left, right = edge_traces(cell)
    expect = np.sqrt(2 * np.arange(4) + 1) / np.sqrt(2.0)
    npt.assert_allclose(right, expect, rtol=1e-15)
    npt.assert_allclose(left, expect * np.array([1, -1, 1, -1]), rtol=1e-15)


def test_gradient_matrix_worked_values():
    # width 2: L[i][j] = (2/h) sqrt((2i+1)(2j+1)) for j < i with i+j odd
    L = gradient_matrix(CellBasis(2, 0.0, 2.0))
    expect = np.array([
        [0.0, 0.0, 0.0],
        [SQ3, 0.0, 0.0],
        [0.0, SQ15, 0.0],
    ])
    npt.assert_allclose(L, expect, rtol=1e-15)
    # halving the width doubles every entry
    npt.assert_allclose(
        gradient_matrix(CellBasis(2, 0.0, 1.0)), 2 * expect, rtol=1e-15
    )


def test_gradient_plus_transpose_is_boundary_only():
    # integration by parts: L + L^T = B(1)B(1)^T - B(-1)B(-1)^T
    cell = CellBasis(6, -0.4, 1.1)
    L = gradient_matrix(cell)
    left, right = edge_traces(cell)
    npt.assert_allclose(
        L + L.T, np.outer(right, right) - np.outer(left, left), atol=1e-13
    )


def test_motion_matrix_worked_values():
    # symmetric expansion of (-1, 1) at edge speeds -1, +1
    G = motion_matrix(CellBasis(1, -1.0, 1.0, -1.0, 1.0))
    npt.assert_allclose(G, np.diag([-0.5, -1.5]), atol=1e-15)
    # one-sided motion picks up the odd lower-triangular coupling
    G2 = motion_matrix(CellBasis(1, 0.0, 1.0, 0.0, 1.0))
    npt.assert_allclose(G2, np.array([[-0.5, 0.0], [-SQ3, -1.5]]), atol=1e-15)


def test_motion_matrix_static_is_zero():
    G = motion_matrix(CellBasis(5, 0.2, 0.9))
    npt.assert_allclose(G, np.zeros((6, 6)), atol=0)


def _numeric_motion_matrix(order, x_left, x_right, v_left, v_right, eps=1e-6):
    """G_ij = <dB_i/dt, B_j> at fixed x, by central differences in t."""
    rule = gauss_legendre(order + 6)

    def basis_at(dt):
        xl, xr = x_left + v_left * dt, x_right + v_right * dt
        cell = CellBasis(order, xl, xr)
        mid, half = 0.5 * (xl + xr), 0.5 * (xr - xl)
        x = mid + half * rule.nodes  # quadrature nodes track the cell
        return cell, x

    cell0, x0 = basis_at(0.0)
    # evaluate d/dt B_i(x, t) at the fixed points x0 (interior at dt=0)
    G = np.zeros((order + 1, order + 1))
    cp, _ = basis_at(eps)
    cm, _ = basis_at(-eps)
    h0 = x_right - x_left
    w = rule.weights * 0.5 * h0
    for i in range(order + 1):
        dbi = (eval_basis(cp, i, x0) - eval_basis(cm, i, x0)) / (2 * eps)
        for j in range(order + 1):
            G[i, j] = np.sum(w * dbi * eval_basis(cell0, j, x0))
    return G


@pytest.mark.parametrize("geometry", [
    (-1.0, 1.0, -1.0, 1.0),
    (0.0, 1.0, 0.0, 1.0),
    (-0.7, 0.4, -0.25, 0.5),
    (0.1, 0.9, 0.3, -0.2),
])
def test_motion_matrix_matches_finite_difference(geometry):
    xl, xr, vl, vr = geometry
    order = 4
    G = motion_matrix(CellBasis(order, xl, xr, vl, vr))
    G_fd = _numeric_motion_matrix(order, xl, xr, vl, vr)
    # interior points stay inside the cell for small eps, so the FD
    # quadrature is valid; tolerance reflects the eps^2 truncation
    npt.assert_allclose(G, G_fd, atol=5e-9)


def test_batched_matrices_match_single_cell():
    edges = np.array([-1.0, -0.2, 0.5, 2.0])
    vels = np.array([-1.0, 0.1, 0.0, 0.8])
    Ls = gradient_matrices(3, edges[:-1], edges[1:])
    Gs = motion_matrices(3, edges[:-1], edges[1:], vels[:-1], vels[1:])
    for k in range(3):
        cell = CellBasis(3, edges[k], edges[k + 1], vels[k], vels[k + 1])
        npt.assert_allclose(Ls[k], gradient_matrix(cell), rtol=1e-15)
        npt.assert_allclose(Gs[k], motion_matrix(cell), rtol=1e-15)


def test_degenerate_cell_rejected():
    with pytest.raises(ValueError):
        CellBasis(1, 1.0, 1.0)
    with pytest.raises(ValueError):
        CellBasis(1, 1.0, 0.5)
