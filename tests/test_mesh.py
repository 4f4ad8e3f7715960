import numpy as np
import numpy.testing as npt
import pytest

from snmesh.mesh import (
    Mesh,
    edge_table,
    hybrid_square_mesh,
    initial_width_for_gaussian,
    radial_mesh,
    static_square_mesh,
    static_uniform_mesh,
)


def test_static_uniform_mesh():
    m = static_uniform_mesh(4, 2.0)
    npt.assert_allclose(m.initial_edges, [-2, -1, 0, 1, 2])
    npt.assert_allclose(m.velocities, 0.0)
    edges, _ = edge_table(m, 57.0)
    npt.assert_allclose(edges, m.initial_edges)


def test_static_square_mesh_pins_source_edges():
    m = static_square_mesh(8, 0.5, 1.5)
    assert 0.5 in m.initial_edges and -0.5 in m.initial_edges
    npt.assert_allclose(m.initial_edges[[0, -1]], [-1.5, 1.5])
    npt.assert_allclose(m.initial_edges, -m.initial_edges[::-1])
    # quarter / half / quarter split
    inside = (m.initial_edges >= -0.5) & (m.initial_edges <= 0.5)
    assert inside.sum() == 5  # 4 interior cells plus shared edges


def test_static_square_mesh_fallback_uniform():
    # cell counts that cannot split 1:2:1 fall back to even spacing
    m = static_square_mesh(6, 0.5, 1.5)
    npt.assert_allclose(m.initial_edges, np.linspace(-1.5, 1.5, 7))


def test_radial_mesh_scales_linearly():
    m = radial_mesh(4, 0.1)
    npt.assert_allclose(m.initial_edges, [-0.1, -0.05, 0.0, 0.05, 0.1])
    npt.assert_allclose(m.velocities, [-1.0, -0.5, 0.0, 0.5, 1.0])
    edges, widths = edge_table(m, 1.0)
    npt.assert_allclose(edges, [-1.1, -0.55, 0.0, 0.55, 1.1])
    # widths grow but stay proportional
    npt.assert_allclose(widths, widths[::-1])


def test_hybrid_mesh_fan_and_pinned_core():
    m = hybrid_square_mesh(8, 0.5)
    npt.assert_allclose(
        m.initial_edges,
        [-0.5, -0.5, -0.5, -0.25, 0.0, 0.25, 0.5, 0.5, 0.5],
    )
    npt.assert_allclose(
        m.velocities, [-1.0, -0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 1.0]
    )
    edges, _ = edge_table(m, 2.0)
    npt.assert_allclose(
        edges, [-2.5, -1.5, -0.5, -0.25, 0.0, 0.25, 0.5, 1.5, 2.5]
    )
    # middle half never moves
    npt.assert_allclose(edges[2:7], m.initial_edges[2:7])


def test_hybrid_mesh_degenerate_at_start():
    m = hybrid_square_mesh(4, 0.5)
    with pytest.raises(ValueError):
        edge_table(m, 0.0)  # outer cells have zero width until t > 0
    _, widths = edge_table(m, 1e-10)
    assert np.all(widths > 0)


def test_hybrid_mesh_requires_multiple_of_four():
    for k in (2, 3, 6, 9):
        with pytest.raises(ValueError):
            hybrid_square_mesh(k, 0.5)


def test_mesh_symmetry_preserved_under_motion():
    m = hybrid_square_mesh(12, 0.5)
    for t in (0.1, 0.7, 3.0):
        edges, _ = edge_table(m, t)
        npt.assert_allclose(edges, -edges[::-1], atol=1e-15)


def test_gaussian_initial_width():
    # half-width where exp(-x^2/sigma^2) reaches the floor value
    w = initial_width_for_gaussian(0.5)
    npt.assert_allclose(w, 0.5 * np.sqrt(-np.log(1e-16)), rtol=1e-15)
    npt.assert_allclose(np.exp(-(w / 0.5) ** 2), 1e-16, rtol=1e-12)
    assert 3.0 < w < 3.1


def test_crossing_edges_rejected():
    m = Mesh(
        initial_edges=np.array([0.0, 1.0, 2.0]),
        velocities=np.array([0.0, -2.0, 0.0]),
        law="custom",
    )
    with pytest.raises(ValueError):
        edge_table(m, 1.0)


def test_mesh_validation():
    with pytest.raises(ValueError):
        Mesh(
            initial_edges=np.array([1.0, 0.0]),
            velocities=np.array([0.0, 0.0]),
            law="bad",
        )
    with pytest.raises(ValueError):
        Mesh(
            initial_edges=np.array([0.0, 1.0]),
            velocities=np.array([0.0]),
            law="bad",
        )
