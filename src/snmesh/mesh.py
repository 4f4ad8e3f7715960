"""Mesh laws for the slab: static, radially expanding, and hybrid square-source.

Every law here moves each edge with a constant velocity, so a mesh is fully
described by its initial edges and an edge velocity vector:

    x_k(t) = x_k(0) + v_k * t.

The radial law scales velocities with the initial position so the outermost
edge moves at the wave speed (v = 1) and the edge at the origin never moves.
The hybrid law keeps the middle half of the cells pinned on the source region
[-x0, x0] while the outer quarters start with zero width at +-x0 and fan out,
the outermost edge tracking the wavefront.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Mesh:
    """A constant-edge-velocity mesh law."""

    initial_edges: np.ndarray
    velocities: np.ndarray
    law: str

    def __post_init__(self):
        e0 = np.asarray(self.initial_edges, dtype=float)
        v = np.asarray(self.velocities, dtype=float)
        if e0.ndim != 1 or e0.size < 2 or v.shape != e0.shape:
            raise ValueError("mesh needs matching 1-d edge and velocity arrays")
        if np.any(np.diff(e0) < 0):
            raise ValueError("initial edges must be non-decreasing")
        e0.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "initial_edges", e0)
        object.__setattr__(self, "velocities", v)


def edge_table(mesh: Mesh, times):
    """Edges and cell widths at each of the given times, shapes
    times.shape + (K + 1,) and times.shape + (K,); cells must have positive
    width at every time."""
    times = np.asarray(times, dtype=float)
    edges = mesh.initial_edges + mesh.velocities * times[..., None]
    widths = edges[..., 1:] - edges[..., :-1]
    if (widths <= 0.0).any():
        raise ValueError(f"mesh law {mesh.law!r} has degenerate cells at t={times}")
    return edges, widths


def _symmetrize(edges):
    return 0.5 * (edges - edges[::-1])


def static_uniform_mesh(n_cells: int, half_width: float) -> Mesh:
    """K uniform static cells on [-half_width, half_width]."""
    if n_cells < 1:
        raise ValueError("need at least one cell")
    if half_width <= 0:
        raise ValueError("half_width must be positive")
    edges = _symmetrize(np.linspace(-half_width, half_width, n_cells + 1))
    return Mesh(edges, np.zeros(n_cells + 1), "static")


def static_square_mesh(n_cells: int, x0: float, half_width: float) -> Mesh:
    """Static mesh for square sources: edges pinned at +-x0 when K % 4 == 0.

    The middle half of the cells spans the source [-x0, x0] and each outer
    quarter spans the remaining slab uniformly.  For cell counts that cannot
    honor the +-x0 edges (K not a multiple of 4) a uniform mesh is returned.
    """
    if half_width <= x0:
        raise ValueError("half_width must exceed the source half-width x0")
    if n_cells < 4 or n_cells % 4:
        return static_uniform_mesh(n_cells, half_width)
    q = n_cells // 4
    left = np.linspace(-half_width, -x0, q + 1)
    inner = np.linspace(-x0, x0, 2 * q + 1)
    right = np.linspace(x0, half_width, q + 1)
    edges = _symmetrize(np.concatenate([left[:-1], inner, right[1:]]))
    return Mesh(edges, np.zeros(n_cells + 1), "static")


def radial_mesh(n_cells: int, x0: float) -> Mesh:
    """Uniform cells on [-x0, x0] whose edges move radially.

    Edge velocities are x_k(0) / x_K(0), so the outermost edges track
    +-(x0 + t) and the origin edge is stationary.
    """
    if n_cells < 1:
        raise ValueError("need at least one cell")
    if x0 <= 0:
        raise ValueError("x0 must be positive")
    edges = _symmetrize(np.linspace(-x0, x0, n_cells + 1))
    return Mesh(edges, edges / x0, "radial")


def radial_half_mesh(n_cells: int, x0: float) -> Mesh:
    """Right half of the radial law, [0, x0], for reflection-symmetric runs.

    The origin edge is pinned at x = 0 with zero velocity; pair with a
    reflecting boundary there.  Cell widths match a 2*n_cells radial mesh.
    """
    if n_cells < 1:
        raise ValueError("need at least one cell")
    if x0 <= 0:
        raise ValueError("x0 must be positive")
    edges = np.linspace(0.0, x0, n_cells + 1)
    return Mesh(edges, edges / x0, "radial-half")


def hybrid_square_mesh(n_cells: int, x0: float) -> Mesh:
    """Hybrid mesh for square sources.

    Requires K >= 4 with K a multiple of 4 so the cells split into a static
    middle half on [-x0, x0] and two moving quarters.  The moving quarters
    start as zero-width cells piled at +-x0; their edge velocities fan
    linearly from 0 at the source edge to +-1 at the outermost edge, so for
    t > 0 every cell has positive width and the outermost edges track the
    wavefront +-(x0 + t).
    """
    if n_cells < 4 or n_cells % 4:
        raise ValueError(
            f"hybrid square mesh needs a cell count divisible by 4, got {n_cells}"
        )
    if x0 <= 0:
        raise ValueError("x0 must be positive")
    q = n_cells // 4
    inner = np.linspace(-x0, x0, 2 * q + 1)
    edges = np.concatenate([np.full(q, -x0), inner, np.full(q, x0)])
    fan = np.arange(q, 0, -1, dtype=float) / q
    vel = np.concatenate([-fan, np.zeros(2 * q + 1), fan[::-1]])
    return Mesh(_symmetrize(edges), vel, "hybrid-square")


def initial_width_for_gaussian(sigma: float) -> float:
    """Half-width where exp(-x^2 / sigma^2) drops to 1e-16."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return sigma * np.sqrt(-np.log(1e-16))
