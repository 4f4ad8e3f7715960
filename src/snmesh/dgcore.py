"""Moving-mesh discontinuous Galerkin discretization of single-speed slab
transport with isotropic scattering.

Every problem is even in x, and so is every mesh law, so the state covers
the right half-slab alone: its cells are the right half of the law's
n_cells, and the edge at x = 0 reflects, the inflow at mu taking the
outgoing trace at -mu.

State layout: coefficients u[j, l, k] for Legendre moment j, discrete
direction l and cell k, flattened in C order for the time integrator.  For
each direction the semidiscrete system on a moving cell reads

    du/dt = G u + mu L u - u - surf + (c / 2) sum_l' w_l' u_l' + s,

where G and L are the motion and gradient matrices of the cell basis, surf is
the upwinded surface term, and s holds the per-direction projected source
(half the volumetric source in standard mode, (c / 2) phi_u in uncollided
mode).

The moment-major layout suits the right-hand side: its elementwise factors
vary by direction and cell, or by cell alone, so each broadcasts over a long
inner loop instead of over the J = order + 1 moments, and the (J, J) volume
patterns act on the state as one (J, N K) matrix.  The mesh factors and the
source moments depend on time alone: one step attempt computes them for all
its stage times from one edge table.
"""

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import analytic
from .analytic import SourceSpec
from .basis import index_masks, legendre_table
from .integrate import IntegrationStats, integrate
from .mesh import Mesh, edge_table
from .projection import cell_moments, moment_table, projection_points
from .quadrature import gauss_legendre, gauss_lobatto

SOURCE_MODES = ("standard", "uncollided")
MESH_MODES = ("static", "moving")


@dataclass(frozen=True)
class RunConfig:
    """Full description of one discrete solve."""

    spec: SourceSpec
    n_angles: int
    order: int
    n_cells: int
    mesh_mode: str
    source_mode: str
    t_final: float = 1.0
    rtol: float = 5e-13
    atol: float = 1e-12

    def __post_init__(self):
        if self.mesh_mode not in MESH_MODES:
            raise ValueError(f"mesh_mode must be one of {MESH_MODES}")
        if self.source_mode not in SOURCE_MODES:
            raise ValueError(f"source_mode must be one of {SOURCE_MODES}")
        if self.n_angles < 2 or self.n_angles % 2:
            raise ValueError("n_angles must be an even count >= 2")
        if self.order < 0:
            raise ValueError("order must be >= 0")
        if not 0 < self.t_final < np.inf:
            raise ValueError("t_final must be positive and finite")
        reason = self.spec.family.refuses.get(self.variant)
        if reason:
            raise ValueError(reason)
        # the mesh laws state the cell-count rules
        build_mesh(self)
        start = self.spec.family.start(self)
        if self.t_final < start:
            raise ValueError(
                f"t_final {self.t_final:g} is before this {self.spec.kind} "
                f"{self.variant} run's deferred start t = {start:g}"
            )

    @property
    def variant(self) -> str:
        return f"{self.source_mode}+{self.mesh_mode}"


def build_mesh(config: RunConfig) -> Mesh:
    """The right half, x >= 0, of the mesh law of the problem family and mesh
    mode on n_cells cells: an even count, so that x = 0 is an edge."""
    if config.n_cells < 2 or config.n_cells % 2:
        raise ValueError(f"the cell count must be even and at least 2, got "
                         f"{config.n_cells}: the solve runs on the right half")
    family = config.spec.family
    full = (family.moving if config.mesh_mode == "moving" else family.static)(config)
    half = config.n_cells // 2
    return Mesh(full.initial_edges[half:], full.velocities[half:], full.law)


@dataclass
class SolutionState:
    """DG coefficients at one time."""

    coeffs: np.ndarray  # (order + 1, n_angles, n_cells // 2)
    t: float


@dataclass
class SolveResult:
    state: SolutionState
    stats: IntegrationStats
    wall_seconds: float


class TransportSystem:
    """Assembles and advances the semidiscrete transport system."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.spec = config.spec
        self.mesh = build_mesh(config)
        self.n_cells = config.n_cells // 2  # the cells of the right half
        self.t_start = config.spec.family.start(config)
        rule = gauss_lobatto(config.n_angles)
        self.mu = rule.nodes
        self.weights = rule.weights
        j = np.arange(config.order + 1)
        self._sq = np.sqrt(2.0 * j + 1.0)
        self._alt = np.where(j % 2 == 0, self._sq, -self._sq)
        self._proj_rule = gauss_legendre(config.order + 7)
        self._moment_table = moment_table(self._proj_rule, self._sq)
        self._uncollided = config.source_mode == "uncollided"
        # source moments and mesh factors of the current step attempt, keyed
        # by stage time; the last panel plan
        self._prepared = {}
        self._plan = None
        # The per-cell gradient and motion matrices are fixed index patterns
        # scaled by cell width and edge speeds, so the volume terms reduce to
        # two shared (J, J) products plus per-cell scalings (see rhs_coeffs).
        # Row i of a pattern gathers the moments that feed moment i; a
        # pattern of zeros is None.  Every mesh law moves its edges at
        # constant velocity, so the edge speed terms and the upwind choice
        # hold for the whole solve.
        vel = self.mesh.velocities
        self._hdot = vel[1:] - vel[:-1]
        coupled, odd_lower, even_lower = index_masks(config.order)
        self._odd_pattern = (np.where(odd_lower, coupled, 0.0)
                             if odd_lower.any() else None)
        self._even_pattern = (np.where(even_lower, coupled, 0.0)
                              if even_lower.any() and self._hdot.any() else None)
        self._diag_weights = 2.0 * j + 1.0
        self._odd_speed = 2.0 * self.mu[:, None] - (vel[:-1] + vel[1:])[None, :]
        self._rel = self.mu[:, None] - vel[None, :]
        self._upwind_left = self._rel > 0.0

    # -- mesh and boundary -------------------------------------------------

    def mesh_at(self, t: float):
        """Edges (K + 1,) and cell widths (K,) at time t."""
        return edge_table(self.mesh, t)

    def boundary_values(self, t: float):
        """Inflow angular-flux trace just outside the outer edge: none, or a
        manufactured problem's isotropic solution, half its exact flux."""
        n = self.config.n_angles
        family = self.spec.family
        if family.drive is None:
            return np.zeros(n)
        edge = self.mesh.initial_edges[-1] + self.mesh.velocities[-1] * t
        return np.full(n, 0.5 * float(family.exact(edge, t, *self.spec.params)))

    # -- projections -------------------------------------------------------

    def project_function(self, times, f, kinks, table=None):
        """Per-cell moments (T, K, J) of f(x, t) at each of the times; f
        takes the node positions, all x >= 0, and their times as flat
        arrays.  ``kinks`` is the (T, R) table of |x| where f loses
        smoothness (as kink_radii; R = 0 for a smooth f), ``table`` the
        times' edge table if known."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        edges, widths = edge_table(self.mesh, times) if table is None else table
        self._plan, (x, node_t, *rest) = projection_points(
            self._plan, edges, kinks, times, self._proj_rule)
        return cell_moments(f(x, node_t), *rest, widths, self._sq, self._moment_table)

    def source_moments(self, times, table=None):
        """Projected per-direction source at each of the times: (T, K, J) if
        isotropic, else (T, N, K, J); ``table`` as in project_function."""
        times = np.asarray(times, dtype=float)
        spec = self.spec
        if self._uncollided:
            phi_u = lambda x, t: analytic.uncollided_scalar_flux(spec, x, t)
            return 0.5 * spec.c * self.project_function(
                times, phi_u, analytic.kink_radii(spec, times, True), table)
        if spec.family.drive is not None:
            src = lambda mu, x, t: spec.family.drive(x, mu, t, *spec.params)
            kinks = analytic.kink_radii(spec, times, False)
            even = self.project_function(times, lambda x, t: src(0.0, x, t), kinks, table)
            slope = self.project_function(
                times, lambda x, t: src(1.0, x, t) - src(0.0, x, t), kinks, table)
            return 0.5 * (even[:, None] + self.mu[None, :, None, None] * slope[:, None])
        if spec.family.source:
            src = lambda x, t: analytic.volumetric_source(spec, x, t)
            return 0.5 * self.project_function(
                times, src, analytic.kink_radii(spec, times, False), table)
        return np.zeros((times.size, self.n_cells, self.config.order + 1))

    def _mesh_factors(self, h):
        """Per-time scalings of the RHS for (T, K) cell widths h, moment-major:
        1/sqrt(h) (K,), the diagonal with the collision loss (J, K), the odd
        (N, K) and even (K,) volume factors, and the right and left trace
        factors (J, K) of the surface term."""
        inv_sqrt_h = 1.0 / np.sqrt(h)
        diag = (-0.5 * self._hdot / h)[:, None, :] * self._diag_weights[:, None] - 1.0
        odd = self._odd_speed / h[:, None, :]
        right = self._sq[:, None] * inv_sqrt_h[:, None, :]
        left = self._alt[:, None] * inv_sqrt_h[:, None, :]
        return list(zip(inv_sqrt_h, diag, odd, self._hdot / h, right, left))

    def _stage_terms(self, times):
        """(source moments, mesh factors) of the RHS at each of the times, the
        source moment-major: (J, K) if isotropic, else (J, N, K)."""
        table = edge_table(self.mesh, times)
        src = np.moveaxis(self.source_moments(times, table), -1, 1)
        return zip(np.ascontiguousarray(src), self._mesh_factors(table[1]))

    def _prepare_sources(self, times):
        """Stepper hook: the source moments and mesh factors of one step
        attempt's stage times, kept for rhs_coeffs under the exact float
        time."""
        # drop the last attempt's batch before building the next one
        self._prepared = {}
        self._prepared = dict(zip(times.tolist(), self._stage_terms(times)))

    def project_initial_condition(self) -> SolutionState:
        """State at the start time: the projected initial flux, or in
        uncollided mode the collided flux (the analytic part carries the
        uncollided particles).  That is zero, but for a source started at
        t_s > 0: its leading collided term, the profile at (c a / 2)
        int_0^t_s min(s, t0) ds, leaves O(t_s^3) of the mass out."""
        cfg, spec, t_s = self.config, self.spec, self.t_start
        shape = (cfg.order + 1, cfg.n_angles, self.n_cells)
        if not self._uncollided:
            # A delta initial condition becomes a box as wide as the cells
            # meeting at the origin: exactly representable, and halved with
            # the cells, so the standard treatment converges toward the point
            # pulse rather than toward a fixed smeared problem.
            width = float(self.mesh_at(t_s)[1][0])
            psi0 = lambda x, t: analytic.initial_psi(spec, x, width)
        elif spec.family.source and t_s > 0.0:
            on = min(t_s, spec.t0)
            peak = 0.5 * spec.c * spec.amplitude * on * (t_s - 0.5 * on)
            psi0 = lambda x, t: spec.family.profile(spec, x, peak)
        else:
            return SolutionState(np.zeros(shape), t_s)
        kinks = analytic.kink_radii(spec, [t_s], uncollided=False)
        coeffs = self.project_function([t_s], psi0, kinks)
        return SolutionState(np.broadcast_to(coeffs[0].T[:, None], shape).copy(), t_s)

    # -- semidiscrete right-hand side ---------------------------------------

    def rhs_coeffs(self, t: float, u: np.ndarray) -> np.ndarray:
        # the step attempt's batch holds the source and mesh factors of its
        # stage times; any other time is a batch of one
        terms = self._prepared.get(t)
        if terms is None:
            terms = next(self._stage_terms(np.array([t])))
        src, (inv_sqrt_h, diag, odd_fac, even_fac, right, left) = terms
        j_funcs, n, k_cells = u.shape
        flat = u.reshape(j_funcs, n * k_cells)
        # volume terms (G + mu L) u from the shared patterns, with the
        # collision loss -u folded into the diagonal
        du = diag[:, None, :] * u
        # one work buffer serves every product below
        work = np.empty((j_funcs, n * k_cells))
        part = work.reshape(u.shape)
        if self._odd_pattern is not None:
            np.matmul(self._odd_pattern, flat, out=work)
            part *= odd_fac
            du += part
        if self._even_pattern is not None:
            np.matmul(self._even_pattern, flat, out=work)
            part *= even_fac
            du -= part

        # upwinded traces: from_left[:, e] is the trace just left of edge e
        # and from_right[:, e] the one just right of it
        from_left = np.empty((n, k_cells + 1))
        from_right = np.empty((n, k_cells + 1))
        np.multiply((self._sq @ flat).reshape(n, k_cells), inv_sqrt_h,
                    out=from_left[:, 1:])
        np.multiply((self._alt @ flat).reshape(n, k_cells), inv_sqrt_h,
                    out=from_right[:, :-1])
        # the reflecting edge at x = 0: the inflow at +mu is the outgoing
        # trace at -mu (the directions are symmetric, so in reverse order)
        from_left[:, 0] = from_right[::-1, 0]
        from_right[:, -1] = self.boundary_values(t)
        flux = np.where(self._upwind_left, from_left, from_right)
        flux *= self._rel
        np.multiply(flux[None, :, 1:], right[:, None, :], out=part)
        du -= part
        np.multiply(flux[None, :, :-1], left[:, None, :], out=part)
        du += part

        # isotropic scattering gain plus external source
        gain = self.weights @ u
        gain *= 0.5 * self.spec.c
        if src.ndim == 2:
            gain += src
            du += gain[:, None, :]
        else:
            du += gain[:, None, :]
            du += src
        return du

    def rhs_flat(self, t: float, y: np.ndarray) -> np.ndarray:
        cfg = self.config
        u = y.reshape(cfg.order + 1, cfg.n_angles, self.n_cells)
        return self.rhs_coeffs(t, u).ravel()

    # -- time advancement ----------------------------------------------------

    def advance(self, state: SolutionState, t_target: float):
        """Integrate the state to t_target; returns (state, stats)."""
        at_start = state.t <= self.t_start and self.t_start > 0.0
        first = min(analytic.T_START_EPS, t_target - state.t) if at_start else None
        try:
            y, stats = integrate(
                self.rhs_flat, state.coeffs.ravel(), state.t, t_target,
                self.config.rtol, self.config.atol, first,
                prepare=self._prepare_sources,
            )
        finally:
            self._prepared = {}
        return SolutionState(y.reshape(state.coeffs.shape), t_target), stats

    def solve(self) -> SolveResult:
        """Project the initial state and advance to t_final, stopping at a
        source cutoff inside the span."""
        t_end = self.config.t_final
        stops = []
        if self.spec.family.source and self.t_start < self.spec.t0 < t_end:
            stops.append(float(self.spec.t0))
        wall0 = time.perf_counter()
        state = self.project_initial_condition()
        stats = IntegrationStats()
        for t_stop in stops + [t_end]:
            state, seg = self.advance(state, t_stop)
            stats = stats.merge(seg)
        wall = time.perf_counter() - wall0
        return SolveResult(state, stats, wall)

    # -- observables ---------------------------------------------------------

    def phi_moments(self, state: SolutionState) -> np.ndarray:
        """Quadrature-summed scalar-flux moments, shape (J, K)."""
        return self.weights @ state.coeffs

    def scalar_flux(self, state: SolutionState, points):
        """Scalar flux at the points, with the analytic uncollided part in
        uncollided mode.  A point x < 0 reads its mirror |x|; a point on an
        edge reads the cell on its left, so its mirror reads the one on the
        right of |x|."""
        edges, widths = self.mesh_at(state.t)
        points = np.asarray(points, dtype=float)
        pts = np.abs(points)
        if np.any(pts > edges[-1] + 1e-12 * max(1.0, 2.0 * edges[-1])):
            raise ValueError("evaluation point outside the mesh")
        cell = np.where(points < 0, np.searchsorted(edges, pts, side="right"),
                        np.searchsorted(edges, pts, side="left"))
        cell = np.clip(cell - 1, 0, self.n_cells - 1)
        xl = edges[cell]
        xr = edges[cell + 1]
        z = np.clip((2.0 * pts - xl - xr) / (xr - xl), -1.0, 1.0)
        table = legendre_table(z, self.config.order)
        mom = self.phi_moments(state)
        scaled = mom * self._sq[:, None] / np.sqrt(widths)
        phi = np.einsum("jp,jp->p", scaled[:, cell], table)
        if self._uncollided:
            phi = phi + analytic.uncollided_scalar_flux(self.spec, points, state.t)
        return phi

    def phi_integral(self, state: SolutionState) -> float:
        """integral(phi) dx over the whole slab, the mirror half included,
        exact per cell via mean moments."""
        _, widths = self.mesh_at(state.t)
        mom0 = self.phi_moments(state)[0]
        total = 2.0 * float(np.sum(mom0 * np.sqrt(widths)))
        if self._uncollided:
            total += float(analytic.uncollided_integral(self.spec, state.t))
        return total
