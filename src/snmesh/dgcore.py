"""Moving-mesh discontinuous Galerkin discretization of single-speed slab
transport with isotropic scattering.

State layout: coefficients u[l, k, j] for discrete direction l, cell k, and
Legendre moment j, flattened in C order for the time integrator.  For each
direction the semidiscrete system on a moving cell reads

    du/dt = G u + mu L u - u - surf + (c / 2) sum_l' w_l' u_l' + s,

where G and L are the motion and gradient matrices of the cell basis, surf is
the upwinded surface term, and s holds the per-direction projected source
(half the volumetric source in standard mode, (c / 2) phi_u in uncollided
mode).

The right-hand side keeps that (N, K, J) layout at its interface, but works
moment-major inside, on a (J, N, K) buffer.  Its elementwise factors vary
by direction and cell, or by cell alone, so in that order each one
broadcasts over a long inner loop instead of over the J = order + 1
moments, and at these sizes a numpy pass costs mostly its fixed overhead.
The volume products run as (J, J) patterns times the transposed state, the
last sum writes the (N, K, J) result through a transposed view, and every
element sees the same floating-point operations in the same order as an
(N, K, J) assembly would apply.  The mesh factors, like the source
moments, depend on time alone: they are computed once per step attempt for
all its stage times (once per solve on a static mesh).
"""

import time
from dataclasses import dataclass
from itertools import repeat
from typing import Optional

import numpy as np

from . import analytic
from .analytic import SOURCE_KINDS, SourceSpec
from .basis import index_masks, legendre_table
from .integrate import IntegrationStats, integrate
from .mesh import (
    Mesh,
    edge_table,
    hybrid_square_mesh,
    initial_width_for_gaussian,
    radial_half_mesh,
    radial_mesh,
    static_square_mesh,
    static_uniform_mesh,
)
from .projection import cell_moments, mirrored_values, projection_points
from .quadrature import gauss_legendre, gauss_lobatto

SOURCE_MODES = ("standard", "uncollided")
MESH_MODES = ("static", "moving")

# Effective initial half-width used when the moving mesh collapses onto a
# plane pulse, and the deferred start for meshes that degenerate at t = 0.
PLANE_EPS_X0 = 1e-10
T_START_EPS = 1e-10
# Plane uncollided runs defer further: cell widths grow like t, so explicit
# stepping pays a fixed step count per decade of mesh growth.  The collided
# production dropped by starting at t0 is ~c*t0 in mass, which at 1e-5 sits
# an order under the plane trust-gate abort limit and three decades under
# the smallest study error the saturation mask keeps.
PLANE_T_START = 1e-5

_SQUARE_KINDS = ("square-pulse", "square-source")


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
    # Solve the right half [0, R(t)] with a mirror boundary at the origin;
    # n_cells counts half cells, the resolution of a 2*n_cells full solve.
    half_domain: bool = False

    def __post_init__(self):
        if self.mesh_mode not in MESH_MODES:
            raise ValueError(f"mesh_mode must be one of {MESH_MODES}")
        if self.source_mode not in SOURCE_MODES:
            raise ValueError(f"source_mode must be one of {SOURCE_MODES}")
        if self.n_angles < 2 or self.n_angles % 2:
            raise ValueError("n_angles must be an even count >= 2")
        if self.order < 0:
            raise ValueError("order must be >= 0")
        if self.t_final <= 0:
            raise ValueError("t_final must be positive")
        kind = self.spec.kind
        if kind == "mms":
            if self.source_mode != "standard":
                raise ValueError(
                    "the manufactured problem drives the full flux directly; "
                    "run it with source_mode='standard'"
                )
            if self.mesh_mode != "moving":
                raise ValueError(
                    "the manufactured problem imposes its wavefront boundary "
                    "condition on a moving mesh; mesh_mode='static' cannot "
                    "track it"
                )
        if (
            kind == "plane-pulse"
            and self.mesh_mode == "moving"
            and self.source_mode == "standard"
        ):
            raise ValueError(
                "plane-pulse with a moving mesh requires the uncollided "
                "source treatment: projecting the near-singular initial "
                "condition on collapsed cells does not converge"
            )
        if self.half_domain and not (
            kind == "plane-pulse"
            and self.mesh_mode == "moving"
            and self.source_mode == "uncollided"
        ):
            raise ValueError(
                "half_domain is wired only for the plane-pulse uncollided "
                "moving mesh, the one case whose cost warrants it"
            )
        # the mesh laws state the cell-count rules
        build_mesh(self)
        start = start_time(self)
        if self.t_final < start:
            raise ValueError(
                f"t_final {self.t_final:g} is before this {kind} "
                f"{self.variant} run's deferred start t = {start:g}"
            )

    @property
    def variant(self) -> str:
        return f"{self.source_mode}+{self.mesh_mode}"


def build_mesh(config: RunConfig) -> Mesh:
    """Mesh law implied by the problem kind and mesh mode."""
    spec, K = config.spec, config.n_cells
    kind = spec.kind
    if kind == "mms":
        return radial_mesh(K, spec.x0)
    if config.mesh_mode == "moving":
        if kind == "plane-pulse":
            if config.half_domain:
                return radial_half_mesh(K, PLANE_EPS_X0)
            return radial_mesh(K, PLANE_EPS_X0)
        if kind in _SQUARE_KINDS:
            return hybrid_square_mesh(K, spec.x0)
        return radial_mesh(K, initial_width_for_gaussian(spec.sigma))
    if kind == "plane-pulse":
        return static_uniform_mesh(K, config.t_final)
    if kind in _SQUARE_KINDS:
        return static_square_mesh(K, spec.x0, config.t_final + spec.x0)
    return static_uniform_mesh(
        K, config.t_final + initial_width_for_gaussian(spec.sigma)
    )


def start_time(config: RunConfig) -> float:
    """Most problems start at t = 0; runs whose mesh or source is singular
    there are deferred to a small positive epsilon."""
    kind = config.spec.kind
    if kind == "plane-pulse" and (
        config.mesh_mode == "moving" or config.source_mode == "uncollided"
    ):
        return PLANE_T_START
    if config.mesh_mode == "moving" and kind in _SQUARE_KINDS:
        return T_START_EPS
    return 0.0


@dataclass
class SolutionState:
    """DG coefficients at one time."""

    coeffs: np.ndarray  # (n_angles, n_cells, order + 1)
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
        self.t_start = start_time(config)
        rule = gauss_lobatto(config.n_angles)
        self.mu = rule.nodes
        self.weights = rule.weights
        j = np.arange(config.order + 1)
        self._sq = np.sqrt(2.0 * j + 1.0)
        self._alt = np.where(j % 2 == 0, self._sq, -self._sq)
        self._proj_rule = gauss_legendre(config.order + 7)
        self._uncollided = config.source_mode == "uncollided"
        self._reflect_left = config.half_domain
        # source moments and mesh factors of the current step attempt,
        # keyed by stage time
        self._prepared = {}
        # The per-cell gradient and motion matrices are fixed index patterns
        # scaled by cell width and edge speeds, so the volume terms reduce to
        # two shared (J, J) products plus per-cell scalings (see rhs_coeffs).
        # Row i of a pattern gathers the moments that feed moment i.
        coupled, odd_lower, even_lower = index_masks(config.order)
        self._odd_pattern = np.where(odd_lower, coupled, 0.0)
        self._even_pattern = np.where(even_lower, coupled, 0.0)
        self._diag_weights = 2.0 * j + 1.0
        # Every mesh law moves its edges at constant velocity, so the edge
        # speed terms and the upwind choice hold for the whole solve.
        vel = self.mesh.velocities
        self._hdot = vel[1:] - vel[:-1]
        self._moving = bool(self._hdot.any())
        # on an exactly antisymmetric mesh with an edge at 0, even profiles
        # are evaluated on the nodes x > 0 alone (projection.mirrored_values)
        edges0 = self.mesh.initial_edges
        self._mirrored = bool(
            config.n_cells % 2 == 0
            and np.array_equal(edges0, -edges0[::-1])
            and np.array_equal(vel, -vel[::-1])
        )
        self._odd_speed = 2.0 * self.mu[:, None] - (vel[:-1] + vel[1:])[None, :]
        self._rel = self.mu[:, None] - vel[None, :]
        self._upwind_left = self._rel > 0.0
        # a static mesh has one set of factors for the whole solve
        self._static_factors = (
            None if vel.any() else self._mesh_factors(np.zeros(1))[0]
        )
        # and one projection of a standard-mode source: constant while it
        # is on, t <= t0, and zero after
        self._static_source = None
        if not (self._uncollided or vel.any()) and self.spec.kind in SOURCE_KINDS:
            self._static_source = self._volumetric_moments(np.array([self.spec.t0]))[0]

    # -- mesh and boundary -------------------------------------------------

    def mesh_at(self, t: float):
        """Edges (K + 1,) and cell widths (K,) at time t."""
        return edge_table(self.mesh, t)

    def boundary_values(self, t: float):
        """Inflow angular-flux traces just outside the outer edges."""
        n = self.config.n_angles
        if self.spec.kind == "mms":
            edge = self.mesh.initial_edges[-1] + self.mesh.velocities[-1] * t
            val = float(analytic.mms_solution(edge, t, self.spec.x0))
            return np.full(n, val), np.full(n, val)
        zero = np.zeros(n)
        return zero, zero

    # -- projections -------------------------------------------------------

    def project_function(self, times, f, kinks=None, even=False):
        """Per-cell moments (T, K, J) of f(x, t) at each of the times; f
        takes the node positions and their times as flat arrays.  ``kinks``
        maps a time to the |x| where f loses smoothness.  An ``even`` f,
        f(-x, t) == f(x, t) bit for bit, sees only the nodes x > 0 on a
        mirror-symmetric mesh with an edge at 0."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        mirror = even and self._mirrored
        x, node_t, wts, bins, z, widths = projection_points(
            self.mesh, self._proj_rule, times, kinks, mirror
        )
        values = mirrored_values(f, x, node_t) if mirror else f(x, node_t)
        return cell_moments(values, wts, bins, z, widths, self._sq)

    def source_moments(self, times):
        """Projected per-direction source at each of the times: (T, K, J) if
        isotropic, else (T, N, K, J)."""
        times = np.asarray(times, dtype=float)
        spec = self.spec
        if self._uncollided:
            if spec.kind == "plane-pulse" and self.config.mesh_mode == "moving":
                # Closed form: plateau e^-t/(2t), mean moment only.  The outer edges
                # sit PLANE_EPS_X0 past |x| = t, where phi_u ends, so the mass is
                # (1 + 1e-10/t) times too high and outer cells lose higher moments.
                _, widths = edge_table(self.mesh, times)
                out = np.zeros(widths.shape + (self.config.order + 1,))
                plateau = spec.amplitude * np.exp(-times) / (2.0 * times)
                out[..., 0] = 0.5 * spec.c * plateau[:, None] * np.sqrt(widths)
                return out
            kinks = lambda t: analytic.kink_radii(spec, t, uncollided=True)
            phi_u = lambda x, t: analytic.uncollided_scalar_flux(spec, x, t)
            return 0.5 * spec.c * self.project_function(times, phi_u, kinks, True)
        if spec.kind == "mms":
            x0 = spec.x0
            even = self.project_function(
                times, lambda x, t: analytic.mms_source(x, 0.0, t, x0), None, True
            )
            slope = self.project_function(
                times,
                lambda x, t: analytic.mms_source(x, 1.0, t, x0)
                - analytic.mms_source(x, 0.0, t, x0),
            )
            return 0.5 * (even[:, None] + self.mu[None, :, None, None] * slope[:, None])
        if spec.kind in SOURCE_KINDS:
            if self._static_source is not None:
                on = (times <= spec.t0)[:, None, None]
                return np.where(on, self._static_source, 0.0)
            return self._volumetric_moments(times)
        return np.zeros((times.size, self.config.n_cells, self.config.order + 1))

    def _volumetric_moments(self, times):
        """Projected standard-mode source, half the volumetric S(x, t)."""
        spec = self.spec
        kinks = lambda t: analytic.kink_radii(spec, t, uncollided=False)
        src = lambda x, t: analytic.volumetric_source(spec, x, t)
        return 0.5 * self.project_function(times, src, kinks, True)

    def _mesh_factors(self, times):
        """Per-time scalings of the RHS, in its moment-major layout: 1/sqrt(h)
        (K,), the diagonal with the collision loss (J, K), the odd (N, K)
        and even (K,) volume factors, and the right and left trace factors
        (J, K) of the surface term."""
        _, h = edge_table(self.mesh, times)
        inv_sqrt_h = 1.0 / np.sqrt(h)
        diag = (-0.5 * self._hdot / h)[:, None, :] * self._diag_weights[:, None] - 1.0
        odd = self._odd_speed / h[:, None, :]
        right = self._sq[:, None] * inv_sqrt_h[:, None, :]
        left = self._alt[:, None] * inv_sqrt_h[:, None, :]
        return list(zip(inv_sqrt_h, diag, odd, self._hdot / h, right, left))

    def _stage_terms(self, times):
        """(source moments, mesh factors) of the RHS at each of the times."""
        factors = (
            self._mesh_factors(times)
            if self._static_factors is None
            else repeat(self._static_factors)
        )
        return zip(self.source_moments(times), factors)

    def _prepare_sources(self, times):
        """Stepper hook: the source moments and mesh factors of one step
        attempt's stage times, kept for rhs_coeffs under the exact float
        time."""
        # drop the last attempt's batch before building the next one
        self._prepared = {}
        self._prepared = dict(zip(times.tolist(), self._stage_terms(times)))

    def project_initial_condition(self) -> SolutionState:
        """State at the start time: projected initial flux, or zero in
        uncollided mode (the analytic part carries the initial particles)."""
        cfg = self.config
        shape = (cfg.n_angles, cfg.n_cells, cfg.order + 1)
        if self._uncollided:
            return SolutionState(np.zeros(shape), self.t_start)
        kinks = ()
        plane_w = None
        if self.spec.kind == "square-pulse":
            kinks = (self.spec.x0,)
        elif self.spec.kind == "plane-pulse":
            # The delta initial condition is approximated at mesh resolution:
            # a box as wide as the cells meeting at the origin is exactly
            # representable, and halving the cells halves the smearing, so the
            # standard treatment converges toward the point pulse rather than
            # toward a fixed smeared problem.
            edges, _ = self.mesh_at(self.t_start)
            i = int(np.argmin(np.abs(edges)))
            i = min(max(i, 1), cfg.n_cells - 1)
            plane_w = float(edges[i + 1] - edges[i])
            kinks = (plane_w,)
        coeffs = self.project_function(
            [self.t_start],
            lambda x, t: analytic.initial_psi(self.spec, x, plane_w),
            lambda t: kinks,
        )
        return SolutionState(np.broadcast_to(coeffs[0], shape).copy(), self.t_start)

    # -- semidiscrete right-hand side ---------------------------------------

    def rhs_coeffs(self, t: float, u: np.ndarray) -> np.ndarray:
        # the step attempt's batch holds the source and mesh factors of its
        # stage times; any other time is a batch of one
        terms = self._prepared.get(t)
        if terms is None:
            terms = next(self._stage_terms(np.array([t])))
        src, (inv_sqrt_h, diag, odd_fac, even_fac, right, left) = terms
        n, k_cells, j_funcs = u.shape
        flat = u.reshape(n * k_cells, j_funcs)
        # volume terms (G + mu L) u from the shared patterns, with the
        # collision loss -u folded into the diagonal, worked moment-major
        du = np.empty((j_funcs, n, k_cells))
        np.multiply(diag[:, None, :], u.transpose(2, 0, 1), out=du)
        # one work buffer serves every product below
        work = self._odd_pattern @ flat.T
        part = work.reshape(du.shape)
        part *= odd_fac
        du += part
        if self._moving:
            np.matmul(self._even_pattern, flat.T, out=work)
            part *= even_fac
            du -= part

        # upwinded traces: from_left[:, e] is the trace just left of edge e
        # and from_right[:, e] the one just right of it
        from_left = np.empty((n, k_cells + 1))
        from_right = np.empty((n, k_cells + 1))
        np.multiply((flat @ self._sq).reshape(n, k_cells), inv_sqrt_h,
                    out=from_left[:, 1:])
        np.multiply((flat @ self._alt).reshape(n, k_cells), inv_sqrt_h,
                    out=from_right[:, :-1])
        bc_left, bc_right = self.boundary_values(t)
        if self._reflect_left:
            # mirror boundary at the origin: inflow at +mu is the outgoing
            # trace of -mu (directions are symmetric, so reversed order)
            bc_left = from_right[::-1, 0]
        from_left[:, 0] = bc_left
        from_right[:, -1] = bc_right
        flux = np.where(self._upwind_left, from_left, from_right)
        flux *= self._rel
        np.multiply(flux[None, :, 1:], right[:, None, :], out=part)
        du -= part
        np.multiply(flux[None, :, :-1], left[:, None, :], out=part)
        du += part

        # isotropic scattering gain plus external source, added in the pass
        # that writes the (N, K, J) result
        gain = np.dot(self.weights, u.reshape(n, -1)).reshape(k_cells, j_funcs)
        gain *= 0.5 * self.spec.c
        out = np.empty(u.shape)
        if src.ndim == 2:
            gain += src
            np.add(du, gain.T[:, None, :], out=out.transpose(2, 0, 1))
        else:
            du += gain.T[:, None, :]
            np.add(du, src.transpose(2, 0, 1), out=out.transpose(2, 0, 1))
        return out

    def rhs_flat(self, t: float, y: np.ndarray) -> np.ndarray:
        cfg = self.config
        u = y.reshape(cfg.n_angles, cfg.n_cells, cfg.order + 1)
        return self.rhs_coeffs(t, u).ravel()

    # -- time advancement ----------------------------------------------------

    def advance(self, state: SolutionState, t_target: float):
        """Integrate the state to t_target; returns (state, stats)."""
        at_start = state.t <= self.t_start
        first = T_START_EPS if (at_start and self.t_start > 0.0) else None
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
        if self.spec.kind in SOURCE_KINDS:
            if self.t_start < self.spec.t0 < t_end:
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
        """Quadrature-summed scalar-flux moments, shape (K, J)."""
        return np.tensordot(self.weights, state.coeffs, axes=(0, 0))

    def scalar_flux(self, state: SolutionState, points):
        """Scalar flux at the points, at |x| in a half-domain solve (edge hits read
        the left cell), with the analytic uncollided part in uncollided mode."""
        edges, widths = self.mesh_at(state.t)
        pts = np.asarray(np.abs(points) if self._reflect_left else points, dtype=float)
        slack = 1e-12 * max(1.0, edges[-1] - edges[0])
        if np.any(pts < edges[0] - slack) or np.any(pts > edges[-1] + slack):
            raise ValueError("evaluation point outside the mesh")
        cell = np.clip(
            np.searchsorted(edges, pts, side="left") - 1, 0, self.config.n_cells - 1
        )
        xl = edges[cell]
        xr = edges[cell + 1]
        z = np.clip((2.0 * pts - xl - xr) / (xr - xl), -1.0, 1.0)
        table = legendre_table(z, self.config.order)
        mom = self.phi_moments(state)
        scaled = mom * self._sq[None, :] / np.sqrt(widths)[:, None]
        phi = np.einsum("pj,jp->p", scaled[cell], table)
        if self._uncollided:
            phi = phi + analytic.uncollided_scalar_flux(self.spec, pts, state.t)
        return phi

    def phi_integral(self, state: SolutionState) -> float:
        """integral(phi) dx over the whole slab, a half-domain solve's mirror
        half included, exact per cell via mean moments."""
        _, widths = self.mesh_at(state.t)
        mom0 = self.phi_moments(state)[:, 0]
        total = (1 + self._reflect_left) * float(np.sum(mom0 * np.sqrt(widths)))
        if self._uncollided:
            total += float(analytic.uncollided_integral(self.spec, state.t))
        return total
