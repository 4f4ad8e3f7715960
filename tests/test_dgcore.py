"""Semidiscrete operator and solver checks.

The right-hand side is validated two ways that share no assembly code with
rhs_coeffs: once against per-cell matrices (cell_matrices.py), and once
against exact characteristic solutions (free streaming decouples the
directions, so each discrete ordinate must advect its own profile).  The
source moments, evaluated for all stage times of a step attempt at once,
are checked bit for bit against batches of one time, and to a stated
tolerance against a one-time-at-a-time, node-by-node projection kept here;
the moment-major RHS is checked against the (N, K, J) assembly it replaced
to a tolerance relative to each term's magnitude.  The mirrored evaluation
of even profiles and the per-batch static source are checked the same way.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from snmesh import analytic as an, projection
from snmesh.analytic import PLANE_EPS_X0, PLANE_T_START, T_START_EPS, SourceSpec
from snmesh.basis import legendre_table
from snmesh.dgcore import RunConfig, SolutionState, TransportSystem, build_mesh, start_time
from snmesh.integrate import _C, IntegrationError
from snmesh.mesh import (edge_table, hybrid_square_mesh, radial_mesh,
                         static_square_mesh, static_uniform_mesh)
from snmesh.presets import config_from_settings, preset_settings
from snmesh.projection import (breaks, cell_moments, mirror_symmetric,
                               mirrored_values, moment_table, projection_points)
from snmesh.quadrature import gauss_legendre

from cell_matrices import gradient_matrices, motion_matrices


def make_config(kind="gaussian-pulse", c=1.0, mesh="static", mode="standard",
                K=8, M=4, N=8, t_final=1.0, x0=0.5, sigma=0.5, t0=5.0, amplitude=1.0,
                half_domain=False):
    spec = SourceSpec(kind=kind, c=c, x0=x0, sigma=sigma, t0=t0, amplitude=amplitude)
    return RunConfig(spec=spec, n_angles=N, n_cells=K, order=M,
                     mesh_mode=mesh, source_mode=mode, t_final=t_final,
                     half_domain=half_domain)


def mesh_state(system, t):
    """The system's mesh at time t: edges, widths, velocities, n_cells."""
    edges, widths = system.mesh_at(t)
    return SimpleNamespace(edges=edges, widths=widths, n_cells=widths.size,
                           velocities=system.mesh.velocities)


def eval_direction(system, state, l, pts):
    """Reconstruct the angular flux of one discrete direction at points."""
    ms = mesh_state(system, state.t)
    pts = np.asarray(pts, dtype=float)
    cell = np.clip(np.searchsorted(ms.edges, pts, side="left") - 1, 0, ms.n_cells - 1)
    xl = ms.edges[cell]
    xr = ms.edges[cell + 1]
    z = np.clip((2.0 * pts - xl - xr) / (xr - xl), -1.0, 1.0)
    table = legendre_table(z, system.config.order)
    scaled = state.coeffs[:, l].T * system._sq[None, :] / np.sqrt(ms.widths)[:, None]
    return np.einsum("pj,jp->p", scaled[cell], table)


def reference_surface(system, u, t, a=lambda v: v):
    """Upwinded surface term (N, K, J), from the mesh state and the edge
    traces of u alone.  On a half-domain system the inflow at the origin in
    direction mu is the outgoing trace in direction -mu.  With ``a`` =
    np.abs (and u >= 0) every factor enters by its magnitude and both traces
    add: the scale of the term's rounding error."""
    ms = mesh_state(system, t)
    j = np.arange(u.shape[2])
    right = np.sqrt(2.0 * j + 1.0)  # sqrt(2j + 1) P_j(1)
    left = right * (-1.0) ** j  # sqrt(2j + 1) P_j(-1)
    sqrt_h = np.sqrt(ms.widths)
    trace_right = (u @ right) / sqrt_h
    trace_left = (u @ a(left)) / sqrt_h
    bc_left, bc_right = map(a, system.boundary_values(t))
    if system.config.half_domain:
        mirror = [int(np.argmin(np.abs(system.mu + mu))) for mu in system.mu]
        bc_left = trace_left[mirror, 0]
    from_left = np.concatenate([bc_left[:, None], trace_right], axis=1)
    from_right = np.concatenate([trace_left, bc_right[:, None]], axis=1)
    rel = system.mu[:, None] - ms.velocities[None, :]
    flux = a(rel) * np.where(rel > 0.0, from_left, from_right)
    outflow, inflow = flux[:, 1:, None] * right, flux[:, :-1, None] * a(left)
    total = outflow + inflow if a is np.abs else outflow - inflow
    return total / sqrt_h[None, :, None]


def reference_rhs(system, t, u, magnitude=False):
    """Independent assembly: per-cell matrices, explicit loops, (N, K, J).
    With ``magnitude`` every coefficient and factor enters by its absolute
    value and every term adds: each element's scale, to which the rounding
    of any summation order is relative."""
    a = np.abs if magnitude else (lambda v: v)
    sign = 1.0 if magnitude else -1.0
    u = a(u)
    ms = mesh_state(system, t)
    n, k, j = u.shape
    G = a(motion_matrices(j - 1, ms.edges[:-1], ms.edges[1:],
                          ms.velocities[:-1], ms.velocities[1:]))
    L = a(gradient_matrices(j - 1, ms.edges[:-1], ms.edges[1:]))
    du = np.empty_like(u)
    for d in range(n):
        for cell in range(k):
            du[d, cell] = G[cell] @ u[d, cell] + a(system.mu[d]) * (L[cell] @ u[d, cell])
    du += sign * reference_surface(system, u, t, a)
    phi = np.tensordot(a(system.weights), u, axes=(0, 0))
    du = du + sign * u + 0.5 * system.spec.c * phi[None, :, :]
    src = a(system.source_moments([t])[0])
    return du + (src[None, :, :] if src.ndim == 2 else src)


# The moment-major RHS sums the terms of each element in another order than
# the (N, K, J) assemblies do: they agree to this factor of the element's
# scale (reference_rhs with magnitude), about 450 ulps.
RHS_RTOL = 1e-13


def assert_rhs_close(got, want, scale):
    """got and want (J, N, K) within RHS_RTOL of the elementwise scale."""
    excess = np.abs(got - want) - RHS_RTOL * scale
    assert excess.max() <= 0.0, np.unravel_index(excess.argmax(), excess.shape)


def moment_major(u):
    """An (N, K, J) array in the solver's (J, N, K) layout."""
    return np.ascontiguousarray(u.transpose(2, 0, 1))


class TestRhsDualRoute:
    CASES = [
        ("gaussian-pulse", "uncollided", "moving", 8, 4, 8, 0.7),
        ("square-source", "uncollided", "moving", 8, 6, 4, 2.3),
        ("square-pulse", "standard", "static", 6, 3, 4, 0.5),
        ("plane-pulse", "uncollided", "moving", 8, 5, 8, 0.9),
        ("mms", "standard", "moving", 4, 6, 8, 0.6),
    ]

    @staticmethod
    def check(system, t, u):
        got = system.rhs_coeffs(t, moment_major(u))
        assert_rhs_close(got, moment_major(reference_rhs(system, t, u)),
                         moment_major(reference_rhs(system, t, u, magnitude=True)))
        return got

    @pytest.mark.parametrize("kind,mode,mesh,K,M,N,t", CASES)
    def test_matches_per_cell_matrices(self, kind, mode, mesh, K, M, N, t):
        c = 1.0 if kind == "mms" else 0.85
        cfg = make_config(kind=kind, c=c, mesh=mesh, mode=mode, K=K, M=M, N=N,
                          x0=0.1 if kind == "mms" else 0.5)
        system = TransportSystem(cfg)
        rng = np.random.default_rng(hash(kind) % 2**32)
        self.check(system, t, rng.standard_normal((N, K, M + 1)))

    def test_half_domain_mirror_inflow(self):
        # plane pulse u+m on the right half: the left inflow is the mirror
        # trace, so a wrong pairing of directions shows at O(1)
        cfg = make_config(kind="plane-pulse", c=0.85, mesh="moving", mode="uncollided",
                          K=4, M=5, N=8, half_domain=True)
        system = TransportSystem(cfg)
        u = np.random.default_rng(7).standard_normal((8, 4, 6))
        got = self.check(system, 0.9, u)
        # the case exercises the mirror: with a zero inflow the RHS moves at O(1)
        system._reflect_left = False
        assert np.max(np.abs(system.rhs_coeffs(0.9, moment_major(u)) - got)) > 1e-2


class TestFreeStreaming:
    """c = 0 decouples directions: psi_l(x, t) = e^-t psi0(x - mu_l t)."""

    def test_static_mesh_advects_each_direction(self):
        cfg = make_config(kind="gaussian-pulse", c=0.0, mesh="static",
                          mode="standard", K=16, M=8, N=8, t_final=0.4)
        system = TransportSystem(cfg)
        res = system.solve()
        pts = np.linspace(-1.6, 1.6, 41)
        t = res.state.t
        worst = 0.0
        for l, mu in enumerate(system.mu):
            got = eval_direction(system, res.state, l, pts)
            want = 0.5 * np.exp(-t) * np.exp(-((pts - mu * t) ** 2) / 0.25)
            worst = max(worst, np.max(np.abs(got - want)))
        assert worst < 2e-7

    def test_moving_mesh_advects_each_direction(self):
        cfg = make_config(kind="gaussian-pulse", c=0.0, mesh="moving",
                          mode="standard", K=12, M=8, N=8, t_final=0.4)
        system = TransportSystem(cfg)
        res = system.solve()
        pts = np.linspace(-1.6, 1.6, 41)
        t = res.state.t
        for l, mu in enumerate(system.mu):
            got = eval_direction(system, res.state, l, pts)
            want = 0.5 * np.exp(-t) * np.exp(-((pts - mu * t) ** 2) / 0.25)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)


class TestPolynomialExactness:
    """An isotropic flux that is one quadratic in x across the slab lies in
    the DG space at every time and has continuous traces, so the scheme must
    carry it exactly, however the edges move: any error in the motion term,
    the traces at moving edges or the edge law shows up at O(1)."""

    @staticmethod
    def psi(x, t):
        return 1.0 + t + (0.5 - 0.3 * t) * x + 0.2 * (1.0 + t * t) * x * x

    @staticmethod
    def psi_t(x, t):
        return 1.0 - 0.3 * x + 0.4 * t * x * x

    @staticmethod
    def psi_x(x, t):
        return 0.5 - 0.3 * t + 0.4 * (1.0 + t * t) * x

    @pytest.mark.parametrize("mesh", ["static", "moving"])
    def test_quadratic_carried_exactly(self, mesh):
        c = 0.7
        cfg = make_config(kind="gaussian-pulse", c=c, mesh=mesh, mode="standard",
                          K=5, M=3, N=8, t_final=1.0)
        system = TransportSystem(cfg)
        psi, psi_t, psi_x = self.psi, self.psi_t, self.psi_x

        def source(times, table=None):
            # psi_t + mu psi_x + psi - (c / 2) phi with phi = 2 psi
            even = system.project_function(
                times, lambda x, t: psi_t(x, t) + (1.0 - c) * psi(x, t), smooth(times), False,
                table)
            slope = system.project_function(times, psi_x, smooth(times), False, table)
            return even[:, None] + system.mu[None, :, None, None] * slope[:, None]

        def inflow(t):
            edges = mesh_state(system, t).edges
            n = cfg.n_angles
            return np.full(n, psi(edges[0], t)), np.full(n, psi(edges[-1], t))

        system.source_moments = source
        system.boundary_values = inflow
        shape = (cfg.order + 1, cfg.n_angles, cfg.n_cells)
        start = system.project_function([0.0], psi, smooth([0.0]))[0]
        state = SolutionState(np.broadcast_to(start.T[:, None], shape).copy(), 0.0)
        state, _ = system.advance(state, 1.0)
        want = system.project_function([1.0], psi, smooth([1.0]))[0]
        np.testing.assert_allclose(state.coeffs, np.broadcast_to(want.T[:, None], shape),
                                   rtol=0, atol=1e-11)


class TestPureAbsorberBoundaryLayer:
    def test_steady_state_matches_attenuation_law(self):
        # incoming unit flux on the left face, c = 0: the steady angular flux
        # is exp(-(x + 1) / mu) for mu > 0 and zero for mu < 0
        cfg = make_config(kind="square-pulse", c=0.0, mesh="static",
                          mode="standard", K=8, M=6, N=8, t_final=0.5)
        system = TransportSystem(cfg)
        n = cfg.n_angles
        system.boundary_values = lambda t: (np.ones(n), np.zeros(n))
        shape = (cfg.order + 1, n, cfg.n_cells)
        state = SolutionState(np.zeros(shape), 0.0)
        state, _ = system.advance(state, 12.0)
        pts = np.linspace(-0.999, 0.999, 25)
        want = np.zeros_like(pts)
        for mu, w in zip(system.mu, system.weights):
            if mu > 0:
                want += w * np.exp(-(pts + 1.0) / mu)
        got = system.scalar_flux(state, pts)
        np.testing.assert_allclose(got, want, rtol=0, atol=2e-6)
        # no particles travel leftward
        leftward = eval_direction(system, state, 0, pts)
        assert np.max(np.abs(leftward)) < 1e-8


class TestSourceMoments:
    @pytest.mark.parametrize("half_domain", [False, True])
    def test_plane_moments_carry_the_exact_mass(self, half_domain):
        # the outer edges sit PLANE_EPS_X0 past the front |x| = t, where
        # phi_u ends: the kink split keeps that sliver out of the mass, which
        # a plateau on every cell would raise by 1e-10 / t
        cfg = make_config(kind="plane-pulse", c=0.9, mesh="moving", mode="uncollided",
                          K=4 if half_domain else 8, M=4, N=8, x0=0.0,
                          half_domain=half_domain)
        system = TransportSystem(cfg)
        for t in (1e-4, 0.3, 1.0):
            ms = mesh_state(system, t)
            assert ms.edges[-1] - t == pytest.approx(PLANE_EPS_X0, rel=1e-5)
            mom = system.source_moments([t])[0]
            total = (1 + half_domain) * np.sum(mom[:, 0] * np.sqrt(ms.widths))
            want = 0.5 * system.spec.c * float(an.uncollided_integral(system.spec, t))
            assert total == pytest.approx(want, rel=1e-13)

    def test_uncollided_square_moments_integrate_the_flux(self):
        cfg = make_config(kind="square-pulse", c=1.0, mesh="static",
                          mode="uncollided", K=8, M=6, N=4, t_final=1.0)
        system = TransportSystem(cfg)
        t = 0.6
        ms = mesh_state(system, t)
        mom = system.source_moments([t])[0]
        total = np.sum(mom[:, 0] * np.sqrt(ms.widths))
        want = 0.5 * float(an.uncollided_integral(system.spec, t))
        assert total == pytest.approx(want, rel=1e-9)

    def test_standard_mode_pulse_has_no_volume_source(self):
        cfg = make_config(kind="gaussian-pulse", mesh="static", mode="standard")
        system = TransportSystem(cfg)
        assert np.all(system.source_moments([0.5]) == 0.0)

    def test_mms_source_is_angle_resolved(self):
        cfg = make_config(kind="mms", mesh="moving", mode="standard",
                          K=4, M=5, N=8, x0=0.1)
        system = TransportSystem(cfg)
        src = system.source_moments([0.5])[0]
        assert src.shape == (8, 4, 6)
        # linear in mu: the midpoint of opposite directions equals mu = 0
        mid = 0.5 * (src[0] + src[-1])
        inner = 0.5 * (src[3] + src[4])
        np.testing.assert_allclose(mid, inner, rtol=0, atol=1e-12)


def kink_row(spec, t, uncollided):
    """The radii of the kink table at the single time t."""
    row = an.kink_radii(spec, np.array([t]), uncollided)[0]
    return row[~np.isnan(row)]


def smooth(times):
    """The empty (T, 0) kink table of a profile smooth at every time."""
    return np.empty((np.size(times), 0))


def fresh_points(system, times, kinks, mirror=False):
    """Panel nodes (x, node_t, wts, bins, z) of the times through a new plan."""
    edges, _ = edge_table(system.mesh, times)
    return projection_points(None, edges, kinks, times, system._proj_rule, mirror)[1]


def _per_time_points(system, ms, kinks):
    """Panel nodes of one time, as the solver built them before it batched
    over stage times: (x, weight, cell, z)."""
    edges = ms.edges
    rule = system._proj_rule
    lo, hi = edges[0], edges[-1]
    extra = [r for s in kinks for r in (-s, s) if lo < r < hi]
    breaks = np.unique(np.concatenate([edges, np.array(extra)])) if extra else edges
    mid = 0.5 * (breaks[:-1] + breaks[1:])
    half = 0.5 * (breaks[1:] - breaks[:-1])
    cell = np.clip(np.searchsorted(edges, mid, side="right") - 1, 0, ms.n_cells - 1)
    xl = edges[cell][:, None]
    xr = edges[cell + 1][:, None]
    nodes = mid[:, None] + half[:, None] * rule.nodes[None, :]
    wts = half[:, None] * rule.weights[None, :]
    z = np.clip((2.0 * nodes - xl - xr) / (xr - xl), -1.0, 1.0)
    return nodes.ravel(), wts.ravel(), np.repeat(cell, rule.n), z.ravel()


def _per_time_project(system, ms, f, kinks=()):
    """(K, J) moments of f at one time, node by node: the full Legendre
    table and one bincount over (moment, cell) bins."""
    x, wts, cell, z = _per_time_points(system, ms, kinks)
    order, k_cells = system.config.order, ms.n_cells
    table = legendre_table(z, order)
    bins = cell + k_cells * np.arange(order + 1)[:, None]
    out = np.bincount(bins.ravel(), weights=(table * (wts * f(x))).ravel(),
                      minlength=(order + 1) * k_cells).reshape(order + 1, k_cells).T
    return out * (system._sq[None, :] / np.sqrt(ms.widths)[:, None])


def per_time_source(system, t):
    """Source moments at one time through the analytic functions at a
    scalar t, node by node: the reference the batched evaluation must meet
    to MOMENT_RTOL."""
    spec, ms = system.spec, mesh_state(system, t)
    if system.config.source_mode == "uncollided":
        kinks = kink_row(spec, t, uncollided=True)
        phi_u = lambda x: an.uncollided_scalar_flux(spec, x, t)
        return 0.5 * spec.c * _per_time_project(system, ms, phi_u, kinks)
    if spec.kind == "mms":
        even = _per_time_project(system, ms, lambda x: an.mms_source(x, 0.0, t, spec.x0))
        slope = _per_time_project(
            system, ms,
            lambda x: an.mms_source(x, 1.0, t, spec.x0) - an.mms_source(x, 0.0, t, spec.x0))
        return 0.5 * (even[None] + system.mu[:, None, None] * slope[None])
    if spec.family.source:
        kinks = kink_row(spec, t, uncollided=False)
        src = lambda x: an.volumetric_source(spec, x, t)
        return 0.5 * _per_time_project(system, ms, src, kinks)
    return np.zeros((ms.n_cells, system.config.order + 1))


# A whole cell's moments come from one product with the weighted Legendre
# table, in another summation order and at the rule's own reference
# coordinates: they meet the node-by-node projection to this factor of the
# largest moment compared, plus that projection's own rounding of z.
MOMENT_RTOL = 1e-14


def assert_moments_close(got, want, system, times):
    """Source moments (T, [N,] K, J) of the times against the node-by-node
    projection.  That projection reads z from node positions x rounded to
    eps R, R the time's outermost |x|, so in a cell of width h its P_j(z)
    move by up to j (j + 1) eps R / h (|P_j'| <= j (j + 1) / 2): relative to
    the cell's largest moment, a cell an ulp-scale fraction of R wide may
    differ at that level."""
    edges, widths = edge_table(system.mesh, np.asarray(times, dtype=float))
    J = want.shape[-1]
    rounding = J * J * np.finfo(float).eps * np.abs(edges).max(axis=1)[:, None] / widths
    cells = np.abs(want).max(axis=-1)
    if want.ndim == 4:  # mms: (T, N, K, J)
        cells = cells.max(axis=1)
    atol = MOMENT_RTOL * np.abs(want).max() + rounding * cells
    atol = atol[:, None, :, None] if want.ndim == 4 else atol[..., None]
    excess = np.abs(got - want) - atol
    assert excess.max() <= 0.0, np.unravel_index(excess.argmax(), excess.shape)


def batches_of_one(project, times):
    """project([t])[0] at each of the times, stacked: a batch of one time."""
    return np.stack([project(np.array([tt]))[0] for tt in times])


def _feasible_variants():
    out = []
    for kind in an.KINDS:
        for mode in ("standard", "uncollided"):
            for mesh in ("static", "moving"):
                try:
                    make_config(kind=kind, mode=mode, mesh=mesh, x0=0.5, t0=1.0)
                except ValueError:
                    continue
                out.append((kind, mode, mesh))
    return out


class TestBatchedSourceMoments:
    """One evaluation for all stage times of a DOP853 attempt equals, bit
    for bit, batches of one time, and meets the per-time node-by-node
    projection to MOMENT_RTOL.  x0 = 0.5 and t0 = 1 put kink events at t =
    x0 = t0 - x0 and t = t0 + x0 and the source cut-off at t = t0; the
    attempts (t, h) straddle each of them."""

    ATTEMPTS = [(0.45, 0.1), (0.95, 0.1), (1.45, 0.1), (0.2, 1e-3)]

    @pytest.mark.parametrize("kind,mode,mesh", _feasible_variants())
    def test_stage_batch_equals_per_time(self, kind, mode, mesh):
        cfg = make_config(kind=kind, c=0.8 if kind != "mms" else 1.0, mode=mode,
                          mesh=mesh, K=8, M=4, N=4, x0=0.5, t0=1.0, t_final=2.0)
        system = TransportSystem(cfg)
        for t, h in self.ATTEMPTS:
            times = t + _C[1:] * h
            got = system.source_moments(times)
            # the bytes: array equality does not see the sign of a zero
            assert got.tobytes() == batches_of_one(system.source_moments, times).tobytes()
            want = np.stack([per_time_source(system, tt) for tt in times])
            assert_moments_close(got, want, system, times)
        # a batch of one: the first RHS call and the starting-step probe
        assert_moments_close(system.source_moments([0.7]), per_time_source(system, 0.7)[None],
                             system, [0.7])

    @pytest.mark.parametrize("ulps", [-2, -1, 1, 2])
    def test_kinks_an_ulp_from_an_edge(self, ulps):
        # panels an ulp or two wide: their midpoints may round onto an edge,
        # which must pick the cell a search of the edges picks
        cfg = make_config(kind="gaussian-pulse", mesh="moving", K=8, M=3, N=4)
        system = TransportSystem(cfg)
        times = 0.3 + _C[1:] * 0.05
        def kinks(t):
            edge = mesh_state(system, t).edges[5]
            step = np.inf if ulps > 0 else -np.inf
            for _ in range(abs(ulps)):
                edge = np.nextafter(edge, step)
            return (abs(edge),)
        f = lambda x, t: np.exp(-x * x) * (1.0 + t)
        project = lambda times: system.project_function(
            times, f, np.array([kinks(tt) for tt in times]))
        got = project(times)
        assert got.tobytes() == batches_of_one(project, times).tobytes()
        want = np.stack([_per_time_project(system, mesh_state(system, tt),
                                           lambda x: f(x, tt), kinks(tt)) for tt in times])
        assert_moments_close(got, want, system, times)

    def test_prepared_attempt_feeds_the_rhs(self):
        cfg = make_config(kind="square-source", mode="uncollided", mesh="moving",
                          K=8, M=3, N=4, x0=0.5, t0=1.0)
        system = TransportSystem(cfg)
        u = np.random.default_rng(3).standard_normal((4, 4, 8))  # (J, N, K)
        times = 0.45 + _C[1:] * 0.1
        cold = [system.rhs_coeffs(tt, u) for tt in times]
        system._prepare_sources(times)
        assert set(system._prepared) == set(times.tolist())
        for tt, want in zip(times, cold):
            np.testing.assert_array_equal(system.rhs_coeffs(tt, u), want)

    @pytest.mark.parametrize("kind,mode", [("gaussian-pulse", "standard"),
                                           ("square-source", "uncollided")])
    def test_static_mesh_stage_factors_are_those_of_t0(self, kind, mode):
        # a static mesh takes the batch path: every time's mesh factors
        # are the ones at t = 0, bit for bit
        cfg = make_config(kind=kind, mode=mode, mesh="static", K=8, M=3, N=4,
                          x0=0.5, t0=1.0)
        system = TransportSystem(cfg)
        want = next(system._stage_terms(np.zeros(1)))[1]
        for _, factors in system._stage_terms(0.45 + _C[1:] * 0.1):
            for a, b in zip(factors, want):
                assert a.tobytes() == b.tobytes()

    def test_advance_leaves_no_prepared_sources(self):
        cfg = make_config(kind="square-source", mode="uncollided", mesh="static",
                          K=4, M=2, N=4, t_final=0.2)
        system = TransportSystem(cfg)
        system.solve()
        assert system._prepared == {}


class TestWholeCellProduct:
    """A panel from edge to edge spans its cell, and its moments come from
    one product with the weighted Legendre table; they meet the bincount
    route, which every panel takes once the plan marks none whole, to 1e-14
    of each cell's largest moment."""

    @pytest.mark.parametrize("mirror", [False, True])
    @pytest.mark.parametrize("order", range(11))
    def test_product_equals_bincount_route(self, order, mirror):
        cfg = make_config(kind="square-source", mode="uncollided", mesh="moving",
                          K=8, M=order, N=4, x0=0.5, t0=1.0)
        system = TransportSystem(cfg)
        times = 0.45 + _C[1:] * 0.1
        edges, widths = edge_table(system.mesh, times)
        kinks = an.kink_radii(system.spec, times, True)
        rule = system._proj_rule
        plan, points = projection_points(None, edges, kinks, times, rule, mirror)
        whole_bins, split_bins = points[3], points[5]
        # the batch mixes whole and split cells, and no cell is both
        assert whole_bins.size and split_bins.size
        assert np.unique(whole_bins).size == whole_bins.size
        assert not np.isin(whole_bins, split_bins).any()
        assert np.union1d(whole_bins, split_bins).size == widths.size
        plan.whole = np.zeros_like(plan.whole)
        split = plan.apply(breaks(edges, kinks)[0], times, rule)
        assert split[3].size == 0
        f = lambda x, t: an.uncollided_scalar_flux(system.spec, x, t)
        args = widths, system._sq, system._moment_table
        got = cell_moments(f(*points[:2]), *points[2:], *args)
        want = cell_moments(f(*split[:2]), *split[2:], *args)
        scale = np.abs(want).max(axis=-1, keepdims=True)
        assert (np.abs(got - want) <= 1e-14 * scale).all()
        # the split cells take the same route either way
        rows = np.isin(np.arange(widths.size), split_bins).reshape(widths.shape)
        assert got[rows].tobytes() == want[rows].tobytes()

    def test_kink_free_profiles_take_the_product_alone(self):
        cfg = make_config(kind="gaussian-source", mode="uncollided", mesh="moving",
                          K=8, M=4, N=4)
        system = TransportSystem(cfg)
        times = 0.45 + _C[1:] * 0.1
        system.source_moments(times)
        assert system._plan.whole.all()


class TestPanelPlan:
    """A plan of the panel geometry is reused while the breaks keep their
    order and rebuilt when they do not, and either way the moments are
    those of the per-time projection, bit for bit."""

    def test_replayed_solve_reuses_and_rebuilds(self):
        # t0 = 1: the kinks cross edges and the shut-off radii appear at t0
        cfg = make_config(kind="square-source", mode="uncollided", mesh="moving",
                          K=8, M=2, N=4, x0=0.5, t0=1.0, t_final=1.5)
        recorder = TransportSystem(cfg)
        batches = []
        prepare = recorder._prepare_sources
        recorder._prepare_sources = lambda times: (batches.append(times.copy()),
                                                   prepare(times))
        recorder.solve()
        system, twin = TransportSystem(cfg), TransportSystem(cfg)
        assert system._mirrored
        reused = rebuilt = 0
        for times in batches:
            before = system._plan
            got = system.source_moments(times)
            after = system._plan
            reused += after is before
            rebuilt += before is not None and after is not before
            # batches of one on a twin, whose plans leave this system's alone
            assert got.tobytes() == batches_of_one(twin.source_moments, times).tobytes()
            want = np.stack([per_time_source(system, tt) for tt in times])
            assert_moments_close(got, want, system, times)
        assert reused > 0 and rebuilt > 0
        assert any((times > 1.0).any() for times in batches)

    @pytest.mark.parametrize("mirror", [False, True])
    def test_reused_plan_gives_the_points_of_a_fresh_one(self, mirror):
        cfg = make_config(kind="square-source", mode="uncollided", mesh="moving",
                          K=8, M=3, N=4, x0=0.5, t0=1.0)
        system = TransportSystem(cfg)
        rule, plan, reused = system._proj_rule, None, 0
        for t in np.linspace(0.05, 1.9, 60):
            times = t + _C[1:] * 0.03
            edges, _ = edge_table(system.mesh, times)
            kinks = an.kink_radii(system.spec, times, True)
            prior = plan
            plan, got = projection_points(plan, edges, kinks, times, rule, mirror)
            reused += plan is prior
            want = projection_points(None, edges, kinks, times, rule, mirror)[1]
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()
        assert 0 < reused < 59

    @pytest.mark.parametrize("mirror", [False, True])
    def test_kink_columns_permuted_or_duplicated_give_the_same_points(self, mirror):
        # the plan alone orders the breaks and keeps each tie once, so the
        # kink table's column order and repeated radii do not matter; t = 2
        # x0 ties |t - x0| with x0, and t > t0 fills every column
        cfg = make_config(kind="square-source", mode="uncollided", mesh="moving",
                          K=8, M=3, N=4, x0=0.5, t0=1.0)
        system = TransportSystem(cfg)
        for times in (np.array([0.3, 1.0, 1.2]), 0.95 + _C[1:] * 0.1):
            kinks = an.kink_radii(system.spec, times, True)
            want = fresh_points(system, times, kinks, mirror)
            variants = (kinks[:, ::-1], np.roll(kinks, 2, axis=1),
                        np.hstack([kinks, kinks[:, :2]]), np.repeat(kinks, 2, axis=1))
            for other in variants:
                got = fresh_points(system, times, other, mirror)
                for a, b in zip(got, want):
                    assert a.tobytes() == b.tobytes()

    def test_denormal_kink_keeps_the_plan_and_the_mirror(self):
        # the panel (-5e-324, 0) has the midpoint -0.0; its cell, left of
        # the edge at 0, still puts it below 0 in the mirror order, so the
        # plan holds and mirrored values land on the nodes they belong to
        cfg = make_config(kind="gaussian-pulse", mesh="static", K=4, M=2, N=4)
        system = TransportSystem(cfg)
        times = np.array([0.3, 0.4])
        edges, widths = edge_table(system.mesh, times)
        rule = system._proj_rule
        plan, _ = projection_points(None, edges, np.full((2, 1), 1e-3), times, rule, True)
        tiny = np.full((2, 1), 5e-324)
        again, got = projection_points(plan, edges, tiny, times, rule, True)
        want = projection_points(None, edges, tiny, times, rule, True)[1]
        assert again is plan
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        f = lambda x, t: np.exp(-x * x) * (1.0 + t)
        mirrored = system.project_function(times, f, tiny, True)
        plain = system.project_function(times, f, tiny)
        assert mirrored.tobytes() == plain.tobytes()

    def test_a_kink_moving_to_another_column_rebuilds(self):
        # as many breaks, but the inside mask differs: the plan does not fit
        cfg = make_config(kind="gaussian-pulse", mesh="static", K=4, M=2, N=4)
        system = TransportSystem(cfg)
        times = np.array([0.3, 0.4])
        edges, _ = edge_table(system.mesh, times)
        rule = system._proj_rule
        first = np.array([[0.1, np.nan], [0.1, np.nan]])
        moved = np.array([[0.1, np.nan], [np.nan, 0.1]])
        plan, _ = projection_points(None, edges, first, times, rule, True)
        brk, inside = breaks(edges, moved)
        assert brk.size == plan.size and not plan.fits(brk, inside)
        again, got = projection_points(plan, edges, moved, times, rule, True)
        assert again is not plan
        for a, b in zip(got, projection_points(None, edges, moved, times, rule, True)[1]):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("mirror", [False, True])
    def test_empty_and_all_nan_kink_tables_give_the_same_points(self, mirror):
        # a kink-free profile's (T, 0) table and a (T, 2) table of absent
        # radii split no cell: the same points bit for bit, from a fresh
        # plan and through a reused one
        cfg = make_config(kind="gaussian-pulse", mesh="moving", K=8, M=3, N=4)
        system = TransportSystem(cfg)
        rule, plans = system._proj_rule, {}
        for t in (0.3, 0.6):
            times = t + _C[1:] * 0.05
            edges, _ = edge_table(system.mesh, times)
            want = projection_points(None, edges, smooth(times), times, rule, mirror)[1]
            for name, table in (("empty", smooth(times)),
                                ("nan", np.full((times.size, 2), np.nan))):
                _, inside = breaks(edges, table)
                assert inside.shape == table.shape + (2,) and not inside.any()
                prior = plans.get(name)
                plans[name], got = projection_points(prior, edges, table, times, rule,
                                                     mirror)
                assert prior is None or plans[name] is prior
                for a, b in zip(got, want):
                    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("preset,flags,builds", [
    ("gaussian-source", dict(order=8, cells=16), 2),
    ("gaussian-pulse", dict(cells=4, angles=8, order=2, t_final=0.5), 2),
    ("square-source", dict(order=1, cells=16), 22),
    ("square-source", dict(order=2, cells=16), 14),
])
def test_panel_plan_builds_per_solve(monkeypatch, preset, flags, builds):
    # the edges of a kink-free batch always rise, so its plan is rebuilt
    # only when the batch size changes; the square source's kinks cross
    # edges
    count = []

    class Counted(projection.PanelPlan):
        def __init__(self, *args):
            count.append(1)
            super().__init__(*args)

    monkeypatch.setattr(projection, "PanelPlan", Counted)
    TransportSystem(config_from_settings({**preset_settings(preset), **flags})).solve()
    assert len(count) == builds


def parent_rhs(system, t, u):
    """rhs_coeffs as it was before it worked moment-major: (N, K, J) layout
    throughout, the mesh state and the source computed at t."""
    ms = mesh_state(system, t)
    h = ms.widths
    inv_sqrt_h = 1.0 / np.sqrt(h)
    n, k_cells, j_funcs = u.shape
    j = np.arange(j_funcs)
    coupled = np.sqrt(np.outer(2.0 * j + 1.0, 2.0 * j + 1.0))
    lower = j[:, None] > j[None, :]
    parity = (j[:, None] + j[None, :]) % 2
    odd_pattern = np.where(lower & (parity == 1), coupled, 0.0).T.copy()
    even_pattern = np.where(
        (j[:, None] >= j[None, :] + 2) & (parity == 0), coupled, 0.0).T.copy()
    vel = ms.velocities
    hdot = vel[1:] - vel[:-1]
    odd_speed = 2.0 * system.mu[:, None] - (vel[:-1] + vel[1:])[None, :]
    rel = system.mu[:, None] - vel[None, :]
    sq = np.sqrt(2.0 * j + 1.0)
    alt = np.where(j % 2 == 0, sq, -sq)

    flat = u.reshape(n * k_cells, j_funcs)
    odd_u = (flat @ odd_pattern).reshape(u.shape)
    diag = (-0.5 * hdot / h)[:, None] * (2.0 * j + 1.0)[None, :] - 1.0
    du = diag[None, :, :] * u
    odd_u *= (odd_speed / h[None, :])[:, :, None]
    du += odd_u
    if hdot.any():
        even_u = (flat @ even_pattern).reshape(u.shape)
        even_u *= (hdot / h)[None, :, None]
        du -= even_u

    trace_right = (u @ sq) * inv_sqrt_h[None, :]
    trace_left = (u @ alt) * inv_sqrt_h[None, :]
    bc_left, bc_right = system.boundary_values(t)
    if system.config.half_domain:
        bc_left = trace_left[::-1, 0]
    from_left = np.concatenate([bc_left[:, None], trace_right], axis=1)
    from_right = np.concatenate([trace_left, bc_right[:, None]], axis=1)
    flux = rel * np.where(rel > 0.0, from_left, from_right)
    du -= flux[:, 1:, None] * (sq[None, :] * inv_sqrt_h[:, None])[None, :, :]
    du += flux[:, :-1, None] * (alt[None, :] * inv_sqrt_h[:, None])[None, :, :]

    gain = np.tensordot(system.weights, u, axes=(0, 0))
    gain *= 0.5 * system.spec.c
    src = system.source_moments(np.array([t]))[0]
    if src.ndim == 2:
        gain += src
        du += gain[None, :, :]
    else:
        du += gain[None, :, :]
        du += src
    return du


class TestMomentMajorRhs:
    """rhs_coeffs works on the (J, N, K) state with per-attempt mesh
    factors: it agrees with the (N, K, J) assembly it replaced to RHS_RTOL
    of each element's scale, and a prepared time gives the bits of an
    unprepared one."""

    ATTEMPT = (0.45, 0.1)  # straddles t = x0 = 0.5

    def check(self, system, seed=0):
        cfg = system.config
        shape = (cfg.order + 1, cfg.n_angles, cfg.n_cells)
        u = np.random.default_rng(seed).standard_normal(shape)
        nkj = u.transpose(1, 2, 0)
        t, h = self.ATTEMPT
        times = t + _C[1:] * h
        cold = {}
        for tt in (*times, 0.7):
            got = cold[tt] = system.rhs_coeffs(tt, u)
            assert got.shape == shape and got.flags.c_contiguous
            assert_rhs_close(got, moment_major(parent_rhs(system, tt, nkj)),
                             moment_major(reference_rhs(system, tt, nkj, magnitude=True)))
        system._prepare_sources(times)
        for tt in times:
            got = system.rhs_coeffs(tt, u)
            assert got.shape == shape and got.flags.c_contiguous
            # the bytes too: array equality does not see the sign of a zero
            assert got.tobytes() == cold[tt].tobytes()
        # the flat view the stepper sees is the same array
        assert system.rhs_flat(times[3], u.ravel()).tobytes() == cold[times[3]].tobytes()

    @pytest.mark.parametrize("order", [0, 1, 2, 10])
    @pytest.mark.parametrize("kind,mode,mesh", _feasible_variants())
    def test_equals_parent_assembly(self, kind, mode, mesh, order):
        cfg = make_config(kind=kind, c=0.8 if kind != "mms" else 1.0, mode=mode,
                          mesh=mesh, K=8, M=order, N=6, x0=0.5, t0=1.0, t_final=2.0)
        self.check(TransportSystem(cfg), seed=order)

    def test_half_domain_mirror(self):
        cfg = make_config(kind="plane-pulse", c=0.85, mesh="moving", mode="uncollided",
                          K=4, M=5, N=8, half_domain=True)
        self.check(TransportSystem(cfg))

    @pytest.mark.parametrize("mesh", ["static", "moving"])
    def test_boundary_override(self, mesh):
        cfg = make_config(kind="gaussian-pulse", c=0.7, mesh=mesh, K=6, M=4, N=8)
        system = TransportSystem(cfg)
        rng = np.random.default_rng(5)
        left, right = rng.standard_normal(8), rng.standard_normal(8)
        system.boundary_values = lambda t: (left * (1.0 + t), right * t)
        self.check(system)

    def test_no_attempt_cache_outlives_a_failed_advance(self):
        # a NaN inflow makes every attempt's error norm NaN, so the stepper
        # raises after it has prepared an attempt
        cfg = make_config(kind="square-source", mode="uncollided", mesh="moving",
                          K=8, M=2, N=4, x0=0.5, t0=1.0)
        system = TransportSystem(cfg)
        nan = np.full(4, np.nan)
        system.boundary_values = lambda t: (nan, nan)
        calls = []
        prepare = system._prepare_sources
        system._prepare_sources = lambda times: (calls.append(times), prepare(times))
        with pytest.raises(IntegrationError):
            system.advance(system.project_initial_condition(), 1.0)
        assert calls and system._prepared == {}


MIRROR_LAWS = {
    "static": lambda K, x0: static_uniform_mesh(K, 1.0 + x0),
    "static-square": lambda K, x0: static_square_mesh(K, x0, 1.0 + x0),
    "radial": radial_mesh,
    "hybrid": hybrid_square_mesh,
}
# radii where rounding is at its edge: zero, denormals, the smallest
# normal; NaN marks an absent kink
ODD_RADII = [0.0, 5e-324, 1e-323, 1e-320, 2.2250738585072014e-308, np.nan]


@st.composite
def mirror_cases(draw):
    """A mirror-symmetric mesh at even K, a batch of times and a (T, R) kink
    table whose radii may be denormal, NaN, or tie with (or sit an ulp
    inside) an edge of their time."""
    law = draw(st.sampled_from(sorted(MIRROR_LAWS)))
    K = draw(st.sampled_from([4, 8, 12]) if law == "hybrid"
             else st.integers(1, 6).map(lambda n: 2 * n))
    mesh = MIRROR_LAWS[law](K, draw(st.floats(0.05, 1.0)))
    # hybrid cells start at zero width; the solver starts them at 1e-10
    times = np.array(draw(st.lists(st.floats(1e-10, 2.0), min_size=1, max_size=3)))
    edges, widths = edge_table(mesh, times)
    radius = st.one_of(
        st.sampled_from(ODD_RADII), st.floats(0.0, 3.0),
        st.tuples(st.sampled_from(["edge", "ulp"]), st.integers(0, K)))
    cols = draw(st.integers(1, 4))
    kinks = np.empty((times.size, cols))
    for i in range(times.size):
        for j in range(cols):
            r = draw(radius)
            if isinstance(r, tuple):
                tie = abs(edges[i, r[1]])
                r = np.nextafter(tie, 0.0) if r[0] == "ulp" else tie
            kinks[i, j] = r
    return mesh, times, edges, widths, kinks


class TestMirroredSources:
    """Even profiles on a mirror-symmetric mesh run on the nodes x > 0 and
    are mirrored onto the rest, on a static mesh as on a moving one; both
    give the bits of the full evaluation and of batches of one time, and
    meet the per-time node-by-node projection to MOMENT_RTOL."""

    ATTEMPTS = [(0.45, 0.1), (0.95, 0.1), (1.45, 0.1)]

    @staticmethod
    def recorder(monkeypatch, name):
        """Wrap snmesh.analytic.<name>; returns the list of x it sees."""
        seen = []
        real = getattr(an, name)

        def spy(*args):
            x = args[0] if name == "mms_source" else args[1]
            seen.append(np.array(x, dtype=float))
            return real(*args)

        monkeypatch.setattr(an, name, spy)
        return seen

    @pytest.mark.parametrize("kind,mode,mesh", [
        ("square-source", "uncollided", "moving"),
        ("square-source", "uncollided", "static"),
        ("square-source", "standard", "moving"),
        ("gaussian-pulse", "uncollided", "moving"),
        ("square-pulse", "uncollided", "static"),
        ("plane-pulse", "uncollided", "static"),
        ("gaussian-source", "standard", "moving"),
        ("gaussian-source", "uncollided", "moving"),
    ])
    def test_even_profiles_see_only_the_upper_nodes(self, monkeypatch, kind, mode, mesh):
        cfg = make_config(kind=kind, c=0.8, mode=mode, mesh=mesh, K=8, M=4, N=4,
                          x0=0.5, t0=1.0, t_final=2.0)
        system = TransportSystem(cfg)
        assert system._mirrored
        name = "uncollided_scalar_flux" if mode == "uncollided" else "volumetric_source"
        seen = self.recorder(monkeypatch, name)
        times = 0.45 + _C[1:] * 0.1
        system.source_moments(times)
        assert len(seen) == 1 and seen[0].min() > 0.0
        kinks = an.kink_radii(system.spec, times, mode == "uncollided")
        full = fresh_points(system, times, kinks)[0]
        # K = 8 puts an edge at 0, so exactly half the nodes are used
        assert seen[0].size == full.size // 2

    def test_mms_slope_sees_every_node(self, monkeypatch):
        times = 0.45 + _C[1:] * 0.1
        cfg = make_config(kind="mms", mode="standard", mesh="moving", K=4, M=3, N=4, x0=0.1)
        system = TransportSystem(cfg)
        seen = self.recorder(monkeypatch, "mms_source")
        system.source_moments(times)
        full = fresh_points(system, times, smooth(times))[0]
        # the even part once on the upper half, the odd slope on every node
        sizes = sorted(x.size for x in seen)
        assert sizes[0] == full.size // 2 and sizes[-1] == full.size
        assert min(x.min() for x in seen if x.size == full.size) < 0.0

    def test_half_domain_mesh_evaluates_every_node(self):
        cfg = make_config(kind="plane-pulse", c=0.85, mesh="moving", mode="uncollided",
                          K=4, M=5, N=8, half_domain=True)
        system = TransportSystem(cfg)
        assert not system._mirrored
        sizes = []
        f = lambda x, t: (sizes.append(x.size), np.exp(-x * x) * t)[1]
        times = 0.3 + _C[1:] * 0.05
        got = system.project_function(times, f, smooth(times), True)
        full = fresh_points(system, times, smooth(times))[0]
        assert sizes == [full.size]
        np.testing.assert_array_equal(got, system.project_function(times, f, smooth(times)))

    @pytest.mark.parametrize("K", [4, 8])
    @pytest.mark.parametrize("order", [3, 4])
    @pytest.mark.parametrize("mesh", ["static", "moving"])
    def test_mirrored_equals_full_evaluation(self, K, order, mesh):
        # kinks split cells unevenly, one of them an ulp off an edge
        cfg = make_config(kind="gaussian-pulse", mesh=mesh, K=K, M=order, N=4)
        system = TransportSystem(cfg)
        assert system._mirrored
        calls = []

        def f(x, t):
            calls.append(x.size)
            return np.exp(-x * x) * (1.0 + t) + np.abs(x) * t

        def kinks(t):
            edge = mesh_state(system, t).edges[K // 2 + 1]
            return (0.05 + 0.1 * t, 0.9, np.nextafter(edge, 0.0))

        times = 0.3 + _C[1:] * 0.05
        table = np.array([kinks(tt) for tt in times])
        got = system.project_function(times, f, table, True)
        assert len(calls) == 1
        assert got.tobytes() == system.project_function(times, f, table).tobytes()
        one = batches_of_one(lambda t: system.project_function(
            t, f, np.array([kinks(t[0])]), True), times)
        assert got.tobytes() == one.tobytes()
        want = np.stack([_per_time_project(system, mesh_state(system, tt),
                                           lambda x: f(x, tt), kinks(tt)) for tt in times])
        assert_moments_close(got, want, system, times)

    @pytest.mark.parametrize("kind,mesh", [("gaussian-pulse", "moving"),
                                           ("square-source", "moving"),
                                           ("square-source", "static")])
    def test_mirror_layout(self, kind, mesh):
        # the mirror layout is the exact negative of its reverse, and moves
        # no bit of any projection, even or not
        cfg = make_config(kind=kind, mode="uncollided", mesh=mesh, K=8, M=4, N=4,
                          x0=0.5, t0=1.0)
        system = TransportSystem(cfg)
        times = 0.45 + _C[1:] * 0.1
        kinks = an.kink_radii(system.spec, times, True)
        widths = edge_table(system.mesh, times)[1]
        x, node_t, *rest = fresh_points(system, times, kinks, True)
        np.testing.assert_array_equal(x[::-1], -x)
        np.testing.assert_array_equal(node_t[::-1], node_t)
        assert x[x.size // 2:].min() > 0.0
        plain = fresh_points(system, times, kinks)
        assert sorted(zip(x, node_t)) == sorted(zip(plain[0], plain[1]))
        odd = lambda x, t: np.exp(x) * (1.0 + t)
        args = widths, system._sq, system._moment_table
        assert (cell_moments(odd(x, node_t), *rest, *args).tobytes()
                == cell_moments(odd(plain[0], plain[1]), *plain[2:], *args).tobytes())

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(mirror_cases(), st.sampled_from([1, 3, 8]))
    def test_mirrored_equals_plain_on_every_mirror_mesh(self, case, n_nodes):
        mesh, times, edges, widths, kinks = case
        assert mirror_symmetric(mesh)
        rule, sq = gauss_legendre(n_nodes), np.sqrt(2.0 * np.arange(4) + 1.0)
        table = moment_table(rule, sq)
        f = lambda x, t: np.exp(-x * x) * (1.0 + t) + np.abs(x) * t
        x, node_t, *rest = projection_points(None, edges, kinks, times, rule, True)[1]
        np.testing.assert_array_equal(x[::-1], -x)
        plain = projection_points(None, edges, kinks, times, rule, False)[1]
        want = cell_moments(f(plain[0], plain[1]), *plain[2:], widths, sq, table)
        got = cell_moments(mirrored_values(f, x, node_t), *rest, widths, sq, table)
        assert got.tobytes() == want.tobytes()

    def test_odd_cell_counts_evaluate_every_node(self):
        # no edge at 0: the middle cell straddles it, and f sees every node
        cfg = make_config(kind="gaussian-pulse", mode="uncollided", mesh="moving",
                          K=7, M=4, N=4)
        system = TransportSystem(cfg)
        assert not system._mirrored
        sizes = []
        f = lambda x, t: (sizes.append(x.size), np.exp(-x * x) * t)[1]
        times = 0.3 + _C[1:] * 0.05
        system.project_function(times, f, smooth(times), True)
        full = fresh_points(system, times, smooth(times))[0]
        assert sizes == [full.size]

    @pytest.mark.parametrize("kind,K", [("square-source", 8), ("gaussian-source", 8),
                                        ("square-source", 6)])
    def test_static_standard_source_equals_per_time_projection(self, monkeypatch,
                                                               kind, K):
        # a static mesh projects its standard source per batch, as a moving
        # one does; K = 6 falls back to a uniform mesh, so x0 = 0.5 lies
        # inside a cell
        cfg = make_config(kind=kind, mode="standard", mesh="static", K=K, M=4, N=4,
                          x0=0.5, t0=1.0, t_final=2.0)
        system = TransportSystem(cfg)
        assert system._mirrored
        t0 = system.spec.t0
        edge = np.array([0.0, np.nextafter(t0, 0.0), t0, np.nextafter(t0, 2.0)])
        for times in [t + _C[1:] * h for t, h in self.ATTEMPTS] + [edge]:
            seen = self.recorder(monkeypatch, "volumetric_source")
            got = system.source_moments(times)
            monkeypatch.undo()
            # one evaluation per batch, on the nodes x > 0
            assert len(seen) == 1 and seen[0].min() > 0.0
            one = batches_of_one(system.source_moments, times)
            np.testing.assert_array_equal(got, one)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(one))
            want = np.stack([per_time_source(system, tt) for tt in times])
            assert_moments_close(got, want, system, times)
            assert not np.signbit(got[times > t0]).any()
            assert np.all(got[times > t0] == 0.0)
            assert all(np.any(row != 0.0) for row in got[times <= t0])


class TestManufacturedResidual:
    def residual(self, order):
        cfg = make_config(kind="mms", mesh="moving", mode="standard",
                          K=4, M=order, N=8, x0=0.1)
        system = TransportSystem(cfg)
        t = 0.7
        x0 = 0.1

        def coeffs_at(tt):
            c = system.project_function([tt], lambda x, t: an.mms_solution(x, t, x0),
                                        smooth([tt]))
            return np.broadcast_to(c[0].T[:, None], (order + 1, 8, 4)).copy()

        eps = 1e-6
        dudt = (coeffs_at(t + eps) - coeffs_at(t - eps)) / (2.0 * eps)
        return np.max(np.abs(system.rhs_coeffs(t, coeffs_at(t)) - dudt))

    def test_residual_decays_spectrally(self):
        r4 = self.residual(4)
        r8 = self.residual(8)
        assert r8 < 1e-6
        assert r4 > 50.0 * r8


class TestConservationAndBalance:
    def test_scattering_conserves_particles(self):
        # c = 1, mesh front tracks the support: the particle count is constant
        cfg = make_config(kind="gaussian-pulse", c=1.0, mesh="moving",
                          mode="standard", K=8, M=4, N=8, t_final=0.5)
        system = TransportSystem(cfg)
        res = system.solve()
        want = system.spec.sigma * np.sqrt(np.pi)
        assert system.phi_integral(res.state) == pytest.approx(want, rel=1e-9)

    def test_absorption_decay_rate(self):
        # c = 0.6 and no leakage: d/dt count = -(1 - c) count
        cfg = make_config(kind="gaussian-pulse", c=0.6, mesh="moving",
                          mode="standard", K=8, M=4, N=8, t_final=0.5)
        system = TransportSystem(cfg)
        res = system.solve()
        want = system.spec.sigma * np.sqrt(np.pi) * np.exp(-0.4 * 0.5)
        assert system.phi_integral(res.state) == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("kind, c", [
        ("gaussian-source", 0.5),
        ("gaussian-source", 1.0),
        ("gaussian-source", 1.3),
        pytest.param("square-source", 1.0, marks=pytest.mark.xfail(strict=True, reason=(
            "CHANGES.md FOUND: the square source's projected uncollided moments "
            "miss its closed-form mass by up to 3.5e-6 at M4 K8"))),
    ])
    def test_source_particle_balance(self, kind, c):
        # from an empty slab with the source on and no leakage:
        # d/dt count = rate - (1 - c) count
        cfg = make_config(kind=kind, c=c, mesh="moving", mode="uncollided",
                          K=8, M=4, N=16, t_final=1.0)
        system = TransportSystem(cfg)
        spec = system.spec
        rate = 2.0 * spec.x0 if kind == "square-source" else spec.sigma * np.sqrt(np.pi)
        state = system.project_initial_condition()
        for t in (0.25, 0.5, 1.0):
            state, _ = system.advance(state, t)
            want = rate * t if c == 1.0 else rate * (1.0 - np.exp((c - 1.0) * t)) / (1.0 - c)
            assert system.phi_integral(state) == pytest.approx(want, rel=1e-12, abs=0)

    def test_uncollided_and_standard_routes_agree(self):
        # same physics through two treatments of the initial particles
        pts = np.linspace(-1.2, 1.2, 25)
        out = {}
        for mode in ("standard", "uncollided"):
            cfg = make_config(kind="gaussian-pulse", c=1.0, mesh="static",
                              mode=mode, K=16, M=8, N=16, t_final=0.5)
            system = TransportSystem(cfg)
            res = system.solve()
            out[mode] = system.scalar_flux(res.state, pts)
        np.testing.assert_allclose(out["standard"], out["uncollided"], rtol=0, atol=1e-7)


class TestInitialState:
    def test_uncollided_mode_starts_empty(self):
        cfg = make_config(kind="square-pulse", mesh="static", mode="uncollided")
        state = TransportSystem(cfg).project_initial_condition()
        assert np.all(state.coeffs == 0.0)

    def test_projection_preserves_cell_means(self):
        cfg = make_config(kind="square-pulse", mesh="static", mode="standard",
                          K=8, M=3, N=4, t_final=0.5)
        system = TransportSystem(cfg)
        state = system.project_initial_condition()
        # kink-split panels integrate the box exactly: total = 2 x0 amp
        assert system.phi_integral(state) == pytest.approx(1.0, rel=1e-13)

    def test_initial_state_is_isotropic(self):
        cfg = make_config(kind="gaussian-pulse", mesh="static", mode="standard")
        state = TransportSystem(cfg).project_initial_condition()
        assert np.all(state.coeffs[:, 0] == state.coeffs[:, -1])

    def test_plane_delta_box_tracks_the_mesh(self):
        # the box standing in for the delta spans the two cells meeting at
        # the origin, so it is exactly representable and narrows under
        # refinement; K=4 on [-1, 1] gives half-width 0.5 and phi = 1/(2w)
        cfg = make_config(kind="plane-pulse", mesh="static", mode="standard",
                          K=4, M=3, N=4, t_final=1.0, x0=0.5)
        system = TransportSystem(cfg)
        state = system.project_initial_condition()
        pts = np.array([-0.75, -0.25, 0.0, 0.25, 0.75])
        np.testing.assert_allclose(system.scalar_flux(state, pts),
                                   [0.0, 1.0, 1.0, 1.0, 0.0], atol=1e-12)
        assert system.phi_integral(state) == pytest.approx(1.0, rel=1e-13)
        fine = TransportSystem(make_config(kind="plane-pulse", mesh="static",
                                           mode="standard", K=8, M=3, N=4,
                                           t_final=1.0, x0=0.5))
        fine_state = fine.project_initial_condition()
        fine_pts = np.array([-0.75, -0.125, 0.125, 0.375, 0.75])
        np.testing.assert_allclose(fine.scalar_flux(fine_state, fine_pts),
                                   [0.0, 2.0, 2.0, 0.0, 0.0], atol=1e-12)


class TestSolveDriver:
    def test_solve_ends_at_t_final(self):
        cfg = make_config(kind="gaussian-pulse", mesh="static", mode="uncollided",
                          K=4, M=3, N=4, t_final=1.0)
        res = TransportSystem(cfg).solve()
        assert res.state.t == 1.0
        assert res.state.coeffs.shape == (4, 4, 4)
        assert res.stats.steps_accepted > 0
        assert res.wall_seconds > 0.0

    def test_source_cutoff_becomes_a_stop(self, monkeypatch):
        cfg = make_config(kind="square-source", mesh="static", mode="uncollided",
                          K=4, M=3, N=4, t_final=0.6, t0=0.3)
        system = TransportSystem(cfg)
        targets = []
        advance = system.advance
        monkeypatch.setattr(system, "advance",
                            lambda state, t: (targets.append(t), advance(state, t))[1])
        res = system.solve()
        assert targets == [0.3, 0.6] and res.state.t == 0.6

    @pytest.mark.parametrize("kind,mesh,t_final,t0", [
        ("square-source", "moving", 1.5e-10, 1.0),
        ("square-source", "moving", 1e-3, 1.5e-10),
        ("square-pulse", "moving", 1.5e-10, 1.0),
        ("plane-pulse", "moving", 1.00000005e-5, 1.0),
        ("plane-pulse", "static", 1.00000005e-5, 1.0),
    ])
    def test_deferred_start_shorter_than_its_first_step(self, kind, mesh, t_final, t0):
        # a span (or a source's on-time) past the deferred start shorter
        # than T_START_EPS is the first step's size
        cfg = make_config(kind=kind, mesh=mesh, mode="uncollided", K=4, M=1, N=4,
                          x0=0.5, t0=t0, t_final=t_final)
        res = TransportSystem(cfg).solve()
        assert res.state.t == t_final
        assert np.isfinite(res.state.coeffs).all()

    def test_variant_label(self):
        cfg = make_config(mesh="moving", mode="uncollided")
        assert cfg.variant == "uncollided+moving"


class TestGeometryChoices:
    def test_start_times(self):
        assert start_time(make_config(kind="square-pulse", mesh="moving",
                                      mode="standard", K=8)) == T_START_EPS
        assert start_time(make_config(kind="plane-pulse", mesh="static",
                                      mode="uncollided")) == PLANE_T_START
        assert start_time(make_config(kind="plane-pulse", mesh="moving",
                                      mode="uncollided")) == PLANE_T_START
        assert start_time(make_config(kind="gaussian-pulse", mesh="moving",
                                      mode="standard")) == 0.0
        assert start_time(make_config(kind="square-pulse", mesh="static",
                                      mode="standard")) == 0.0

    def test_t_final_before_the_deferred_start_fails(self):
        # named in the message, not left to the integrator's "cannot
        # integrate backwards"
        with pytest.raises(ValueError, match="deferred start t = 1e-05"):
            make_config(kind="plane-pulse", mesh="moving", mode="uncollided",
                        t_final=1e-6)
        cfg = make_config(kind="plane-pulse", mesh="moving", mode="uncollided",
                          t_final=PLANE_T_START)
        assert cfg.t_final == start_time(cfg)

    def test_mesh_families(self):
        m = build_mesh(make_config(kind="plane-pulse", mesh="moving", mode="uncollided"))
        assert m.initial_edges[-1] == pytest.approx(PLANE_EPS_X0)
        m = build_mesh(make_config(kind="square-pulse", mesh="static", t_final=1.0))
        assert m.initial_edges[-1] == pytest.approx(1.5)
        m = build_mesh(make_config(kind="gaussian-pulse", mesh="moving"))
        assert m.initial_edges[-1] == pytest.approx(0.5 * np.sqrt(-np.log(1e-16)))


class TestHalfDomainReflection:
    """The plane problem is even in (x, mu): solving the right half with a
    mirror boundary at the origin must reproduce the full solve exactly up
    to stepper roundoff, and report the whole slab as the full solve does."""

    def test_half_solve_matches_full_solve(self):
        spec = SourceSpec(kind="plane-pulse", c=1.0, x0=0.5)
        common = dict(spec=spec, n_angles=32, order=3, mesh_mode="moving",
                      source_mode="uncollided", t_final=0.25)
        full = TransportSystem(RunConfig(n_cells=8, **common))
        half = TransportSystem(RunConfig(n_cells=4, half_domain=True, **common))
        res_f = full.solve()
        res_h = half.solve()
        pts = np.linspace(-0.2, 0.2, 41)
        phi_f = full.scalar_flux(res_f.state, pts)
        phi_h = half.scalar_flux(res_h.state, pts)
        np.testing.assert_allclose(phi_h, phi_f, atol=5e-10, rtol=0)
        # the half solve reads a point at |x|, so -x gives the same bits
        np.testing.assert_array_equal(half.scalar_flux(res_h.state, -pts), phi_h)
        # the full solve stays symmetric, pinning the mirror construction
        np.testing.assert_allclose(phi_f, phi_f[::-1], atol=1e-11, rtol=0)
        # the half solve counts its mirror half's collided mass too
        assert half.phi_integral(res_h.state) == pytest.approx(
            full.phi_integral(res_f.state), rel=1e-9)

    def test_half_domain_restricted_to_plane_moving_uncollided(self):
        for kwargs in (
            dict(kind="gaussian-pulse", mesh="moving", mode="uncollided"),
            dict(kind="plane-pulse", mesh="static", mode="uncollided"),
        ):
            with pytest.raises(ValueError):
                cfg = make_config(**kwargs)
                RunConfig(spec=cfg.spec, n_angles=8, order=2, n_cells=4,
                          mesh_mode=cfg.mesh_mode, source_mode=cfg.source_mode,
                          t_final=0.5, half_domain=True)


class TestObservables:
    def test_scalar_flux_rejects_outside_points(self):
        cfg = make_config(kind="square-pulse", mesh="static", t_final=0.5)
        system = TransportSystem(cfg)
        state = system.project_initial_condition()
        with pytest.raises(ValueError):
            system.scalar_flux(state, np.array([5.0]))

    def test_total_flux_splits_into_parts(self):
        cfg = make_config(kind="gaussian-pulse", mesh="static", mode="uncollided",
                          K=4, M=3, N=4, t_final=0.5)
        system = TransportSystem(cfg)
        res = system.solve()
        pts = np.linspace(-0.8, 0.8, 9)
        total = system.scalar_flux(res.state, pts)
        # a standard-mode twin has the same mesh and reads the DG part alone
        twin = TransportSystem(replace(cfg, source_mode="standard"))
        collided = twin.scalar_flux(res.state, pts)
        u_part = an.uncollided_scalar_flux(system.spec, pts, res.state.t)
        np.testing.assert_allclose(total, collided + u_part, rtol=1e-13)


class TestConfigValidation:
    def test_rejections(self):
        with pytest.raises(ValueError):
            make_config(kind="mms", mesh="static", mode="standard", x0=0.1)
        with pytest.raises(ValueError):
            make_config(kind="mms", mesh="moving", mode="uncollided", x0=0.1)
        with pytest.raises(ValueError):
            make_config(kind="plane-pulse", mesh="moving", mode="standard")
        with pytest.raises(ValueError):
            make_config(kind="square-pulse", mesh="moving", K=6)
        with pytest.raises(ValueError):
            make_config(N=7)
        with pytest.raises(ValueError):
            make_config(t_final=0.0)
        with pytest.raises(ValueError):
            make_config(mesh="galloping")
        with pytest.raises(ValueError):
            make_config(mode="firsthit")
