"""Semidiscrete operator and solver checks.

The right-hand side is validated two ways that share no assembly code with
rhs_coeffs: once against per-cell matrices (cell_matrices.py), and once
against exact characteristic solutions (free streaming decouples the
directions, so each discrete ordinate must advect its own profile).  The
source moments, evaluated for all stage times of a step attempt at once,
are checked bit for bit against batches of one time, and to a stated
tolerance against a one-time-at-a-time, node-by-node projection kept here;
the moment-major RHS is checked against the (N, K, J) assembly it replaced
to a tolerance relative to each term's magnitude.  The per-batch static
source is checked the same way.  The state covers the right half-slab; the
checks that read x < 0 read it through the mirror, as the solver does.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from snmesh import analytic as an, projection
from snmesh.analysis import analysis_grid
from snmesh.analytic import PLANE_EPS_X0, PLANE_T_START, T_START_EPS, SourceSpec
from snmesh.basis import legendre_table
from snmesh.dgcore import RunConfig, SolutionState, TransportSystem, build_mesh
from snmesh.integrate import _C, IntegrationError
from snmesh.mesh import edge_table
from snmesh.presets import config_from_settings, preset_settings
from snmesh.projection import breaks, cell_moments, projection_points

from cell_matrices import gradient_matrices, motion_matrices


def make_config(kind="gaussian-pulse", c=1.0, mesh="static", mode="standard",
                K=8, M=4, N=8, t_final=1.0, x0=0.5, sigma=0.5, t0=5.0, amplitude=1.0):
    spec = SourceSpec(kind=kind, c=c, x0=x0, sigma=sigma, t0=t0, amplitude=amplitude)
    return RunConfig(spec=spec, n_angles=N, n_cells=K, order=M,
                     mesh_mode=mesh, source_mode=mode, t_final=t_final)


def mesh_state(system, t):
    """The system's mesh at time t: edges, widths, velocities, n_cells."""
    edges, widths = system.mesh_at(t)
    return SimpleNamespace(edges=edges, widths=widths, n_cells=widths.size,
                           velocities=system.mesh.velocities)


def eval_direction(system, state, l, pts):
    """Reconstruct the angular flux of one discrete direction at points.  A
    point x < 0 reads the mirror direction -mu at |x|, in the cell a
    full-slab solve would read: an edge hit reads the cell on its left."""
    ms = mesh_state(system, state.t)
    pts = np.asarray(pts, dtype=float)
    ax, neg = np.abs(pts), pts < 0
    cell = np.where(neg, np.searchsorted(ms.edges, ax, side="right"),
                    np.searchsorted(ms.edges, ax, side="left"))
    cell = np.clip(cell - 1, 0, ms.n_cells - 1)
    direction = np.where(neg, system.config.n_angles - 1 - l, l)
    xl = ms.edges[cell]
    xr = ms.edges[cell + 1]
    z = np.clip((2.0 * ax - xl - xr) / (xr - xl), -1.0, 1.0)
    table = legendre_table(z, system.config.order)
    scaled = state.coeffs[:, direction, cell] * (system._sq[:, None]
                                                 / np.sqrt(ms.widths[cell]))
    return np.einsum("jp,jp->p", scaled, table)


def reference_surface(system, u, t, a=lambda v: v):
    """Upwinded surface term (N, K, J), from the mesh state and the edge
    traces of u alone.  The inflow at the origin in direction mu is the
    outgoing trace in direction -mu.  With ``a`` =
    np.abs (and u >= 0) every factor enters by its magnitude and both traces
    add: the scale of the term's rounding error."""
    ms = mesh_state(system, t)
    j = np.arange(u.shape[2])
    right = np.sqrt(2.0 * j + 1.0)  # sqrt(2j + 1) P_j(1)
    left = right * (-1.0) ** j  # sqrt(2j + 1) P_j(-1)
    sqrt_h = np.sqrt(ms.widths)
    trace_right = (u @ right) / sqrt_h
    trace_left = (u @ a(left)) / sqrt_h
    bc_right = a(system.boundary_values(t))
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
        self.check(system, t, rng.standard_normal((N, system.n_cells, M + 1)))

    def test_mirror_inflow(self):
        # c = 0 decouples the directions, so direction N - 1 (mu = 1) meets
        # direction 0 (mu = -1) only at the reflecting edge x = 0: a change
        # to direction 0 in cell 0 moves cell 0 of direction N - 1 at O(1)
        # and no other direction or cell
        cfg = make_config(kind="plane-pulse", c=0.0, mesh="moving", mode="uncollided",
                          K=8, M=5, N=8)
        system = TransportSystem(cfg)
        u = np.random.default_rng(7).standard_normal((8, 4, 6))
        got = self.check(system, 0.9, u)
        bumped = u.copy()
        bumped[0, 0] += 1.0
        moved = system.rhs_coeffs(0.9, moment_major(bumped)) - got
        assert np.abs(moved[:, -1, 0]).max() > 1e-2
        assert not moved[:, 1:-1].any() and not moved[:, -1, 1:].any()


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
    """An isotropic flux that is one even quadratic in x across the slab lies
    in the DG space at every time and has continuous traces, its slope zero
    at the reflecting edge x = 0, so the scheme must carry it exactly,
    however the edges move: any error in the motion term, the traces at
    moving edges, the mirror edge or the edge law shows up at O(1)."""

    @staticmethod
    def psi(x, t):
        return 1.0 + t + 0.2 * (1.0 + t * t) * x * x

    @staticmethod
    def psi_t(x, t):
        return 1.0 + 0.4 * t * x * x

    @staticmethod
    def psi_x(x, t):
        return 0.4 * (1.0 + t * t) * x

    @pytest.mark.parametrize("mesh", ["static", "moving"])
    def test_quadratic_carried_exactly(self, mesh):
        c = 0.7
        cfg = make_config(kind="gaussian-pulse", c=c, mesh=mesh, mode="standard",
                          K=6, M=3, N=8, t_final=1.0)
        system = TransportSystem(cfg)
        psi, psi_t, psi_x = self.psi, self.psi_t, self.psi_x

        def source(times, table=None):
            # psi_t + mu psi_x + psi - (c / 2) phi with phi = 2 psi
            even = system.project_function(
                times, lambda x, t: psi_t(x, t) + (1.0 - c) * psi(x, t), smooth(times), table)
            slope = system.project_function(times, psi_x, smooth(times), table)
            return even[:, None] + system.mu[None, :, None, None] * slope[:, None]

        def inflow(t):
            return np.full(cfg.n_angles, psi(mesh_state(system, t).edges[-1], t))

        system.source_moments = source
        system.boundary_values = inflow
        shape = (cfg.order + 1, cfg.n_angles, system.n_cells)
        start = system.project_function([0.0], psi, smooth([0.0]))[0]
        state = SolutionState(np.broadcast_to(start.T[:, None], shape).copy(), 0.0)
        state, _ = system.advance(state, 1.0)
        want = system.project_function([1.0], psi, smooth([1.0]))[0]
        np.testing.assert_allclose(state.coeffs, np.broadcast_to(want.T[:, None], shape),
                                   rtol=0, atol=1e-11)


class TestPureAbsorberBoundaryLayer:
    def test_steady_state_matches_attenuation_law(self):
        # incoming unit flux on both faces of [-1, 1], c = 0: the steady
        # angular flux is exp(-(x + 1) / mu) for mu > 0 and exp(-(1 - x) /
        # |mu|) for mu < 0; on the right half, the flux at mu > 0 is the one
        # reflected at x = 0
        cfg = make_config(kind="square-pulse", c=0.0, mesh="static",
                          mode="standard", K=8, M=6, N=8, t_final=0.5)
        system = TransportSystem(cfg)
        n = cfg.n_angles
        system.boundary_values = lambda t: np.ones(n)
        shape = (cfg.order + 1, n, system.n_cells)
        state = SolutionState(np.zeros(shape), 0.0)
        state, _ = system.advance(state, 12.0)
        pts = np.linspace(-0.999, 0.999, 25)
        want = np.zeros_like(pts)
        for l, (mu, w) in enumerate(zip(system.mu, system.weights)):
            psi = np.exp(-(1.0 + np.sign(mu) * pts) / abs(mu))
            want += w * psi
            np.testing.assert_allclose(eval_direction(system, state, l, pts), psi,
                                       rtol=0, atol=1e-5)
        got = system.scalar_flux(state, pts)
        np.testing.assert_allclose(got, want, rtol=0, atol=2e-6)


class TestSourceMoments:
    def test_plane_moments_carry_the_exact_mass(self):
        # the outer edge sits PLANE_EPS_X0 past the front x = t, where phi_u
        # ends: the kink split keeps that sliver out of the mass, which a
        # plateau on every cell would raise by 1e-10 / t
        cfg = make_config(kind="plane-pulse", c=0.9, mesh="moving", mode="uncollided",
                          K=8, M=4, N=8, x0=0.0)
        system = TransportSystem(cfg)
        for t in (1e-4, 0.3, 1.0):
            ms = mesh_state(system, t)
            assert ms.edges[-1] - t == pytest.approx(PLANE_EPS_X0, rel=1e-5)
            mom = system.source_moments([t])[0]
            # the right half's mass, doubled for the mirror half
            total = 2.0 * np.sum(mom[:, 0] * np.sqrt(ms.widths))
            want = 0.5 * system.spec.c * float(an.uncollided_integral(system.spec, t))
            assert total == pytest.approx(want, rel=1e-13)

    def test_uncollided_square_moments_integrate_the_flux(self):
        cfg = make_config(kind="square-pulse", c=1.0, mesh="static",
                          mode="uncollided", K=8, M=6, N=4, t_final=1.0)
        system = TransportSystem(cfg)
        t = 0.6
        ms = mesh_state(system, t)
        mom = system.source_moments([t])[0]
        total = 2.0 * np.sum(mom[:, 0] * np.sqrt(ms.widths))
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
        assert src.shape == (8, 2, 6)  # the 2 cells of the right half
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


def fresh_points(system, times, kinks):
    """Panel nodes (x, node_t, wts, bins, z) of the times through a new plan."""
    edges, _ = edge_table(system.mesh, times)
    return projection_points(None, edges, kinks, times, system._proj_rule)[1]


def _per_time_points(system, ms, kinks):
    """Panel nodes of one time, as the solver built them before it batched
    over stage times: (x, weight, cell, z)."""
    edges = ms.edges
    rule = system._proj_rule
    lo, hi = edges[0], edges[-1]
    extra = [s for s in kinks if lo < s < hi]
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

    @staticmethod
    def recorder(monkeypatch, name):
        """Wrap snmesh.analytic.<name>; returns the list of x it sees."""
        seen = []
        real = getattr(an, name)

        def spy(*args):
            seen.append(np.array(args[1], dtype=float))
            return real(*args)

        monkeypatch.setattr(an, name, spy)
        return seen

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
        t0 = system.spec.t0
        edge = np.array([0.0, np.nextafter(t0, 0.0), t0, np.nextafter(t0, 2.0)])
        for times in [t + _C[1:] * h for t, h in self.ATTEMPTS] + [edge]:
            seen = self.recorder(monkeypatch, "volumetric_source")
            got = system.source_moments(times)
            monkeypatch.undo()
            # one evaluation per batch
            assert len(seen) == 1 and seen[0].min() > 0.0
            one = batches_of_one(system.source_moments, times)
            np.testing.assert_array_equal(got, one)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(one))
            want = np.stack([per_time_source(system, tt) for tt in times])
            assert_moments_close(got, want, system, times)
            assert not np.signbit(got[times > t0]).any()
            assert np.all(got[times > t0] == 0.0)
            assert all(np.any(row != 0.0) for row in got[times <= t0])

    @pytest.mark.parametrize("ulps", [-2, -1, 1, 2])
    def test_kinks_an_ulp_from_an_edge(self, ulps):
        # panels an ulp or two wide: their midpoints may round onto an edge,
        # which must pick the cell a search of the edges picks
        cfg = make_config(kind="gaussian-pulse", mesh="moving", K=8, M=3, N=4)
        system = TransportSystem(cfg)
        times = 0.3 + _C[1:] * 0.05
        def kinks(t):
            edge = mesh_state(system, t).edges[1]
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
        u = np.random.default_rng(3).standard_normal((4, 4, 4))  # (J, N, K // 2)
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

    @pytest.mark.parametrize("order", range(11))
    def test_product_equals_bincount_route(self, order):
        cfg = make_config(kind="square-source", mode="uncollided", mesh="moving",
                          K=8, M=order, N=4, x0=0.5, t0=1.0)
        system = TransportSystem(cfg)
        times = 0.45 + _C[1:] * 0.1
        edges, widths = edge_table(system.mesh, times)
        kinks = an.kink_radii(system.spec, times, True)
        rule = system._proj_rule
        plan, points = projection_points(None, edges, kinks, times, rule)
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

    def test_reused_plan_gives_the_points_of_a_fresh_one(self):
        cfg = make_config(kind="square-source", mode="uncollided", mesh="moving",
                          K=8, M=3, N=4, x0=0.5, t0=1.0)
        system = TransportSystem(cfg)
        rule, plan, reused = system._proj_rule, None, 0
        for t in np.linspace(0.05, 1.9, 60):
            times = t + _C[1:] * 0.03
            edges, _ = edge_table(system.mesh, times)
            kinks = an.kink_radii(system.spec, times, True)
            prior = plan
            plan, got = projection_points(plan, edges, kinks, times, rule)
            reused += plan is prior
            want = projection_points(None, edges, kinks, times, rule)[1]
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()
        assert 0 < reused < 59

    def test_kink_columns_permuted_or_duplicated_give_the_same_points(self):
        # the plan alone orders the breaks and keeps each tie once, so the
        # kink table's column order and repeated radii do not matter; t = 2
        # x0 ties |t - x0| with x0, and t > t0 fills every column
        cfg = make_config(kind="square-source", mode="uncollided", mesh="moving",
                          K=8, M=3, N=4, x0=0.5, t0=1.0)
        system = TransportSystem(cfg)
        for times in (np.array([0.3, 1.0, 1.2]), 0.95 + _C[1:] * 0.1):
            kinks = an.kink_radii(system.spec, times, True)
            want = fresh_points(system, times, kinks)
            variants = (kinks[:, ::-1], np.roll(kinks, 2, axis=1),
                        np.hstack([kinks, kinks[:, :2]]), np.repeat(kinks, 2, axis=1))
            for other in variants:
                got = fresh_points(system, times, other)
                for a, b in zip(got, want):
                    assert a.tobytes() == b.tobytes()

    def test_kinks_on_edges_give_the_points_of_none(self):
        # the plane pulse's standard-mode kink 0 and its delta box's edge,
        # the first cell's right edge, are ties the plan keeps as edges
        cfg = make_config(kind="plane-pulse", mesh="static", mode="standard", K=8, M=3, N=4)
        system = TransportSystem(cfg)
        times = np.array([0.0])
        width = edge_table(system.mesh, times)[1][0, 0]
        kinks = an.kink_radii(system.spec, times, uncollided=False)
        np.testing.assert_array_equal(kinks, [[0.0]])
        want = fresh_points(system, times, smooth(times))
        for other in (kinks, np.array([[width]]), np.array([[0.0, width]])):
            for a, b in zip(fresh_points(system, times, other), want):
                assert a.tobytes() == b.tobytes()

    def test_denormal_kink_keeps_the_plan(self):
        # the panel (0, 5e-324) has the midpoint 0.0, on the edge at its
        # left: it stays in cell 0, and the plan of a kink at 1e-3 holds
        cfg = make_config(kind="gaussian-pulse", mesh="static", K=4, M=2, N=4)
        system = TransportSystem(cfg)
        times = np.array([0.3, 0.4])
        edges, widths = edge_table(system.mesh, times)
        rule = system._proj_rule
        plan, _ = projection_points(None, edges, np.full((2, 1), 1e-3), times, rule)
        tiny = np.full((2, 1), 5e-324)
        again, got = projection_points(plan, edges, tiny, times, rule)
        want = projection_points(None, edges, tiny, times, rule)[1]
        assert again is plan
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        assert (got[5] % system.n_cells == 0).all()

    def test_a_kink_moving_to_another_column_rebuilds(self):
        # as many breaks, but the inside mask differs: the plan does not fit
        cfg = make_config(kind="gaussian-pulse", mesh="static", K=4, M=2, N=4)
        system = TransportSystem(cfg)
        times = np.array([0.3, 0.4])
        edges, _ = edge_table(system.mesh, times)
        rule = system._proj_rule
        first = np.array([[0.1, np.nan], [0.1, np.nan]])
        moved = np.array([[0.1, np.nan], [np.nan, 0.1]])
        plan, _ = projection_points(None, edges, first, times, rule)
        brk, inside = breaks(edges, moved)
        assert brk.size == plan.size and not plan.fits(brk, inside)
        again, got = projection_points(plan, edges, moved, times, rule)
        assert again is not plan
        for a, b in zip(got, projection_points(None, edges, moved, times, rule)[1]):
            assert a.tobytes() == b.tobytes()

    def test_empty_and_all_nan_kink_tables_give_the_same_points(self):
        # a kink-free profile's (T, 0) table and a (T, 2) table of absent
        # radii split no cell: the same points bit for bit, from a fresh
        # plan and through a reused one
        cfg = make_config(kind="gaussian-pulse", mesh="moving", K=8, M=3, N=4)
        system = TransportSystem(cfg)
        rule, plans = system._proj_rule, {}
        for t in (0.3, 0.6):
            times = t + _C[1:] * 0.05
            edges, _ = edge_table(system.mesh, times)
            want = projection_points(None, edges, smooth(times), times, rule)[1]
            for name, table in (("empty", smooth(times)),
                                ("nan", np.full((times.size, 2), np.nan))):
                _, inside = breaks(edges, table)
                assert inside.shape == table.shape and not inside.any()
                prior = plans.get(name)
                plans[name], got = projection_points(prior, edges, table, times, rule)
                assert prior is None or plans[name] is prior
                for a, b in zip(got, want):
                    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("preset,flags,builds", [
    ("gaussian-source", dict(order=8, cells=16), 2),
    ("gaussian-pulse", dict(cells=4, angles=8, order=2, t_final=0.5), 2),
    ("square-source", dict(order=1, cells=16), 21),
    ("square-source", dict(order=2, cells=16), 20),
])
def test_panel_plan_builds_per_solve(monkeypatch, preset, flags, builds):
    # the edges of a kink-free batch always rise, so its plan is rebuilt
    # only when the batch size changes; the square source's kinks cross
    # edges, so its count follows its step sequence and its seeded start
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
    bc_left, bc_right = trace_left[::-1, 0], system.boundary_values(t)
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
        shape = (cfg.order + 1, cfg.n_angles, system.n_cells)
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

    @pytest.mark.parametrize("mesh", ["static", "moving"])
    def test_boundary_override(self, mesh):
        cfg = make_config(kind="gaussian-pulse", c=0.7, mesh=mesh, K=6, M=4, N=8)
        system = TransportSystem(cfg)
        rng = np.random.default_rng(5)
        right = rng.standard_normal(8)
        system.boundary_values = lambda t: right * t
        self.check(system)

    def test_no_attempt_cache_outlives_a_failed_advance(self):
        # a NaN inflow makes every attempt's error norm NaN, so the stepper
        # raises after it has prepared an attempt
        cfg = make_config(kind="square-source", mode="uncollided", mesh="moving",
                          K=8, M=2, N=4, x0=0.5, t0=1.0)
        system = TransportSystem(cfg)
        nan = np.full(4, np.nan)
        system.boundary_values = lambda t: nan
        calls = []
        prepare = system._prepare_sources
        system._prepare_sources = lambda times: (calls.append(times), prepare(times))
        with pytest.raises(IntegrationError):
            system.advance(system.project_initial_condition(), 1.0)
        assert calls and system._prepared == {}


class TestRightHalf:
    """The solve runs on the right half of each mesh law: its projections
    see the nodes x >= 0 alone, its edges are the law's right half, and a
    point x < 0 reads the cell a full-slab solve reads at x."""

    ATTEMPTS = [(0.45, 0.1), (0.95, 0.1), (1.45, 0.1)]

    @pytest.mark.parametrize("kind,mode,mesh", _feasible_variants())
    def test_every_projection_sees_only_x_at_or_above_0(self, kind, mode, mesh):
        cfg = make_config(kind=kind, c=0.8 if kind != "mms" else 1.0, mode=mode,
                          mesh=mesh, K=8, M=4, N=4, x0=0.5, t0=1.0, t_final=2.0)
        system = TransportSystem(cfg)
        seen = []
        project = system.project_function

        def spy(times, f, *rest):
            return project(times, lambda x, t: (seen.append(x.copy()), f(x, t))[1], *rest)

        system.project_function = spy
        system.project_initial_condition()
        for t, h in self.ATTEMPTS:
            system.source_moments(t + _C[1:] * h)
        assert seen and all(x.min() >= 0.0 for x in seen)

    @pytest.mark.parametrize("kind,mesh", [("gaussian-pulse", "static"),
                                           ("gaussian-pulse", "moving"),
                                           ("square-source", "static"),
                                           ("square-source", "moving"),
                                           ("plane-pulse", "moving"), ("mms", "moving")])
    @pytest.mark.parametrize("K", [4, 8, 16])
    def test_mesh_is_the_right_half_of_the_law(self, kind, mesh, K):
        cfg = make_config(kind=kind, mesh=mesh, mode="standard" if kind == "mms"
                          else "uncollided", K=K, x0=0.1 if kind == "mms" else 0.5)
        family = cfg.spec.family
        law = (family.moving if mesh == "moving" else family.static)(cfg)
        half = build_mesh(cfg)
        assert half.initial_edges[0] == 0.0 and half.velocities[0] == 0.0
        assert half.initial_edges.tobytes() == law.initial_edges[K // 2:].tobytes()
        assert half.velocities.tobytes() == law.velocities[K // 2:].tobytes()
        assert TransportSystem(cfg).n_cells == K // 2

    def test_edge_hits_read_the_cell_a_full_slab_reads(self):
        # the K16 square-source static mesh at t = 1 has edges on grid points
        # at 0.375, 0.75 and 1.5; a full-slab solve reads the cell left of
        # x = -0.75, the mirror of the cell right of 0.75, and the DG flux
        # jumps there by far more than any rounding
        cfg = make_config(kind="square-source", mesh="static", mode="standard",
                          K=16, M=1, N=8, x0=0.5, t0=5.0)
        system = TransportSystem(cfg)
        state = system.solve().state
        edges, widths = system.mesh_at(state.t)
        grid = analysis_grid(cfg.spec, cfg.t_final)
        assert np.isin([0.375, 0.75, 1.5], grid).all() and np.isin([0.375, 0.75], edges).all()
        mom = system.phi_moments(state)
        for x in (0.375, 0.75):
            i = int(np.flatnonzero(edges == x)[0])
            # the left trace of cell i and the right trace of cell i - 1
            inner = mom[:, i - 1] @ system._sq / np.sqrt(widths[i - 1])
            outer = mom[:, i] @ system._alt / np.sqrt(widths[i])
            assert abs(outer - inner) > 1e-4
            phi = system.scalar_flux(state, np.array([x, -x]))
            np.testing.assert_allclose(phi, [inner, outer], rtol=1e-13, atol=0)
        # off the edges, -x and x read the same cell and give the same bits
        off = grid[~np.isin(np.abs(grid), edges)]
        np.testing.assert_array_equal(system.scalar_flux(state, -off),
                                      system.scalar_flux(state, off))

    def test_odd_cell_counts_are_refused(self):
        for kind, mesh in (("gaussian-pulse", "static"), ("gaussian-pulse", "moving"),
                           ("plane-pulse", "moving")):
            mode = "uncollided" if kind == "plane-pulse" else "standard"
            for K in (1, 3, 5, 7):
                with pytest.raises(ValueError, match="cell count must be even"):
                    make_config(kind=kind, mesh=mesh, mode=mode, K=K)
        with pytest.raises(ValueError, match="cell count must be even"):
            make_config(K=0)

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
            return np.broadcast_to(c[0].T[:, None], (order + 1, 8, system.n_cells)).copy()

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

    @pytest.mark.parametrize("c, amplitude", [(1.0, 1.0), (0.5, 2.0)])
    def test_late_square_source_starts_on_its_collided_mass(self, c, amplitude):
        # the seed (c a / 2) t_s^2 / 2 per direction on |x| <= x0 holds the
        # collided mass c x0 a t_s^2 that a zero start at t_s would drop
        cfg = make_config(kind="square-source", c=c, amplitude=amplitude, mesh="moving",
                          mode="uncollided", K=8, M=4, N=16, x0=0.5, t0=5.0)
        system = TransportSystem(cfg)
        state = system.project_initial_condition()
        assert state.t == PLANE_T_START
        collided = 2.0 * np.sum(system.phi_moments(state)[0]
                                * np.sqrt(system.mesh_at(state.t)[1]))
        want = c * 0.5 * amplitude * PLANE_T_START ** 2
        assert collided == pytest.approx(want, rel=1e-12, abs=0)
        assert np.all(state.coeffs[:, 0] == state.coeffs[:, -1])

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
        assert res.state.coeffs.shape == (4, 4, 2)  # the right half's 2 cells
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
        ("square-source", "moving", 1.00000005e-5, 1.0),
        ("square-source", "moving", 1e-3, 1.5e-10),
        ("square-pulse", "moving", 1.5e-10, 1.0),
        ("plane-pulse", "moving", 1.00000005e-5, 1.0),
        ("plane-pulse", "static", 1.00000005e-5, 1.0),
    ])
    def test_deferred_start_shorter_than_its_first_step(self, kind, mesh, t_final, t0):
        # a span past the deferred start shorter than T_START_EPS is the
        # first step's size; a source's on-time may end before the start
        cfg = make_config(kind=kind, mesh=mesh, mode="uncollided", K=4, M=1, N=4,
                          x0=0.5, t0=t0, t_final=t_final)
        res = TransportSystem(cfg).solve()
        assert res.state.t == t_final
        assert np.isfinite(res.state.coeffs).all()

    @pytest.mark.parametrize("t0", [5.0, 2e-6])
    def test_seeded_late_start_matches_the_early_start(self, monkeypatch, t0):
        # the square source's seeded start at PLANE_T_START gives the flux
        # of a start at T_START_EPS, also when the source shuts off before it
        cfg = make_config(kind="square-source", mesh="moving", mode="uncollided",
                          K=8, M=4, N=16, x0=0.5, t0=t0, t_final=1.0)
        grid = analysis_grid(cfg.spec, cfg.t_final)

        def flux():
            system = TransportSystem(cfg)
            return system.t_start, system.scalar_flux(system.solve().state, grid)

        late, phi_late = flux()
        family = an.FAMILIES["square-source"]
        monkeypatch.setitem(an.FAMILIES, "square-source",
                            replace(family, start=lambda config: T_START_EPS))
        early, phi_early = flux()
        assert (late, early) == (PLANE_T_START, T_START_EPS)
        np.testing.assert_allclose(phi_late, phi_early, rtol=0, atol=1e-9)

    def test_variant_label(self):
        cfg = make_config(mesh="moving", mode="uncollided")
        assert cfg.variant == "uncollided+moving"


class TestGeometryChoices:
    def test_start_times(self):
        start = lambda **kw: TransportSystem(make_config(**kw)).t_start
        assert start(kind="square-pulse", mesh="moving", mode="standard", K=8) == T_START_EPS
        # the seeded square source starts late; its unseeded standard mode does not
        assert start(kind="square-source", mesh="moving", mode="uncollided") == PLANE_T_START
        assert start(kind="square-source", mesh="moving", mode="standard") == T_START_EPS
        assert start(kind="square-source", mesh="static", mode="uncollided") == 0.0
        assert start(kind="plane-pulse", mesh="static", mode="uncollided") == PLANE_T_START
        assert start(kind="plane-pulse", mesh="moving", mode="uncollided") == PLANE_T_START
        assert start(kind="gaussian-pulse", mesh="moving", mode="standard") == 0.0
        assert start(kind="square-pulse", mesh="static", mode="standard") == 0.0

    def test_t_final_before_the_deferred_start_fails(self):
        # named in the message, not left to the integrator's "cannot
        # integrate backwards"
        with pytest.raises(ValueError, match="deferred start t = 1e-05"):
            make_config(kind="plane-pulse", mesh="moving", mode="uncollided",
                        t_final=1e-6)
        cfg = make_config(kind="plane-pulse", mesh="moving", mode="uncollided",
                          t_final=PLANE_T_START)
        assert cfg.t_final == TransportSystem(cfg).t_start

    def test_mesh_families(self):
        m = build_mesh(make_config(kind="plane-pulse", mesh="moving", mode="uncollided"))
        assert m.initial_edges[-1] == pytest.approx(PLANE_EPS_X0)
        m = build_mesh(make_config(kind="square-pulse", mesh="static", t_final=1.0))
        assert m.initial_edges[-1] == pytest.approx(1.5)
        m = build_mesh(make_config(kind="gaussian-pulse", mesh="moving"))
        assert m.initial_edges[-1] == pytest.approx(0.5 * np.sqrt(-np.log(1e-16)))


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
