"""Closed-form transport results: uncollided fluxes, manufactured solution,
the problem families' rules (one ``Family`` record each, in ``FAMILIES``)
and the scattering-ratio scaling transform.

All spatial profiles are even in x and use mean-free-path units (unit total
cross section, unit wave speed), so the solver runs on the right half-slab
behind a reflecting edge at x = 0 and its projections evaluate them on
nodes x >= 0 alone.  Support indicators are closed: a point on a wavefront
gets the limit from inside, which keeps grid comparisons against
reconstructed cell traces well defined.

The fluxes and sources take t as a scalar or as an array that broadcasts
with x, so one call covers points at several times.  Each element goes
through the same floating-point operations whatever else the batch holds,
so every profile gives a point the bits of a call at that point alone.
"""

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from ._scipy import erf, expi
from .mesh import (hybrid_square_mesh, initial_width_for_gaussian, radial_mesh,
                   static_square_mesh, static_uniform_mesh)

SQRT_PI = float(np.sqrt(np.pi))


@dataclass(frozen=True)
class SourceSpec:
    """Problem family and its physical parameters.

    amplitude scales the initial condition (and hence the uncollided flux)
    linearly; the scaling identity check uses it to match transformed runs.
    The family's rules are ``family``, looked up in ``FAMILIES``: no field,
    so the oracle cache key stays the parameters alone.
    """

    kind: str
    c: float = 1.0
    x0: float = 0.0
    sigma: float = 0.0
    t0: float = 0.0
    amplitude: float = 1.0

    def __post_init__(self):
        if self.kind not in FAMILIES:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if not np.all(np.isfinite([self.c, self.x0, self.sigma, self.t0, self.amplitude])):
            raise ValueError("c, x0, sigma, t0 and amplitude must be finite")
        if self.c < 0:
            raise ValueError("scattering ratio c must be >= 0")
        for name in self.family.reads:
            if getattr(self, name) <= 0:
                raise ValueError(f"{self.kind} needs {name} > 0")
        if self.family.drive is not None and self.c != 1.0:
            raise ValueError("the manufactured problem is defined for c = 1")
        if self.family.drive is not None and self.amplitude != 1.0:
            raise ValueError("the manufactured problem is defined for amplitude 1")

    @property
    def family(self) -> "Family":
        return FAMILIES[self.kind]

    @property
    def params(self) -> tuple:
        """The values of the family's ``reads``, in order."""
        return tuple(getattr(self, name) for name in self.family.reads)


# ---------------------------------------------------------------------------
# Uncollided scalar fluxes.


def phi_u_plane(x, t):
    """Uncollided flux of a unit plane pulse fired at the origin at t = 0."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("plane-pulse uncollided flux needs t > 0")
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) <= t, np.exp(-t) / (2.0 * t), 0.0)


def phi_u_square_pulse(x, t, x0):
    """Uncollided flux of an initial square pulse of half-width x0."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    ax = np.abs(x)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    decay = np.exp(-t)
    with np.errstate(divide="ignore", invalid="ignore"):
        ramp = decay * (t - ax + x0) / (2.0 * t)
        early = t <= x0
        plateau = np.where(early, decay, x0 * decay / t)
    core = np.where(early, ax <= x0 - t, ax <= t - x0)
    out = np.where(ax <= t + x0, np.where(core, plateau, ramp), 0.0)
    initial = np.where(ax == x0, 0.5, np.where(ax < x0, 1.0, 0.0))
    return np.where(t == 0.0, initial, out)


def phi_u_gaussian_pulse(x, t, sigma):
    """Uncollided flux of an initial Gaussian pulse exp(-x^2 / sigma^2)."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        spread = _gaussian_pulse_spread(x, t, sigma)
    # the t -> 0 limit, only where some t needs it
    small = t < 1e-12
    if small.any():
        return np.where(small, np.exp(-(x * x) / (sigma * sigma)), spread)
    return spread


def _gaussian_pulse_spread(x, s, sigma):
    """Gaussian-pulse flux after an elapsed time s > 0; x and s broadcast."""
    bracket = erf((s - x) / sigma) + erf((s + x) / sigma)
    return sigma * SQRT_PI * np.exp(-s) * bracket / (4.0 * s)


def phi_u_square_source(x, t, x0, t0):
    """Uncollided flux of a square source on |x| <= x0 active for t <= t0.

    Zero for t <= 0: there the emission window d below is empty.
    """
    ax, t = np.broadcast_arrays(np.abs(np.asarray(x, dtype=float)),
                                np.asarray(t, dtype=float))
    d = np.maximum(np.minimum(np.minimum(t0, t), t - ax + x0), 0.0)
    b = np.maximum(np.minimum(d, t - ax - x0), 0.0)
    cc = np.maximum(np.minimum(d, t + ax - x0), 0.0)
    # Ei(-t) once per run of equal times: a batched projection passes each
    # time's nodes as one run (np.unique's sort cost more time and memory)
    flat = t.ravel()
    starts = np.ones(flat.size, dtype=bool)
    starts[1:] = flat[1:] != flat[:-1]
    ei_0 = expi(-flat[starts])[np.cumsum(starts) - 1].reshape(t.shape)
    # Where b or cc is 0, the Ei argument is exactly -t: Ei runs only on
    # the other points.
    ei_b = np.array(ei_0)
    inner = b > 0.0
    ei_b[inner] = expi(b[inner] - t[inner])
    arg_c = cc - t
    # arg_c only reaches 0 at |x| = x0, where its prefactor vanishes; patch
    # the Ei singularity so 0 * (-inf) does not produce a NaN.
    neg = arg_c < 0.0
    ei_c = np.where(neg, ei_0, 0.0)
    inner = neg & (cc > 0.0)
    ei_c[inner] = expi(arg_c[inner])
    with np.errstate(invalid="ignore"):
        # t <= 0 gives Ei(0) = -inf in the unused terms
        term_inner = -x0 * (ei_b - ei_0)
        exp_c = np.exp(arg_c)
        term_mid = 0.5 * ((ax - x0) * (ei_c - ei_b) + exp_c - np.exp(b - t))
    term_outer = np.exp(d - t) - exp_c
    return np.where(d > 0.0, term_inner + term_mid + term_outer, 0.0)


_EMISSION_NODES = 21  # Gauss-Legendre nodes per emission-time panel
_EMISSION_PANEL = 1.0  # longest panel, in mean free times


def phi_u_gaussian_source(x, t, sigma, t0):
    """Uncollided flux of a Gaussian source active for t <= t0.

    Time convolution of the Gaussian-pulse kernel over the emission window
    w = max(min(t, t0), 0), on a fixed composite Gauss-Legendre rule: with
    L = min(_EMISSION_PANEL, 2 sigma), panel k covers [min(k L, w),
    min((k + 1) L, w)] for every k below the batch's largest w / L, with
    _EMISSION_NODES nodes each.  The kernel's erf bracket turns over a width
    of about sigma near s = |x| and its e^-s over one mean free time, so a
    panel spans at most two of either.  The kernel's tau -> t endpoint is
    finite (the pulse's small-time limit, taken where s < 1e-12), so no
    endpoint treatment is needed.

    The rule runs one node at a time over every point, adding in node
    order, so each value depends on its own (|x|, t) alone: a panel past a
    point's window has zero length and adds exact zeros.
    """
    from .quadrature import gauss_legendre

    ax, t = np.broadcast_arrays(np.abs(np.asarray(x, dtype=float)),
                                np.asarray(t, dtype=float))
    w = np.maximum(np.minimum(t, t0), 0.0)
    limit = np.exp(-(ax * ax) / (sigma * sigma))
    rule = gauss_legendre(_EMISSION_NODES)
    length = min(_EMISSION_PANEL, 2.0 * sigma)
    total = np.zeros(ax.shape)
    for k in range(int(np.ceil(w.max(initial=0.0) / length))):
        lo = np.minimum(k * length, w)
        hi = np.minimum((k + 1) * length, w)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        acc = np.zeros(ax.shape)
        for node, weight in zip(rule.nodes, rule.weights):
            s = t - (mid + half * node)
            with np.errstate(divide="ignore", invalid="ignore"):
                spread = _gaussian_pulse_spread(ax, s, sigma)
            acc += weight * np.where(s < 1e-12, limit, spread)
        total += half * acc
    return total if total.ndim else float(total)


# ---------------------------------------------------------------------------
# Manufactured solution.


def mms_solution(x, t, x0):
    """Manufactured angular flux: isotropic Gaussian decaying inside the
    expanding support |x| <= t + x0."""
    x = np.asarray(x, dtype=float)
    psi = np.exp(-0.5 * x * x) / (2.0 * (1.0 + t))
    return np.where(np.abs(x) <= t + x0, psi, 0.0)


def mms_phi(x, t, x0):
    """Scalar flux of the manufactured solution (2 psi: isotropic in mu)."""
    return 2.0 * mms_solution(x, t, x0)


def mms_source(x, mu, t, x0):
    """Angular source that makes the manufactured flux solve the transport
    equation at c = 1, supported where the solution is; t broadcasts with x."""
    x = np.asarray(x, dtype=float)
    tp1 = t + 1.0
    val = -np.exp(-0.5 * x * x) * (mu * tp1 * x + 1.0) / (tp1 * tp1)
    return np.where(np.abs(x) <= t + x0, val, 0.0)


# ---------------------------------------------------------------------------
# Problem families: each family's rules, stated once.

# Effective initial half-width used when the moving mesh collapses onto a
# plane pulse.
PLANE_EPS_X0 = 1e-10
# Deferred starts for meshes born at zero width: cell widths grow like t, so
# explicit stepping pays a fixed step count per decade of t.  PLANE_T_START
# serves the plane's uncollided runs, which drop collided mass ~c t_s (at
# 1e-5 an order under the plane's trust gate), and the square source's
# uncollided moving runs, which start on their leading collided term and
# drop O(t_s^3).  T_START_EPS serves the other square runs, whose unseeded
# start drops mass of order t_s, and is every deferred start's first step.
T_START_EPS = 1e-10
PLANE_T_START = 1e-5


@dataclass(frozen=True)
class Family:
    """The rules of one problem family.  Those taking a spec read only its
    fields in ``reads``, c and amplitude; those taking a config, its run."""

    reads: tuple  # the spec fields read besides c and amplitude; each > 0
    moving: Callable  # config -> the moving mesh law
    pad: Callable  # spec -> the analysis grid's half-width past t_final
    source: bool = False  # a source on while t <= t0, not an initial pulse
    phi_u: Optional[Callable] = None  # (x, t, *reads) -> phi_u at unit amplitude
    emitted: Optional[Callable] = None  # spec -> a pulse's particles, or a source's rate
    profile: Optional[Callable] = None  # (spec, x, peak) -> shape; None: a delta
    fronts: Optional[Callable] = None  # (spec, (T, 1) t) -> (T, R) kink columns of phi_u
    # (x, mu, t, *reads) -> a manufactured angular source, linear in mu; its
    # solution is isotropic, so psi = exact / 2 is its start and inflow
    drive: Optional[Callable] = None
    static: Optional[Callable] = None  # config -> the static mesh law
    start: Callable = lambda config: 0.0  # config -> the deferred start time
    gate: Optional[float] = None  # abort limit on the oracle's self-convergence
    exact: Optional[Callable] = None  # (x, t, *reads) -> the exact scalar flux
    refuses: dict = field(default_factory=dict)  # variant -> why it has no scheme


def _square_source_fronts(spec, t):
    """The source edge x0, its fronts t -+ x0 and, once the source is off
    (t > t0), its shut-off fronts t - t0 -+ x0; of these only r > 0."""
    x0 = spec.x0
    after = np.where(t > spec.t0, t - spec.t0, np.nan)
    radii = np.abs(np.hstack([np.full(t.shape, x0), t + x0, t - x0, after - x0, after + x0]))
    return np.where(radii > 0.0, radii, np.nan)


# The two square kinds share all but their time law and fronts, and so do
# the two Gaussians.
_SQUARE_PULSE = Family(
    reads=("x0",),
    phi_u=phi_u_square_pulse,
    emitted=lambda spec: 2.0 * spec.x0,
    profile=lambda spec, x, peak: np.where(np.abs(x) <= spec.x0, peak, 0.0),
    fronts=lambda spec, t: np.hstack([np.abs(t - spec.x0), t + spec.x0]),
    moving=lambda cfg: hybrid_square_mesh(cfg.n_cells, cfg.spec.x0),
    static=lambda cfg: static_square_mesh(cfg.n_cells, cfg.spec.x0,
                                          cfg.t_final + cfg.spec.x0),
    # the hybrid mesh's moving quarters are born at zero width
    start=lambda cfg: T_START_EPS if cfg.mesh_mode == "moving" else 0.0,
    pad=lambda spec: spec.x0,
    gate=1e-5,
)
_GAUSSIAN_PULSE = Family(
    reads=("sigma",),
    phi_u=phi_u_gaussian_pulse,
    emitted=lambda spec: spec.sigma * SQRT_PI,
    profile=lambda spec, x, peak: peak * np.exp(-(x * x) / (spec.sigma * spec.sigma)),
    moving=lambda cfg: radial_mesh(cfg.n_cells, initial_width_for_gaussian(cfg.spec.sigma)),
    static=lambda cfg: static_uniform_mesh(
        cfg.n_cells, cfg.t_final + initial_width_for_gaussian(cfg.spec.sigma)),
    pad=lambda spec: 3.0 * spec.sigma,
    gate=1e-9,
)
_MMS_UNCOLLIDED = ("the manufactured problem drives the full flux directly; run it "
                   "with source_mode='standard'")

FAMILIES = {
    "plane-pulse": Family(
        reads=(),
        phi_u=phi_u_plane,
        emitted=lambda spec: 1.0,
        fronts=lambda spec, t: t.copy(),
        moving=lambda cfg: radial_mesh(cfg.n_cells, PLANE_EPS_X0),
        static=lambda cfg: static_uniform_mesh(cfg.n_cells, cfg.t_final),
        # the collapsed mesh and the uncollided flux are singular at t = 0
        start=lambda cfg: 0.0 if cfg.variant == "standard+static" else PLANE_T_START,
        pad=lambda spec: 0.0,
        gate=1e-4,
        refuses={"standard+moving": (
            "plane-pulse with a moving mesh requires the uncollided source treatment: "
            "projecting the near-singular initial condition on collapsed cells does "
            "not converge")},
    ),
    "square-pulse": _SQUARE_PULSE,
    "square-source": replace(
        _SQUARE_PULSE, reads=("x0", "t0"), source=True, phi_u=phi_u_square_source,
        fronts=_square_source_fronts,
        # seeded by dgcore's project_initial_condition
        start=lambda cfg: (PLANE_T_START if cfg.variant == "uncollided+moving"
                           else _SQUARE_PULSE.start(cfg))),
    "gaussian-pulse": _GAUSSIAN_PULSE,
    "gaussian-source": replace(_GAUSSIAN_PULSE, reads=("sigma", "t0"), source=True,
                               phi_u=phi_u_gaussian_source),
    "mms": Family(
        reads=("x0",),
        moving=lambda cfg: radial_mesh(cfg.n_cells, cfg.spec.x0),
        pad=lambda spec: spec.x0,
        exact=mms_phi,
        drive=mms_source,
        refuses={"uncollided+static": _MMS_UNCOLLIDED, "uncollided+moving": _MMS_UNCOLLIDED,
                 "standard+static": (
                     "the manufactured problem imposes its wavefront boundary condition "
                     "on a moving mesh; mesh_mode='static' cannot track it")},
    ),
}
KINDS = tuple(FAMILIES)


def uncollided_scalar_flux(spec: SourceSpec, x, t):
    """phi_u(x, t) for the source family named by ``spec.kind``."""
    phi_u = spec.family.phi_u
    if phi_u is None:
        raise ValueError(f"no uncollided closed form for kind {spec.kind!r}")
    return spec.amplitude * phi_u(x, t, *spec.params)


def uncollided_integral(spec: SourceSpec, t):
    """integral(phi_u) dx over the slab at time t, in closed form: what the
    family emits, times the pulse's or the source's time law."""
    family = spec.family
    if family.emitted is None:
        raise ValueError(f"no uncollided count for kind {spec.kind!r}")
    emitted = spec.amplitude * family.emitted(spec)
    if not family.source:
        return emitted * np.exp(-t)
    t_on = min(t, spec.t0)
    return emitted * (1.0 - np.exp(-t_on)) * np.exp(-(t - t_on))


def initial_psi(spec: SourceSpec, x, plane_half_width=None):
    """Angle-independent initial angular flux for standard-mode solves.

    The plane pulse's delta initial condition has no pointwise profile, so
    the caller must regularize it: `plane_half_width`, read only by a family
    with no profile, is the half-width of the mass-one box standing in for
    the delta.  The solver passes the width of the cells meeting at the
    origin, so refinement sharpens the box toward the point pulse.
    """
    x = np.asarray(x, dtype=float)
    family = spec.family
    if family.drive is not None:  # a manufactured problem starts on its solution
        return 0.5 * family.exact(x, 0.0, *spec.params)
    if family.source:
        return np.zeros_like(x)
    if family.profile is None:
        w = plane_half_width
        if w is None or w <= 0:
            raise ValueError("plane-pulse initial data needs a positive box half-width")
        return np.where(np.abs(x) <= w, 0.25 * spec.amplitude / w, 0.0)
    return family.profile(spec, x, 0.5 * spec.amplitude)


def volumetric_source(spec: SourceSpec, x, t):
    """Isotropic volumetric source S(x, t) for standard-mode solves."""
    x = np.asarray(x, dtype=float)
    on = np.asarray(t, dtype=float) <= spec.t0
    if not spec.family.source:
        return np.zeros(np.broadcast(x, on).shape)
    return np.where(on, spec.family.profile(spec, x, spec.amplitude), 0.0)


def kink_radii(spec: SourceSpec, t, uncollided: bool):
    """(T, R) table of the |x| where the driving source loses smoothness at
    each of the times t >= 0 (1-d): phi_u's fronts at t, or in standard mode
    at t = 0, where they start on the profile's kinks.  One column per front,
    NaN where it is absent, neither sorted nor distinct: the projection's
    panel plan orders the breaks and keeps each tie once.

    Projection quadrature splits cells there so each piece is smooth.
    """
    t = np.asarray(t, dtype=float)[:, None]
    rule = spec.family.fronts
    return np.empty((t.size, 0)) if rule is None else rule(spec, t if uncollided else 0 * t)


# ---------------------------------------------------------------------------
# Scattering-ratio scaling.


def scaled_parameters(spec: SourceSpec, t_final):
    """Map a c = 1 pulse benchmark to the c != 1 problem parameters.

    Widths stretch by 1/c and the comparison time by 1/c; the initial
    amplitude picks up a factor c so the transform below is exact.
    """
    family = spec.family
    if family.source or family.phi_u is None:
        raise ValueError(
            "the scaling identity covers the initial-value pulses only; it "
            "does not hold with a volumetric or manufactured source"
        )
    c = spec.c
    if c <= 0:
        raise ValueError("scaling requires c > 0")
    # Finite-width profiles pick up amplitude c under the stretch; the plane
    # pulse's delta profile absorbs it (delta(c x) = delta(x) / c).
    amp = spec.amplitude if family.profile is None else spec.amplitude * c
    widths = {name: getattr(spec, name) / c for name in family.reads}
    return replace(spec, amplitude=amp, **widths), t_final / c
