"""Closed-form transport results: uncollided fluxes, manufactured solution,
and the scattering-ratio scaling transform.

All spatial profiles are even in x and use mean-free-path units (unit total
cross section, unit wave speed).  The scalar fluxes and sources see x only
through |x| or x * x, so they are even bit for bit: a projection on a
mirror-symmetric mesh evaluates them on the nodes x >= 0 alone.  Support
indicators are closed: a point on a wavefront gets the limit from inside,
which keeps grid comparisons against reconstructed cell traces well
defined.

The fluxes and sources take t as a scalar or as an array that broadcasts
with x, so one call covers points at several times.  Each element goes
through the same floating-point operations whatever else the batch holds,
so every profile gives a point the bits of a call at that point alone.
"""

from dataclasses import dataclass, replace

import numpy as np
from ._scipy import erf, expi

KINDS = (
    "plane-pulse",
    "square-pulse",
    "square-source",
    "gaussian-pulse",
    "gaussian-source",
    "mms",
)

PULSE_KINDS = ("plane-pulse", "square-pulse", "gaussian-pulse")
SOURCE_KINDS = ("square-source", "gaussian-source")
SQRT_PI = float(np.sqrt(np.pi))


@dataclass(frozen=True)
class SourceSpec:
    """Problem family and its physical parameters.

    amplitude scales the initial condition (and hence the uncollided flux)
    linearly; the scaling identity check uses it to match transformed runs.
    """

    kind: str
    c: float = 1.0
    x0: float = 0.0
    sigma: float = 0.0
    t0: float = 0.0
    amplitude: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if self.c < 0:
            raise ValueError("scattering ratio c must be >= 0")
        if self.kind in ("square-pulse", "square-source", "mms") and self.x0 <= 0:
            raise ValueError(f"{self.kind} needs x0 > 0")
        if self.kind.startswith("gaussian") and self.sigma <= 0:
            raise ValueError(f"{self.kind} needs sigma > 0")
        if self.kind in SOURCE_KINDS and self.t0 <= 0:
            raise ValueError(f"{self.kind} needs t0 > 0")
        if self.kind == "plane-pulse" and self.x0 < 0:
            raise ValueError("plane-pulse x0 must be >= 0")
        if self.kind == "mms" and self.c != 1.0:
            raise ValueError("the manufactured problem is defined for c = 1")


# ---------------------------------------------------------------------------
# Uncollided scalar fluxes.


def _per_run(f, t):
    """f(t) evaluated once per run of equal values in t: a batched
    projection passes each time's nodes as one run, so a function of time
    alone runs once per time."""
    flat = t.ravel()
    if flat.size < 2:
        return f(t)
    start = np.flatnonzero(np.concatenate(([True], flat[1:] != flat[:-1])))
    counts = np.diff(np.append(start, flat.size))
    return np.repeat(f(flat[start]), counts).reshape(t.shape)


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
    return np.where(t < 1e-12, np.exp(-(x * x) / (sigma * sigma)), spread)


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
    ei_0 = _per_run(lambda s: expi(-s), t)
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
        term_mid = 0.5 * ((ax - x0) * (ei_c - ei_b) + np.exp(arg_c) - np.exp(b - t))
    term_outer = np.exp(d - t) - np.exp(arg_c)
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
# Problem-level helpers.


def uncollided_scalar_flux(spec: SourceSpec, x, t):
    """phi_u(x, t) for the source family named by ``spec.kind``."""
    a = spec.amplitude
    if spec.kind == "plane-pulse":
        return a * phi_u_plane(x, t)
    if spec.kind == "square-pulse":
        return a * phi_u_square_pulse(x, t, spec.x0)
    if spec.kind == "gaussian-pulse":
        return a * phi_u_gaussian_pulse(x, t, spec.sigma)
    if spec.kind == "square-source":
        return a * phi_u_square_source(x, t, spec.x0, spec.t0)
    if spec.kind == "gaussian-source":
        return a * phi_u_gaussian_source(x, t, spec.sigma, spec.t0)
    raise ValueError(f"no uncollided closed form for kind {spec.kind!r}")


def uncollided_integral(spec: SourceSpec, t):
    """integral(phi_u) dx over the slab at time t, in closed form."""
    if spec.kind == "plane-pulse":
        emitted = 1.0
    elif spec.kind == "square-pulse":
        emitted = 2.0 * spec.x0
    elif spec.kind == "gaussian-pulse":
        emitted = spec.sigma * SQRT_PI
    elif spec.kind in SOURCE_KINDS:
        rate = 2.0 * spec.x0 if spec.kind == "square-source" else spec.sigma * SQRT_PI
        t_on = min(t, spec.t0)
        return spec.amplitude * rate * (1.0 - np.exp(-t_on)) * np.exp(-(t - t_on))
    else:
        raise ValueError(f"no uncollided count for kind {spec.kind!r}")
    return spec.amplitude * emitted * np.exp(-t)


def initial_psi(spec: SourceSpec, x, plane_half_width=None):
    """Angle-independent initial angular flux for standard-mode solves.

    The plane pulse's delta initial condition has no pointwise profile, so
    the caller must regularize it: `plane_half_width` names the half-width
    of the mass-one box standing in for the delta.  The solver passes the
    width of the cells meeting at the origin, so refinement sharpens the
    box toward the point pulse instead of stalling at a fixed smearing.
    """
    x = np.asarray(x, dtype=float)
    a = spec.amplitude
    if spec.kind == "gaussian-pulse":
        return 0.5 * a * np.exp(-(x * x) / (spec.sigma * spec.sigma))
    if spec.kind == "square-pulse":
        return np.where(np.abs(x) <= spec.x0, 0.5 * a, 0.0)
    if spec.kind == "plane-pulse":
        w = plane_half_width
        if w is None or w <= 0:
            raise ValueError(
                "plane-pulse initial data needs a positive box half-width"
            )
        return np.where(np.abs(x) <= w, 0.25 * a / w, 0.0)
    if spec.kind == "mms":
        return np.where(np.abs(x) <= spec.x0, 0.5 * np.exp(-0.5 * x * x), 0.0)
    return np.zeros_like(x)


def volumetric_source(spec: SourceSpec, x, t):
    """Isotropic volumetric source S(x, t) for standard-mode solves."""
    x = np.asarray(x, dtype=float)
    on = np.asarray(t, dtype=float) <= spec.t0
    if spec.kind == "square-source":
        return np.where(on & (np.abs(x) <= spec.x0), spec.amplitude, 0.0)
    if spec.kind == "gaussian-source":
        profile = spec.amplitude * np.exp(-(x * x) / (spec.sigma * spec.sigma))
        return np.where(on, profile, 0.0)
    return np.zeros(np.broadcast(x, on).shape)


def kink_radii(spec: SourceSpec, t, uncollided: bool):
    """|x| locations where the driving source loses smoothness at time t.

    Projection quadrature splits cells there so each piece is smooth.
    """
    if spec.kind.startswith("gaussian") or spec.kind == "mms":
        return ()
    if not uncollided:
        return (spec.x0,) if spec.x0 > 0 else ()
    if spec.kind == "plane-pulse":
        return (t,)
    if spec.kind == "square-pulse":
        return (abs(t - spec.x0), t + spec.x0)
    radii = {spec.x0, abs(t - spec.x0), t + spec.x0}
    if t > spec.t0:
        radii.add(abs(t - spec.t0 - spec.x0))
        radii.add(abs(t - spec.t0 + spec.x0))
    return tuple(sorted(r for r in radii if r > 0))


# ---------------------------------------------------------------------------
# Scattering-ratio scaling.


def scaled_parameters(spec: SourceSpec, t_final):
    """Map a c = 1 pulse benchmark to the c != 1 problem parameters.

    Widths stretch by 1/c and the comparison time by 1/c; the initial
    amplitude picks up a factor c so the transform below is exact.
    """
    if spec.kind not in PULSE_KINDS:
        raise ValueError(
            "the scaling identity covers the initial-value pulses only; it "
            "does not hold with a volumetric or manufactured source"
        )
    c = spec.c
    if c <= 0:
        raise ValueError("scaling requires c > 0")
    # Finite-width profiles pick up amplitude c under the stretch; the plane
    # pulse's delta profile absorbs it (delta(c x) = delta(x) / c).
    amp = spec.amplitude if spec.kind == "plane-pulse" else spec.amplitude * c
    scaled = replace(
        spec,
        x0=spec.x0 / c if spec.x0 else spec.x0,
        sigma=spec.sigma / c if spec.sigma else spec.sigma,
        amplitude=amp,
    )
    return scaled, t_final / c
