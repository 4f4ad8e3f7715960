"""Closed-form flux checks against independent quadrature oracles.

Every closed form in snmesh.analytic is compared here against a route that
shares no code with it: scipy.integrate.quad applied to the raw emission
profile (line integral for pulses, emission-time convolution for sources),
plus a hand-rolled exponential-integral implementation.  Spot values frozen
from those oracles pin the functions against silent regressions.  The
square-source evaluation is also checked bit for bit against the code it
replaced, and the Gaussian source to 1e-15 against the adaptive rule it
replaced; both references are kept here.
"""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expi

from snmesh import _scipy, analytic as an
from snmesh.analytic import SourceSpec
from snmesh.quadrature import gauss_legendre

X0 = 0.5
SIGMA = 0.5
T0 = 5.0


def pulse_oracle(profile, x, t, pts=()):
    """e^-t / (2t) times the line integral of the profile over [x-t, x+t]."""
    inner = [p for p in pts if x - t < p < x + t]
    val, _ = quad(profile, x - t, x + t, points=inner, limit=200)
    return np.exp(-t) * val / (2.0 * t)


def square_profile(s):
    return 1.0 if abs(s) <= X0 else 0.0


def gaussian_profile(s):
    return np.exp(-s * s / (SIGMA * SIGMA))


# Oracle-frozen values: (x, t, phi_u) reproduced by the quad routes below.
FROZEN_SQUARE_PULSE = [
    (0.0, 1.0, 0.18393972058572117),
    (0.7, 1.0, 0.14715177646857694),
    (1.2, 1.0, 0.055181916175716356),
    (0.45, 0.2, 0.51170672067373857),
]
FROZEN_GAUSSIAN_PULSE = [
    (0.0, 1.0, 0.16224980455070417),
    (0.8, 1.0, 0.11642275614367367),
    (2.0, 1.0, 0.00038126424630944146),
    (0.3, 0.01, 0.6907085402700186),
]
FROZEN_SQUARE_SOURCE = [
    (0.0, 1.0, 0.5636641704776868),
    (0.3, 1.0, 0.50278186004124448),
    (0.5, 1.0, 0.31606027941427883),
    (0.6, 1.0, 0.18830198723106512),
    (1.2, 1.0, 0.010318213216687633),
    (0.2, 6.0, 0.10951192597167893),
    (3.0, 6.0, 0.0068178637875813373),
]
FROZEN_GAUSSIAN_SOURCE = [
    (0.0, 1.0, 0.50195044684663992),
    (0.7, 1.0, 0.14490089525393723),
    (1.0, 6.0, 0.081068938090950962),
]


class TestFrozenValues:
    @pytest.mark.parametrize("x,t,want", FROZEN_SQUARE_PULSE)
    def test_square_pulse(self, x, t, want):
        assert float(an.phi_u_square_pulse(x, t, X0)) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("x,t,want", FROZEN_GAUSSIAN_PULSE)
    def test_gaussian_pulse(self, x, t, want):
        assert float(an.phi_u_gaussian_pulse(x, t, SIGMA)) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("x,t,want", FROZEN_SQUARE_SOURCE)
    def test_square_source(self, x, t, want):
        assert float(an.phi_u_square_source(x, t, X0, T0)) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("x,t,want", FROZEN_GAUSSIAN_SOURCE)
    def test_gaussian_source(self, x, t, want):
        assert float(an.phi_u_gaussian_source(x, t, SIGMA, T0)) == pytest.approx(want, rel=1e-11)

    def test_plane_pulse(self):
        assert float(an.phi_u_plane(0.3, 1.0)) == pytest.approx(np.exp(-1.0) / 2.0, rel=1e-15)
        assert float(an.phi_u_plane(1.0, 1.0)) == pytest.approx(np.exp(-1.0) / 2.0, rel=1e-15)
        assert float(an.phi_u_plane(1.0000001, 1.0)) == 0.0


class TestQuadOracles:
    """Live dual-route comparison, closed form vs scipy.quad, to 1e-8 (to
    1e-12 for the narrow Gaussian sources, whose oracle runs tighter)."""

    @pytest.mark.parametrize("x", [0.0, 0.2, 0.45, 0.55, 0.9, 1.3, 1.49])
    @pytest.mark.parametrize("t", [0.15, 1.0])
    def test_square_pulse(self, x, t):
        want = pulse_oracle(square_profile, x, t, pts=(-X0, X0))
        assert float(an.phi_u_square_pulse(x, t, X0)) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("x", [0.0, 0.4, 1.1, 2.4])
    @pytest.mark.parametrize("t", [0.02, 0.7, 3.0])
    def test_gaussian_pulse(self, x, t):
        want = pulse_oracle(gaussian_profile, x, t)
        assert float(an.phi_u_gaussian_pulse(x, t, SIGMA)) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize(
        "x,t", [(0.0, 0.3), (0.0, 1.0), (0.35, 1.0), (0.5, 1.0), (0.8, 1.0),
                (1.4, 1.0), (0.1, 6.0), (2.0, 6.0), (5.4, 6.0)]
    )
    def test_square_source(self, x, t):
        def kern(tau):
            elapsed = t - tau
            if elapsed <= 0:
                return float(square_profile(x))
            return pulse_oracle(square_profile, x, elapsed, pts=(-X0, X0))

        pts = [p for p in (t - abs(abs(x) - X0), t - (abs(x) + X0)) if 0 < p < min(t, T0)]
        want, _ = quad(kern, 0.0, min(t, T0), points=pts, limit=400)
        assert float(an.phi_u_square_source(x, t, X0, T0)) == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("x,t", [(0.0, 0.4), (0.0, 1.0), (0.7, 1.0), (1.6, 2.0), (1.0, 6.0)])
    def test_gaussian_source(self, x, t):
        def kern(tau):
            elapsed = t - tau
            if elapsed <= 0:
                return float(gaussian_profile(x))
            return pulse_oracle(gaussian_profile, x, elapsed)

        want, _ = quad(kern, 0.0, min(t, T0), limit=400)
        assert float(an.phi_u_gaussian_source(x, t, SIGMA, T0)) == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("sigma", [0.1, 0.05])
    @pytest.mark.parametrize("x,t", [(0.0, 0.4), (0.0, 1.0), (0.05, 1.0), (0.3, 1.0),
                                     (0.7, 1.0), (1.0, 6.0), (2.5, 3.0)])
    def test_narrow_gaussian_source(self, sigma, x, t):
        # the kernel's erf bracket turns over a width of about sigma, so the
        # emission-time panels must shrink with sigma; tight quad tolerances
        # and breakpoints at the turn keep the oracle near rounding
        def profile(s):
            return np.exp(-s * s / (sigma * sigma))

        def kern(tau):
            elapsed = t - tau
            if elapsed <= 0:
                return float(profile(x))
            inner = [p for p in (-sigma, 0.0, sigma) if x - elapsed < p < x + elapsed]
            val, _ = quad(profile, x - elapsed, x + elapsed, points=inner or None,
                          limit=200, epsabs=1e-15, epsrel=1e-13)
            return np.exp(-elapsed) * val / (2.0 * elapsed)

        w = min(t, T0)
        pts = [p for p in (t - abs(x) - sigma, t - abs(x), t - abs(x) + sigma) if 0 < p < w]
        want, _ = quad(kern, 0.0, w, points=pts or None, limit=400, epsabs=1e-15, epsrel=1e-13)
        assert float(an.phi_u_gaussian_source(x, t, sigma, T0)) == pytest.approx(want, abs=1e-12)


class TestGaussianSourceArrays:
    """The array path (each node broadcast over every point) must give the
    bits of per-point calls and keep the flux's evenness and shape."""

    # mixed signs, repeated |x|, points beyond the support, 2-D shape
    X = np.array([[-2.5, -0.7, -0.3, 0.0, 0.3, 0.7],
                  [2.5, 0.7, 9.0, -9.0, 1.25, -0.3]])

    @pytest.mark.parametrize("t", [1e-13, 0.4, 2.0, T0 + 1.5])
    def test_matches_pointwise_calls(self, t):
        got = an.phi_u_gaussian_source(self.X, t, SIGMA, T0)
        assert got.shape == self.X.shape
        want = np.array([[an.phi_u_gaussian_source(v, t, SIGMA, T0) for v in row]
                         for row in self.X])
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("size", [1, 2, 5, 31, 128, 500])
    def test_shuffled_mixed_batch_equals_pointwise_calls(self, size):
        # times before the source starts, under the small-time cut-off,
        # inside the emission window and after it, shuffled so that every
        # point shares its call with points of other times
        rng = np.random.default_rng(size)
        times = np.array([-0.5, 0.0, 1e-13, 0.05, 0.4, 1.0, 2.5, T0, 6.5, 9.0])
        t = rng.permutation(np.resize(times, size))
        x = rng.uniform(-12.0, 12.0, size)
        got = an.phi_u_gaussian_source(x, t, SIGMA, T0)
        want = np.array([an.phi_u_gaussian_source(xv, tv, SIGMA, T0)
                         for xv, tv in zip(x, t)])
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("t", [1e-13, 0.4, 2.0, T0 + 1.5])
    def test_matches_node_loop_reference(self, t):
        # the pulse kernel evaluated one point and one emission time at a
        # time, over the same panels and nodes
        rule = gauss_legendre(an._EMISSION_NODES)
        w = min(t, T0)
        length = min(an._EMISSION_PANEL, 2.0 * SIGMA)
        n_panels = int(np.ceil(w / length))
        edges = np.minimum(np.arange(n_panels + 1) * length, w)
        want = []
        for xv in self.X.ravel():
            total = 0.0
            for lo, hi in zip(edges[:-1], edges[1:]):
                mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
                total += half * sum(
                    wt * float(an.phi_u_gaussian_pulse(xv, t - (mid + half * nd), SIGMA))
                    for nd, wt in zip(rule.nodes, rule.weights))
            want.append(total)
        got = an.phi_u_gaussian_source(self.X, t, SIGMA, T0)
        np.testing.assert_allclose(got.ravel(), want, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("t", [1e-13, 0.4, 2.0, T0 + 1.5])
    def test_exactly_even(self, t):
        got = an.phi_u_gaussian_source(self.X, t, SIGMA, T0)
        np.testing.assert_array_equal(got, an.phi_u_gaussian_source(-self.X, t, SIGMA, T0))
        assert got[0, 1] == got[1, 1] and got[0, 2] == got[1, 5]

    def test_scalar_input_returns_float(self):
        val = an.phi_u_gaussian_source(np.float64(0.7), 1.0, SIGMA, T0)
        assert type(val) is float
        assert val == pytest.approx(FROZEN_GAUSSIAN_SOURCE[1][2], rel=1e-14)

    def test_tiny_time_uses_the_pulse_limit(self):
        # every node sits under the s < 1e-12 cutoff: the integrand is the
        # initial profile, so the flux is t * exp(-x^2 / sigma^2)
        t = 1e-13
        got = an.phi_u_gaussian_source(self.X, t, SIGMA, T0)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, t * np.exp(-self.X ** 2 / SIGMA ** 2), rtol=1e-14)


class TestTimeArrays:
    """An array t that broadcasts with x gives, element by element, the bits
    of a call at each time alone: the batched source projection relies on
    it.  Times cover t = 0, the wavefront and cut-off events of x0 = 0.5 and
    t0 = 1 (t = x0, t0, t0 +- x0) and both sides of them."""

    T0_SHORT = 1.0
    TIMES = np.array([0.0, 1e-13, 0.3, 0.5 - 1e-9, 0.5, 0.5 + 1e-9, 1.0, 1.2, 1.5, 2.0])
    X = np.linspace(-2.6, 2.6, 27)

    FUNCTIONS = {
        "plane": lambda x, t: an.phi_u_plane(x, t),
        "square-pulse": lambda x, t: an.phi_u_square_pulse(x, t, X0),
        "gaussian-pulse": lambda x, t: an.phi_u_gaussian_pulse(x, t, SIGMA),
        "square-source": lambda x, t: an.phi_u_square_source(x, t, X0, 1.0),
        "gaussian-source": lambda x, t: an.phi_u_gaussian_source(x, t, SIGMA, 1.0),
        "mms": lambda x, t: an.mms_source(x, 1.0, t, 0.1),
        "volumetric-square": lambda x, t: an.volumetric_source(
            SourceSpec("square-source", x0=X0, t0=1.0), x, t),
        "volumetric-gaussian": lambda x, t: an.volumetric_source(
            SourceSpec("gaussian-source", sigma=SIGMA, t0=1.0), x, t),
    }

    @pytest.mark.parametrize("name", sorted(FUNCTIONS))
    def test_grid_of_times_equals_per_time_calls(self, name):
        f = self.FUNCTIONS[name]
        times = self.TIMES[1:] if name == "plane" else self.TIMES
        got = f(self.X[None, :], times[:, None])
        assert got.shape == (times.size, self.X.size)
        want = np.stack([np.broadcast_to(f(self.X, float(t)), self.X.shape)
                         for t in times])
        np.testing.assert_array_equal(got, want)

    def test_gaussian_source_flat_batch_equals_per_time_calls(self):
        # flat points grouped by time, as the projection passes them; the
        # lone far point at t = 6.5 (~4e-18) shares its call with larger
        # values at other times
        groups = [(6.5, np.array([9.0])), (0.3, self.X), (1.7, self.X[::3] + 0.1)]
        x = np.concatenate([pts for _, pts in groups])
        times = np.concatenate([np.full(pts.size, t) for t, pts in groups])
        got = an.phi_u_gaussian_source(x, times, SIGMA, T0)
        want = np.concatenate([an.phi_u_gaussian_source(pts, t, SIGMA, T0)
                               for t, pts in groups])
        np.testing.assert_array_equal(got, want)


    def test_square_source_batch_equals_per_node_calls(self):
        # Ei(-t) runs once per run of equal times in a batch; each node
        # alone must give the same bits.  Runs at t <= 0, around t = x0 and
        # past the cut-off, and a time that comes back after another run
        times = np.array([-0.2, 0.0, 0.3, 0.5 - 1e-12, 0.5, 0.5 + 1e-12, 0.8,
                          0.3, 1.2, 1.7])
        x = np.linspace(-2.1, 2.1, 15)
        node_t = np.repeat(times, x.size)
        node_x = np.tile(x, times.size)
        got = an.phi_u_square_source(node_x, node_t, X0, 1.0)
        want = np.array([an.phi_u_square_source(xv, tv, X0, 1.0)
                         for xv, tv in zip(node_x, node_t)])
        np.testing.assert_array_equal(got, want)
        # interleaved times: every node is a run of its own
        perm = np.random.default_rng(2).permutation(node_t.size)
        np.testing.assert_array_equal(
            an.phi_u_square_source(node_x[perm], node_t[perm], X0, 1.0), want[perm])


def parent_gaussian_source(x, t, sigma, t0, tol=1e-12):
    """phi_u_gaussian_source on the adaptive rule the fixed rule replaced:
    panel bisection on an embedded 10/21-node Gauss pair that stops on the
    largest error over one time's distinct |x|, with tensordot panel sums.
    The fixed rule must agree with it to 1e-15 absolute."""
    arr = np.asarray(x, dtype=float)
    if np.ndim(t):
        arr, times = np.broadcast_arrays(arr, np.asarray(t, dtype=float))
        out = np.empty(arr.shape)
        for tv in np.unique(times):
            at = times == tv
            out[at] = parent_gaussian_source(arr[at], tv, sigma, t0, tol)
        return out
    if t <= 0:
        return np.zeros_like(arr)
    ax, where = np.unique(np.abs(arr).ravel(), return_inverse=True)
    limit = np.exp(-(ax * ax) / (sigma * sigma))

    def kernel(tau):
        s = (t - tau)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            spread = an._gaussian_pulse_spread(ax, s, sigma)
        return np.where(s < 1e-12, limit, spread)

    lo, hi = gauss_legendre(10), gauss_legendre(21)
    nodes = np.concatenate([lo.nodes, hi.nodes])
    total = np.zeros(ax.shape)
    stack = [(0.0, min(t, t0), 0)]
    while stack:
        left, right, depth = stack.pop()
        mid = 0.5 * (left + right)
        half = 0.5 * (right - left)
        values = kernel(mid + half * nodes)
        coarse = half * np.tensordot(lo.weights, values[:10], axes=(0, 0))
        fine = half * np.tensordot(hi.weights, values[10:], axes=(0, 0))
        err = np.max(np.abs(fine - coarse))
        scale = max(1.0, np.max(np.abs(fine)))
        if err <= tol * scale or depth >= 48:
            total = total + fine
        else:
            stack.append((left, mid, depth + 1))
            stack.append((mid, right, depth + 1))
    out = total[where]
    return out.reshape(arr.shape) if arr.ndim else float(out[0])


def parent_square_source(x, t, x0, t0):
    """phi_u_square_source as it was before Ei ran only where its argument
    differs from -t: Ei evaluated on every point."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    ax = np.abs(x)
    d = np.maximum(np.minimum(np.minimum(t0, t), t - ax + x0), 0.0)
    b = np.maximum(np.minimum(d, t - ax - x0), 0.0)
    cc = np.maximum(np.minimum(d, t + ax - x0), 0.0)
    ei_b = expi(b - t)
    ei_0 = expi(-t)
    arg_c = cc - t
    neg = arg_c < 0.0
    ei_c = np.where(neg, expi(np.where(neg, arg_c, -1.0)), 0.0)
    with np.errstate(invalid="ignore"):
        term_inner = -x0 * (ei_b - ei_0)
        term_mid = 0.5 * ((ax - x0) * (ei_c - ei_b) + np.exp(arg_c) - np.exp(b - t))
    term_outer = np.exp(d - t) - np.exp(arg_c)
    return np.where(d > 0.0, term_inner + term_mid + term_outer, 0.0)


class TestParentBits:
    """The fixed-rule Gaussian source agrees with the adaptive rule it
    replaced to 1e-15 absolute, and the masked Ei calls of the square source
    give the bits of the code they replaced."""

    # t = 1e-13 sits under the kernel's small-time cut-off, t0 at the
    # cut-off, 6.5 and 9 after it, where far points carry values far under
    # the adaptive panels' absolute target
    TIMES = (1e-13, 0.4, T0, 6.5, 9.0)

    @pytest.mark.parametrize("n_distinct", [1, 3, 7, 121, 240])
    def test_gaussian_source_equals_parent_loop(self, n_distinct):
        rng = np.random.default_rng(n_distinct)
        ax = rng.uniform(0.0, 12.0, n_distinct)
        ax[0] = 11.5  # a far point in every batch
        x = np.concatenate([ax, -ax[::2]])  # mirrored and repeated |x|
        for t in self.TIMES:
            np.testing.assert_allclose(an.phi_u_gaussian_source(x, t, SIGMA, T0),
                                       parent_gaussian_source(x, t, SIGMA, T0),
                                       atol=1e-15, rtol=0)
        # a flat batch grouped by time, as the projection passes it, and the
        # same batch shuffled, with t = 0 and t < 0 among the times
        times = (*self.TIMES, 0.0, -0.5)
        node_x = np.tile(x, len(times))
        node_t = np.repeat(times, x.size)
        want = parent_gaussian_source(node_x, node_t, SIGMA, T0)
        np.testing.assert_allclose(an.phi_u_gaussian_source(node_x, node_t, SIGMA, T0),
                                   want, atol=1e-15, rtol=0)
        perm = rng.permutation(node_x.size)
        np.testing.assert_allclose(
            an.phi_u_gaussian_source(node_x[perm], node_t[perm], SIGMA, T0), want[perm],
            atol=1e-15, rtol=0)

    def test_gaussian_source_2d_broadcast_equals_parent_loop(self):
        x = np.linspace(-9.5, 9.5, 39)
        times = np.array(self.TIMES)[:, None]
        got = an.phi_u_gaussian_source(x[None, :], times, SIGMA, T0)
        assert got.shape == (times.size, x.size)
        np.testing.assert_allclose(got, parent_gaussian_source(x[None, :], times,
                                                               SIGMA, T0),
                                   atol=1e-15, rtol=0)

    def test_square_source_equals_parent_on_a_dense_grid(self):
        # every branch of the Ei mask: b and cc at 0, inside (0, t) and at
        # t, around |x| = x0, t = x0, t0 and t0 +- x0, t <= 0
        t0 = 1.0
        rng = np.random.default_rng(5)
        special = np.array([X0, t0, t0 + X0, t0 - X0, 2.0 * X0])
        times = np.concatenate([[-0.3, 0.0, 1e-300, 1e-13], special,
                                np.nextafter(special, 0.0), np.nextafter(special, 9.0),
                                rng.uniform(0.0, 3.0, 60)])
        x = np.concatenate([[0.0, X0, -X0, np.nextafter(X0, 0.0), np.nextafter(X0, 1.0)],
                            rng.uniform(-4.0, 4.0, 1500)])
        got = an.phi_u_square_source(x[None, :], times[:, None], X0, t0)
        want = parent_square_source(x[None, :], times[:, None], X0, t0)
        np.testing.assert_array_equal(got, want)
        assert not np.any(np.signbit(got) != np.signbit(want))
        for t in times[::7]:
            np.testing.assert_array_equal(an.phi_u_square_source(x, t, X0, t0),
                                          parent_square_source(x, t, X0, t0))
        assert an.phi_u_square_source(0.3, 0.8, X0, t0) == parent_square_source(0.3, 0.8, X0, t0)


def ei_reference(y):
    """Ei(y) for y < 0 via the power series (small |y|) or the continued
    fraction for E1 evaluated with the modified Lentz scheme (large |y|)."""
    if y >= 0:
        raise ValueError("reference route covers negative arguments only")
    if y > -6.0:
        total = np.euler_gamma + np.log(abs(y))
        term = 1.0
        for k in range(1, 80):
            term *= y / k
            total += term / k
        return total
    z = -y
    tiny = 1e-300
    f = tiny
    c = f
    d = 0.0
    b = z + 1.0
    a = 1.0
    f = b
    c = b if b != 0 else tiny
    d = 0.0
    for k in range(1, 200):
        a_k = -(k * k)
        b_k = z + 2.0 * k + 1.0
        d = b_k + a_k * d
        d = tiny if d == 0 else d
        c = b_k + a_k / c
        c = tiny if c == 0 else c
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return -np.exp(-z) / f


class TestExponentialIntegral:
    @pytest.mark.parametrize("y", [-0.01, -0.3, -1.0, -2.5, -5.0, -8.0, -15.0, -30.0])
    def test_against_independent_route(self, y):
        assert expi(y) == pytest.approx(ei_reference(y), rel=1e-12)

    def test_small_argument_log_behavior(self):
        y = -1e-8
        assert expi(y) == pytest.approx(np.euler_gamma + np.log(abs(y)), rel=1e-7)


class TestSpecialFunctions:
    """snmesh's erf and Ei are scipy.special's compiled ufuncs, bit for bit,
    whether loaded from the extension file or, where that file is missing,
    through the package."""

    POINTS = np.concatenate([
        np.linspace(-40.0, 40.0, 800_001),  # erf saturates at |x| >= 6
        -np.geomspace(1e-300, 1e300, 6_001),  # Ei underflows past -745
        np.geomspace(1e-300, 1e300, 6_001),
        [0.0, -0.0, np.inf, -np.inf, np.nan, -745.0, -746.0, 709.0, 710.0],
    ])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("route", ["extension", "fallback"])
    def test_bits_equal_scipy_special(self, monkeypatch, route):
        from scipy import special

        if route == "extension":
            erf, expi = an.erf, an.expi
        else:
            monkeypatch.setattr(_scipy, "_locate", lambda stem, suffixes: None)
            erf, expi = _scipy._special_functions()
        # the extension route must not hand back the package's own objects
        assert (erf is special.erf) == (route == "fallback")
        for ours, scipys in ((erf, special.erf), (expi, special.expi)):
            np.testing.assert_array_equal(ours(self.POINTS).view(np.int64),
                                          scipys(self.POINTS).view(np.int64))
        assert np.signbit(erf(-0.0)) and expi(0.0) == -np.inf


class TestIntegrals:
    """Total uncollided particle counts against quad of the flux itself."""

    @pytest.mark.parametrize(
        "kind,t",
        [("plane-pulse", 0.7), ("square-pulse", 0.4), ("square-pulse", 2.0),
         ("gaussian-pulse", 1.0), ("square-source", 1.5), ("square-source", 6.5),
         ("gaussian-source", 2.0)],
    )
    def test_count_matches_quadrature(self, kind, t):
        spec = SourceSpec(kind=kind, x0=X0, sigma=SIGMA, t0=T0)
        lim = t + X0 + 5 * SIGMA
        val, _ = quad(lambda x: float(an.uncollided_scalar_flux(spec, x, t)),
                      0.0, lim, limit=400)
        assert 2.0 * val == pytest.approx(float(an.uncollided_integral(spec, t)), rel=1e-7)

    def test_closed_form_counts(self):
        t = 1.3
        decay = np.exp(-t)
        assert an.uncollided_integral(SourceSpec("plane-pulse"), t) == pytest.approx(decay)
        assert an.uncollided_integral(
            SourceSpec("square-pulse", x0=X0), t
        ) == pytest.approx(2 * X0 * decay)
        assert an.uncollided_integral(
            SourceSpec("gaussian-pulse", sigma=SIGMA), t
        ) == pytest.approx(SIGMA * np.sqrt(np.pi) * decay)
        # source active: rate * (1 - e^-t); after shutoff the count decays
        src = SourceSpec("square-source", x0=X0, t0=2.0)
        assert an.uncollided_integral(src, 1.0) == pytest.approx(2 * X0 * (1 - np.exp(-1.0)))
        assert an.uncollided_integral(src, 3.0) == pytest.approx(
            2 * X0 * (1 - np.exp(-2.0)) * np.exp(-1.0)
        )

    def test_amplitude_scales_linearly(self):
        base = SourceSpec("gaussian-pulse", sigma=SIGMA)
        double = SourceSpec("gaussian-pulse", sigma=SIGMA, amplitude=2.0)
        x = np.linspace(-2, 2, 9)
        np.testing.assert_allclose(
            an.uncollided_scalar_flux(double, x, 0.8),
            2.0 * an.uncollided_scalar_flux(base, x, 0.8),
            rtol=1e-15,
        )
        assert an.uncollided_integral(double, 0.8) == pytest.approx(
            2.0 * an.uncollided_integral(base, 0.8)
        )


class TestShapeProperties:
    XS = np.linspace(0.0, 3.2, 33)

    @pytest.mark.parametrize(
        "kind,t", [("square-pulse", 0.9), ("gaussian-pulse", 0.9),
                   ("square-source", 1.7), ("gaussian-source", 1.7), ("plane-pulse", 0.9)]
    )
    def test_even_and_nonnegative(self, kind, t):
        spec = SourceSpec(kind=kind, x0=X0, sigma=SIGMA, t0=T0)
        plus = an.uncollided_scalar_flux(spec, self.XS, t)
        minus = an.uncollided_scalar_flux(spec, -self.XS, t)
        np.testing.assert_array_equal(plus, minus)
        assert np.all(plus >= 0.0)

    def test_supports_are_sharp(self):
        t = 0.9
        eps = 1e-9
        assert float(an.phi_u_plane(t + eps, t)) == 0.0
        assert float(an.phi_u_plane(t - eps, t)) > 0.0
        assert float(an.phi_u_square_pulse(t + X0 + eps, t, X0)) == 0.0
        assert float(an.phi_u_square_pulse(t + X0 - eps, t, X0)) > 0.0
        assert float(an.phi_u_square_source(t + X0 + eps, t, X0, T0)) == 0.0

    def test_wavefronts_take_inside_limit(self):
        # closed supports: the wavefront point equals the one-sided limit
        t = 0.9
        assert float(an.phi_u_plane(t, t)) == pytest.approx(np.exp(-t) / (2 * t))
        inside = float(an.phi_u_square_pulse(t + X0 - 1e-11, t, X0))
        front = float(an.phi_u_square_pulse(t + X0, t, X0))
        assert front == pytest.approx(inside, abs=1e-10)

    def test_square_source_continuous_at_edge(self):
        # the x0 kink is eta*ln(eta): continuous, with a divergent derivative
        t = 1.0
        at = float(an.phi_u_square_source(X0, t, X0, T0))
        near = float(an.phi_u_square_source(X0 + 1e-9, t, X0, T0))
        assert np.isfinite(at)
        assert at == pytest.approx(near, abs=1e-6)


class TestManufactured:
    def test_residual_vanishes_by_finite_differences(self):
        # (d_t + mu d_x + 1) psi - phi / 2 must equal source / 2 pointwise
        x0 = 0.1
        eps = 1e-5
        for x in (-1.3, -0.2, 0.0, 0.7, 1.1):
            for mu, t in ((-0.9, 0.8), (0.3, 0.8), (1.0, 1.6)):
                dpsi_dt = (an.mms_solution(x, t + eps, x0) - an.mms_solution(x, t - eps, x0)) / (2 * eps)
                dpsi_dx = (an.mms_solution(x + eps, t, x0) - an.mms_solution(x - eps, t, x0)) / (2 * eps)
                lhs = dpsi_dt + mu * dpsi_dx + an.mms_solution(x, t, x0)
                rhs = 0.5 * an.mms_phi(x, t, x0) + 0.5 * an.mms_source(x, mu, t, x0)
                assert lhs == pytest.approx(rhs, abs=5e-9)

    def test_support_expands_with_time(self):
        x0 = 0.1
        assert float(an.mms_solution(0.5, 0.0, x0)) == 0.0
        assert float(an.mms_solution(0.5, 1.0, x0)) > 0.0
        assert float(an.mms_phi(0.0, 0.0, x0)) == pytest.approx(1.0)

    def test_phi_is_twice_psi(self):
        x = np.linspace(-1, 1, 7)
        np.testing.assert_allclose(
            an.mms_phi(x, 0.6, 0.1), 2.0 * an.mms_solution(x, 0.6, 0.1), rtol=1e-15
        )


def scale_solution(solution, c, x, mu, t):
    """Transform a c = 1 solution handle into the c != 1 solution:
    psi_c(x, mu, t) = c * exp(-(1 - c) t) * psi_1(c x, mu, c t)."""
    return c * np.exp(-(1.0 - c) * t) * solution(c * np.asarray(x, float), mu, c * t)


class TestScaling:
    @pytest.mark.parametrize("kind,kw", [
        ("square-pulse", dict(x0=X0)),
        ("gaussian-pulse", dict(sigma=SIGMA)),
        ("plane-pulse", dict()),
    ])
    @pytest.mark.parametrize("c", [0.8, 1.2])
    def test_identity_exact_on_uncollided_flux(self, kind, kw, c):
        # the transform also solves the pure-absorber problem, so the
        # closed-form uncollided fluxes must satisfy it to roundoff
        spec = SourceSpec(kind=kind, c=c, **kw)
        scaled, t_s = an.scaled_parameters(spec, 1.0)
        bench = SourceSpec(kind=kind, c=1.0, **kw)
        xs = np.linspace(-2.5, 2.5, 41)
        lhs = an.uncollided_scalar_flux(scaled, xs, t_s)
        rhs = c * np.exp(-(1.0 - c) * t_s) * an.uncollided_scalar_flux(bench, c * xs, c * t_s)
        np.testing.assert_allclose(lhs, rhs, atol=1e-15)

    def test_parameter_map(self):
        spec = SourceSpec("square-pulse", c=0.8, x0=0.5)
        scaled, t_s = an.scaled_parameters(spec, 1.0)
        assert scaled.x0 == pytest.approx(0.625)
        assert scaled.amplitude == pytest.approx(0.8)
        assert t_s == pytest.approx(1.25)
        g = SourceSpec("gaussian-pulse", c=1.2, sigma=0.5)
        gs, gt = an.scaled_parameters(g, 1.2)
        assert gs.sigma == pytest.approx(0.5 / 1.2)
        assert gs.amplitude == pytest.approx(1.2)
        assert gt == pytest.approx(1.0)
        p = SourceSpec("plane-pulse", c=0.8)
        ps, _ = an.scaled_parameters(p, 1.0)
        assert ps.amplitude == 1.0 and ps.x0 == 0.0

    def test_rejects_non_pulse_kinds(self):
        with pytest.raises(ValueError):
            an.scaled_parameters(SourceSpec("square-source", x0=X0, t0=T0), 1.0)
        with pytest.raises(ValueError):
            an.scaled_parameters(SourceSpec("mms", x0=0.1), 1.0)

    def test_scale_solution_applies_transform(self):
        sol = lambda x, mu, t: np.asarray(x) + 10.0 * t
        got = scale_solution(sol, 0.5, 2.0, 0.0, 1.0)
        assert got == pytest.approx(0.5 * np.exp(-0.5) * (1.0 + 5.0))


class TestKinkRadii:
    def test_smooth_profiles_have_none(self):
        assert an.kink_radii(SourceSpec("gaussian-pulse", sigma=SIGMA), 1.0, True) == ()
        assert an.kink_radii(SourceSpec("mms", x0=0.1), 1.0, True) == ()

    def test_square_pulse_fronts(self):
        spec = SourceSpec("square-pulse", x0=X0)
        assert an.kink_radii(spec, 0.2, True) == (abs(0.2 - X0), 0.2 + X0)
        assert an.kink_radii(spec, 2.0, True) == (1.5, 2.5)
        assert an.kink_radii(spec, 2.0, False) == (X0,)

    def test_plane_front_moves(self):
        assert an.kink_radii(SourceSpec("plane-pulse"), 0.8, True) == (0.8,)

    def test_square_source_adds_shutoff_fronts(self):
        spec = SourceSpec("square-source", x0=X0, t0=2.0)
        during = an.kink_radii(spec, 1.0, True)
        assert set(during) == {X0, abs(1.0 - X0), 1.0 + X0}
        after = an.kink_radii(spec, 3.0, True)
        assert abs(3.0 - 2.0 - X0) in after and abs(3.0 - 2.0 + X0) in after


class TestInitialData:
    def test_pulse_profiles(self):
        xs = np.array([0.0, 0.49, 0.51, 2.0])
        sq = an.initial_psi(SourceSpec("square-pulse", x0=X0), xs)
        np.testing.assert_allclose(sq, [0.5, 0.5, 0.0, 0.0])
        g = an.initial_psi(SourceSpec("gaussian-pulse", sigma=SIGMA), np.array([0.0]))
        assert g[0] == pytest.approx(0.5)
        # plane delta box: height amp / (4 w) inside |x| <= w, total mass
        # 2 * w * 2 * (amp / (4 w)) = amp, and spec.x0 must not leak in
        w = 0.125
        p = an.initial_psi(SourceSpec("plane-pulse", x0=0.25),
                           np.array([0.0, 0.5 * w, 2.0 * w, 0.25]),
                           plane_half_width=w)
        np.testing.assert_allclose(p[:2], 0.25 / w)
        np.testing.assert_allclose(p[2:], 0.0)
        with pytest.raises(ValueError):
            an.initial_psi(SourceSpec("plane-pulse"), np.array([0.0]))

    def test_sources_start_empty(self):
        xs = np.linspace(-1, 1, 5)
        assert np.all(an.initial_psi(SourceSpec("square-source", x0=X0, t0=T0), xs) == 0.0)

    def test_volumetric_source_shuts_off(self):
        spec = SourceSpec("square-source", x0=X0, t0=2.0)
        xs = np.array([0.0, 0.6])
        np.testing.assert_allclose(an.volumetric_source(spec, xs, 1.0), [1.0, 0.0])
        assert np.all(an.volumetric_source(spec, xs, 2.5) == 0.0)
        g = SourceSpec("gaussian-source", sigma=SIGMA, t0=2.0)
        assert float(an.volumetric_source(g, np.array([0.0]), 1.0)[0]) == pytest.approx(1.0)


class TestSpecValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SourceSpec("ring-pulse")
        with pytest.raises(ValueError):
            SourceSpec("square-pulse", x0=0.0)
        with pytest.raises(ValueError):
            SourceSpec("gaussian-pulse", sigma=-1.0)
        with pytest.raises(ValueError):
            SourceSpec("square-source", x0=X0, t0=0.0)
        with pytest.raises(ValueError):
            SourceSpec("gaussian-pulse", sigma=SIGMA, c=-0.1)
        with pytest.raises(ValueError):
            SourceSpec("mms", x0=0.1, c=0.9)

    def test_time_domain_guards(self):
        with pytest.raises(ValueError):
            an.phi_u_plane(0.0, 0.0)
        with pytest.raises(ValueError):
            an.phi_u_square_pulse(0.0, -0.5, X0)
        assert np.all(an.phi_u_square_source(np.array([0.3]), 0.0, X0, T0) == 0.0)
