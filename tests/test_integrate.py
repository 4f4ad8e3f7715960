"""Time integrator contract: accuracy order, tolerance response, failure paths."""

import numpy as np
import pytest

from snmesh.integrate import IntegrationError, IntegrationStats, IntegratorConfig, integrate


def test_exponential_decay_to_tolerance():
    rhs = lambda t, y: -y
    y, stats = integrate(rhs, np.array([1.0]), 0.0, 2.0)
    assert y[0] == pytest.approx(np.exp(-2.0), rel=1e-11)
    assert stats.steps_accepted > 0
    assert stats.n_rhs >= 12 * stats.steps_accepted


def test_single_step_error_is_order_seven():
    # embedded pair advances with the 8th-order solution: local error ~ h^8,
    # so one fixed step of size h has error slope p + 1 = 8 in log-log; the
    # measured slope sits between 7 and 9 once roundoff is excluded
    rhs = lambda t, y: np.array([y[1], -y[0]])
    y0 = np.array([1.0, 0.0])
    hs = np.array([0.5, 0.4, 0.3, 0.2])
    errs = []
    for h in hs:
        cfg = IntegratorConfig(rtol=1e6, atol=1e6, first_step=h, max_step=h)
        y, stats = integrate(rhs, y0, 0.0, h, cfg)
        exact = np.array([np.cos(h), -np.sin(h)])
        errs.append(np.max(np.abs(y - exact)))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 7.0 < slope < 9.5


def test_global_error_tracks_tolerance():
    rhs = lambda t, y: np.array([np.cos(t) * y[0]])
    out = {}
    for rtol in (1e-6, 1e-12):
        cfg = IntegratorConfig(rtol=rtol, atol=rtol * 1e-2)
        y, _ = integrate(rhs, np.array([1.0]), 0.0, 3.0, cfg)
        out[rtol] = abs(y[0] - np.exp(np.sin(3.0)))
    assert out[1e-12] < out[1e-6]
    assert out[1e-12] < 1e-9


def test_tight_tolerance_takes_more_steps():
    rhs = lambda t, y: np.array([np.sin(5 * t) * y[0]])
    _, loose = integrate(rhs, np.array([1.0]), 0.0, 4.0, IntegratorConfig(rtol=1e-5, atol=1e-7))
    _, tight = integrate(rhs, np.array([1.0]), 0.0, 4.0, IntegratorConfig(rtol=1e-12, atol=1e-13))
    assert tight.steps_accepted > loose.steps_accepted


def test_zero_span_returns_copy():
    y0 = np.array([3.0, 4.0])
    y, stats = integrate(lambda t, y: -y, y0, 1.0, 1.0)
    np.testing.assert_array_equal(y, y0)
    assert y is not y0
    assert stats.steps_accepted == 0 and stats.n_rhs == 0


def test_backwards_span_rejected():
    with pytest.raises(ValueError):
        integrate(lambda t, y: -y, np.array([1.0]), 1.0, 0.5)


def test_step_budget_exhaustion_raises_with_state():
    cfg = IntegratorConfig(max_steps=3, max_step=1e-3)
    with pytest.raises(IntegrationError) as err:
        integrate(lambda t, y: -y, np.array([1.0]), 0.0, 1.0, cfg)
    assert err.value.t_last < 1.0
    assert err.value.y_last.shape == (1,)


def test_nan_rhs_raises_with_last_good_state():
    def rhs(t, y):
        return np.full_like(y, np.nan) if t > 0.5 else -y

    with pytest.raises(IntegrationError) as err:
        integrate(rhs, np.array([1.0, 2.0]), 0.0, 1.0)
    assert err.value.t_last <= 0.5
    assert np.all(np.isfinite(err.value.y_last))


def test_overflow_accepted_by_error_control_raises():
    # y_new = inf makes the error scale infinite, so the step passes the
    # error test; only the finiteness check stops the run
    cfg = IntegratorConfig(first_step=100.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationError, match="finite") as err:
            integrate(lambda t, y: np.full_like(y, 1e307), np.array([1.0]), 0.0, 1e3, cfg)
    assert err.value.t_last == 0.0
    np.testing.assert_array_equal(err.value.y_last, [1.0])


def test_first_step_hint_is_used():
    calls = []

    def rhs(t, y):
        calls.append(t)
        return -y

    cfg = IntegratorConfig(first_step=1e-8)
    integrate(rhs, np.array([1.0]), 0.0, 1e-7, cfg)
    # with a hint the stepper skips its own step-size probe at t0
    assert calls[1] != calls[0] or len(calls) >= 12


def test_stats_merge_adds_fields():
    a = IntegrationStats(10, 2, 144)
    b = IntegrationStats(5, 1, 72)
    m = a.merge(b)
    assert (m.steps_accepted, m.steps_rejected, m.n_rhs) == (15, 3, 216)


def test_rejections_counted_on_rough_problem():
    # a sharp kink forces the controller to reject at least one attempt
    def rhs(t, y):
        return np.array([1.0 / np.sqrt(abs(t - 0.5) + 1e-8)])

    _, stats = integrate(rhs, np.array([0.0]), 0.0, 1.0, IntegratorConfig(rtol=1e-10, atol=1e-12))
    assert stats.steps_rejected >= 1
    assert stats.n_rhs > 12 * stats.steps_accepted
