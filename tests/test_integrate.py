"""Time integrator contract: accuracy order, tolerance response, failure paths,
and bit-for-bit agreement with scipy's DOP853."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import DOP853

import snmesh
from snmesh import integrate as stepper
from snmesh.analytic import SourceSpec
from snmesh.dgcore import T_START_EPS, RunConfig, TransportSystem
from snmesh.integrate import IntegrationError, IntegrationStats, integrate

# the solver's default tolerances, RunConfig.rtol and RunConfig.atol
RTOL, ATOL = RunConfig.rtol, RunConfig.atol


def test_exponential_decay_to_tolerance():
    rhs = lambda t, y: -y
    y, stats = integrate(rhs, np.array([1.0]), 0.0, 2.0, RTOL, ATOL)
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
        # t1 = h caps the one step at h
        y, stats = integrate(rhs, y0, 0.0, h, 1e6, 1e6, first_step=h)
        exact = np.array([np.cos(h), -np.sin(h)])
        errs.append(np.max(np.abs(y - exact)))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 7.0 < slope < 9.5


def test_global_error_tracks_tolerance():
    rhs = lambda t, y: np.array([np.cos(t) * y[0]])
    out = {}
    for rtol in (1e-6, 1e-12):
        y, _ = integrate(rhs, np.array([1.0]), 0.0, 3.0, rtol, rtol * 1e-2)
        out[rtol] = abs(y[0] - np.exp(np.sin(3.0)))
    assert out[1e-12] < out[1e-6]
    assert out[1e-12] < 1e-9


def test_tight_tolerance_takes_more_steps():
    rhs = lambda t, y: np.array([np.sin(5 * t) * y[0]])
    _, loose = integrate(rhs, np.array([1.0]), 0.0, 4.0, 1e-5, 1e-7)
    _, tight = integrate(rhs, np.array([1.0]), 0.0, 4.0, 1e-12, 1e-13)
    assert tight.steps_accepted > loose.steps_accepted


def test_zero_span_returns_copy():
    y0 = np.array([3.0, 4.0])
    y, stats = integrate(lambda t, y: -y, y0, 1.0, 1.0, RTOL, ATOL)
    np.testing.assert_array_equal(y, y0)
    assert y is not y0
    assert stats.steps_accepted == 0 and stats.n_rhs == 0


def test_backwards_span_rejected():
    with pytest.raises(ValueError):
        integrate(lambda t, y: -y, np.array([1.0]), 1.0, 0.5, RTOL, ATOL)


def test_step_budget_exhaustion_raises_with_state(monkeypatch):
    monkeypatch.setattr(stepper, "_MAX_STEPS", 3)
    with pytest.raises(IntegrationError, match="exceeded 3 steps") as err:
        integrate(lambda t, y: -y, np.array([1.0]), 0.0, 1.0, RTOL, ATOL)
    assert err.value.t_last < 1.0
    assert err.value.y_last.shape == (1,)


def test_nan_rhs_raises_with_last_good_state():
    calls = []

    def rhs(t, y):
        calls.append(t)
        return np.full_like(y, np.nan) if t > 0.5 else -y

    with pytest.raises(IntegrationError, match="non-finite error estimate") as err:
        integrate(rhs, np.array([1.0, 2.0]), 0.0, 1.0, RTOL, ATOL)
    # the first attempt that meets the NaN stops the run; shrinking the step
    # until it underflows took 818 calls
    assert len(calls) < 100
    assert err.value.t_last <= 0.5
    assert np.all(np.isfinite(err.value.y_last))


def test_overflow_accepted_by_error_control_raises():
    # y_new = inf makes the error scale infinite, so the step passes the
    # error test; only the finiteness check stops the run
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationError, match="finite") as err:
            integrate(lambda t, y: np.full_like(y, 1e307), np.array([1.0]), 0.0, 1e3,
                      RTOL, ATOL, first_step=100.0)
    assert err.value.t_last == 0.0
    np.testing.assert_array_equal(err.value.y_last, [1.0])


def test_first_step_hint_is_used():
    calls = []

    def rhs(t, y):
        calls.append(t)
        return -y

    integrate(rhs, np.array([1.0]), 0.0, 1e-7, RTOL, ATOL, first_step=1e-8)
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

    _, stats = integrate(rhs, np.array([0.0]), 0.0, 1.0, 1e-10, 1e-12)
    assert stats.steps_rejected >= 1
    assert stats.n_rhs > 12 * stats.steps_accepted


def _parity_case(name):
    """(rhs, y0, t0, t1, tolerances) of one problem the stepper must run
    exactly as scipy's DOP853 does; the tolerances are (rtol, atol,
    first_step)."""
    if name == "decay":
        rates = np.linspace(0.5, 2.0, 37)
        y0 = np.linspace(-3.0, 5.0, 37)
        return lambda t, y: -rates * y, y0, 0.0, 2.0, (RTOL, ATOL, None)
    if name == "oscillator":
        rhs = lambda t, y: np.array([y[1], -y[0]])
        return rhs, np.array([1.0, 0.0]), 0.0, 10.0, (1e-10, 1e-12, 0.01)
    if name == "kink":
        rhs = lambda t, y: np.array([1.0 / np.sqrt(abs(t - 0.5) + 1e-8)])
        return rhs, np.array([0.0]), 0.0, 1.0, (1e-10, 1e-12, None)
    spec = SourceSpec("square-source", c=1.0, x0=0.5, t0=5.0)
    system = TransportSystem(RunConfig(spec, 8, 2, 4, "moving", "uncollided"))
    y0 = system.project_initial_condition().coeffs.ravel()
    return system.rhs_flat, y0, system.t_start, system.config.t_final, (RTOL, ATOL, T_START_EPS)


@pytest.mark.parametrize("name", ["decay", "oscillator", "kink", "square-source-u+m"])
def test_bitwise_equal_to_scipy_dop853(monkeypatch, name):
    rhs, y0, t0, t1, tols = _parity_case(name)
    rtol, atol, first_step = tols
    ref = DOP853(rhs, t0, y0, t_bound=t1, rtol=rtol, atol=atol, first_step=first_step)
    ref_t = []
    while ref.status == "running":
        ref.step()
        ref_t.append(ref.t)
    assert ref.status == "finished"

    # every attempt starts from the last accepted time
    starts = []
    rk_step = stepper._rk_step

    def spy(fun, t, *rest):
        starts.append(t)
        return rk_step(fun, t, *rest)

    monkeypatch.setattr(stepper, "_rk_step", spy)
    y, stats = integrate(rhs, y0, t0, t1, *tols)
    own_t = [b for a, b in zip(starts, starts[1:]) if b != a] + [t1]

    np.testing.assert_array_equal(y, ref.y)
    np.testing.assert_array_equal(own_t, ref_t)
    assert stats.n_rhs == ref.nfev
    assert stats.steps_accepted == len(ref_t)
    assert stats.steps_rejected == len(starts) - len(ref_t)
    if name == "kink":
        assert stats.steps_rejected >= 1


def test_stage_buffers_leave_the_caller_arrays_alone():
    # the attempts build stages and new states in buffers of their own call:
    # y0 keeps its values, and results of separate calls share no memory
    rhs = lambda t, y: np.array([y[1], -y[0]])
    y0 = np.array([1.0, 0.5])
    y_a, stats = integrate(rhs, y0, 0.0, 3.0, 1e-10, 1e-12)
    y_b, _ = integrate(rhs, y0, 0.0, 3.0, 1e-10, 1e-12)
    np.testing.assert_array_equal(y0, [1.0, 0.5])
    assert stats.steps_accepted > 2
    assert not np.shares_memory(y_a, y0) and not np.shares_memory(y_a, y_b)
    np.testing.assert_array_equal(y_a, y_b)


def test_cli_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate drags in sparse, linalg, optimize and more, and
    # scipy.special's package init the array-API layer, numpy.f2py and
    # numpy.testing: import time and memory every process would pay and no
    # solve uses
    src = Path(snmesh.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    heavy = ("scipy.integrate", "scipy.sparse", "scipy.special",
             "scipy._lib._array_api")
    code = (
        "import sys, snmesh.cli\n"
        f"print([m for m in {heavy!r} if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# The stage-time hook: the solver evaluates each attempt's source moments in
# one batch before the stages run.


def _record_attempts(monkeypatch):
    """Spy on the attempt routine: returns the list of (t, h) it gets."""
    attempts = []
    rk_step = stepper._rk_step

    def spy(fun, t, y, f, h, *rest):
        attempts.append((t, h))
        return rk_step(fun, t, y, f, h, *rest)

    monkeypatch.setattr(stepper, "_rk_step", spy)
    return attempts


@pytest.mark.parametrize("first_step", [None, 1e-3])
def test_hook_sees_every_attempt_and_every_stage_time(monkeypatch, first_step):
    attempts = _record_attempts(monkeypatch)
    events = []  # ("hook", times) and ("rhs", t) in call order

    def rhs(t, y):
        events.append(("rhs", t))
        return np.array([1.0 / np.sqrt(abs(t - 0.5) + 1e-8)])

    _, stats = integrate(rhs, np.array([0.0]), 0.0, 1.0, 1e-10, 1e-12, first_step,
                         prepare=lambda times: events.append(("hook", times.copy())))
    hooks = [v for kind, v in events if kind == "hook"]
    assert stats.steps_rejected >= 1
    assert len(hooks) == len(attempts) == stats.steps_accepted + stats.steps_rejected
    for times, (t, h) in zip(hooks, attempts):
        assert times.shape == (11,)
        np.testing.assert_array_equal(times, t + stepper._C[1:] * h)
    # only f(t0) and the starting-step probe precede the first hook
    unprepared = 1 if first_step else 2
    assert [kind for kind, _ in events[:unprepared + 1]] == ["rhs"] * unprepared + ["hook"]
    prepared = None
    for kind, v in events[unprepared:]:
        if kind == "hook":
            prepared = set(v.tolist())
        else:
            assert v in prepared
    assert sum(kind == "rhs" for kind, _ in events) == stats.n_rhs


@pytest.mark.parametrize("name", ["decay", "oscillator", "kink", "square-source-u+m"])
def test_hook_changes_no_bit(monkeypatch, name):
    # the transport case runs with the solver's own hook, which serves its
    # stage sources from one batch; the others with a recording hook
    rhs, y0, t0, t1, tols = _parity_case(name)
    owner = getattr(rhs, "__self__", None)
    prepare = owner._prepare_sources if owner is not None else lambda times: None
    runs = []
    for hook in (None, prepare):
        attempts = _record_attempts(monkeypatch)
        y, stats = integrate(rhs, y0, t0, t1, *tols, prepare=hook)
        starts = [t for t, _ in attempts]
        accepted_t = [b for a, b in zip(starts, starts[1:]) if b != a] + [t1]
        runs.append((y, accepted_t, stats))
        monkeypatch.undo()
    (y_plain, t_plain, s_plain), (y_hook, t_hook, s_hook) = runs
    np.testing.assert_array_equal(y_hook, y_plain)
    np.testing.assert_array_equal(t_hook, t_plain)
    assert s_hook == s_plain
    if owner is not None:
        assert owner._prepared  # the batch was used, not bypassed


def test_solver_passes_the_state_second(monkeypatch):
    # profilers read the state size from integrate's second positional
    # argument; the solver must keep passing y0 there
    from snmesh import dgcore

    seen = []
    real = dgcore.integrate

    def recorder(*args, **kwargs):
        seen.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(dgcore, "integrate", recorder)
    spec = SourceSpec("square-source", c=1.0, x0=0.5, t0=5.0)
    system = TransportSystem(RunConfig(spec, 4, 2, 4, "moving", "uncollided", t_final=0.1))
    system.solve()
    assert seen
    for args, kwargs in seen:
        assert isinstance(args[1], np.ndarray) and args[1].size == 4 * 4 * 3
        assert args[2] < args[3]
        assert kwargs["prepare"] == system._prepare_sources
