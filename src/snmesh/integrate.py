"""Adaptive eighth-order explicit time stepping with run statistics.

The semidiscrete transport systems here are non-stiff but demand very tight
tolerances, so steps come from the embedded 8(5,3) Dormand-Prince pair of
Hairer, Norsett & Wanner (Solving Ordinary Differential Equations I, II.10),
the DOP853 method.

The stepper is a forward-only, fixed-direction port of scipy's DOP853
(``scipy/integrate/_ivp``: the tableau in ``dop853_coefficients.py``, the
step and controller in ``rk.py``, the starting step in ``common.py``;
BSD-3-Clause, Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy
Developers).  The literals and the order of every floating-point operation
are kept, so its states, step sequences and RHS counts are bit for bit those
of ``scipy.integrate.DOP853`` (tests/test_integrate.py compares the two),
and step counts pinned for scipy's stepper still hold.  Dense output, a
step-size cap, backward integration and vectorized right-hand sides are
left out, and importing this module does not load ``scipy.integrate``.

Unlike scipy's stepper, an attempt whose error estimate is NaN or Inf ends
the run with the last accepted state instead of shrinking the step until
it underflows.
"""

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

_N_STAGES = 12
# time nodes of the twelve stages (the dense-output stages are dropped)
_C = np.array([0.0,
               0.526001519587677318785587544488e-01,
               0.789002279381515978178381316732e-01,
               0.118350341907227396726757197510,
               0.281649658092772603273242802490,
               0.333333333333333333333333333333,
               0.25,
               0.307692307692307692307692307692,
               0.651282051282051282051282051282,
               0.6,
               0.857142857142857142857142857142,
               1.0])

# rows 1-11 build the stages, row 12 is the eighth-order update
_A = np.zeros((_N_STAGES + 1, _N_STAGES))
_A[1, 0] = 5.26001519587677318785587544488e-2

_A[2, 0] = 1.97250569845378994544595329183e-2
_A[2, 1] = 5.91751709536136983633785987549e-2

_A[3, 0] = 2.95875854768068491816892993775e-2
_A[3, 2] = 8.87627564304205475450678981324e-2

_A[4, 0] = 2.41365134159266685502369798665e-1
_A[4, 2] = -8.84549479328286085344864962717e-1
_A[4, 3] = 9.24834003261792003115737966543e-1

_A[5, 0] = 3.7037037037037037037037037037e-2
_A[5, 3] = 1.70828608729473871279604482173e-1
_A[5, 4] = 1.25467687566822425016691814123e-1

_A[6, 0] = 3.7109375e-2
_A[6, 3] = 1.70252211019544039314978060272e-1
_A[6, 4] = 6.02165389804559606850219397283e-2
_A[6, 5] = -1.7578125e-2

_A[7, 0] = 3.70920001185047927108779319836e-2
_A[7, 3] = 1.70383925712239993810214054705e-1
_A[7, 4] = 1.07262030446373284651809199168e-1
_A[7, 5] = -1.53194377486244017527936158236e-2
_A[7, 6] = 8.27378916381402288758473766002e-3

_A[8, 0] = 6.24110958716075717114429577812e-1
_A[8, 3] = -3.36089262944694129406857109825
_A[8, 4] = -8.68219346841726006818189891453e-1
_A[8, 5] = 2.75920996994467083049415600797e1
_A[8, 6] = 2.01540675504778934086186788979e1
_A[8, 7] = -4.34898841810699588477366255144e1

_A[9, 0] = 4.77662536438264365890433908527e-1
_A[9, 3] = -2.48811461997166764192642586468
_A[9, 4] = -5.90290826836842996371446475743e-1
_A[9, 5] = 2.12300514481811942347288949897e1
_A[9, 6] = 1.52792336328824235832596922938e1
_A[9, 7] = -3.32882109689848629194453265587e1
_A[9, 8] = -2.03312017085086261358222928593e-2

_A[10, 0] = -9.3714243008598732571704021658e-1
_A[10, 3] = 5.18637242884406370830023853209
_A[10, 4] = 1.09143734899672957818500254654
_A[10, 5] = -8.14978701074692612513997267357
_A[10, 6] = -1.85200656599969598641566180701e1
_A[10, 7] = 2.27394870993505042818970056734e1
_A[10, 8] = 2.49360555267965238987089396762
_A[10, 9] = -3.0467644718982195003823669022

_A[11, 0] = 2.27331014751653820792359768449
_A[11, 3] = -1.05344954667372501984066689879e1
_A[11, 4] = -2.00087205822486249909675718444
_A[11, 5] = -1.79589318631187989172765950534e1
_A[11, 6] = 2.79488845294199600508499808837e1
_A[11, 7] = -2.85899827713502369474065508674
_A[11, 8] = -8.87285693353062954433549289258
_A[11, 9] = 1.23605671757943030647266201528e1
_A[11, 10] = 6.43392746015763530355970484046e-1

_A[12, 0] = 5.42937341165687622380535766363e-2
_A[12, 5] = 4.45031289275240888144113950566
_A[12, 6] = 1.89151789931450038304281599044
_A[12, 7] = -5.8012039600105847814672114227
_A[12, 8] = 3.1116436695781989440891606237e-1
_A[12, 9] = -1.52160949662516078556178806805e-1
_A[12, 10] = 2.01365400804030348374776537501e-1
_A[12, 11] = 4.47106157277725905176885569043e-2

_B = _A[_N_STAGES]

# third- and fifth-order error estimators over the 12 stages plus f(t + h)
_E3 = np.zeros(_N_STAGES + 1)
_E3[:-1] = _B.copy()
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1

_E5 = np.zeros(_N_STAGES + 1)
_E5[0] = 0.1312004499419488073250102996e-1
_E5[5] = -0.1225156446376204440720569753e+1
_E5[6] = -0.4957589496572501915214079952
_E5[7] = 0.1664377182454986536961530415e+1
_E5[8] = -0.3503288487499736816886487290
_E5[9] = 0.3341791187130174790297318841
_E5[10] = 0.8192320648511571246570742613e-1
_E5[11] = -0.2235530786388629525884427845e-1

_ERROR_EXPONENT = -1 / (7 + 1)  # the error estimate is of order 7
_SAFETY = 0.9
_MIN_FACTOR = 0.2  # largest cut of the step after a rejection
_MAX_FACTOR = 10  # largest growth of the step after an acceptance
_MIN_RTOL = 100 * np.finfo(float).eps
_MAX_STEPS = 2_000_000  # accepted steps before a run is abandoned


class IntegrationError(RuntimeError):
    """Step-size underflow, budget exhaustion or a non-finite state; carries
    the last good time and state."""

    def __init__(self, message, t_last, y_last):
        super().__init__(message)
        self.t_last = t_last
        self.y_last = y_last


@dataclass
class IntegrationStats:
    steps_accepted: int = 0
    steps_rejected: int = 0
    n_rhs: int = 0

    def merge(self, other: "IntegrationStats") -> "IntegrationStats":
        return IntegrationStats(
            self.steps_accepted + other.steps_accepted,
            self.steps_rejected + other.steps_rejected,
            self.n_rhs + other.n_rhs,
        )


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, f0, rtol, atol):
    """Starting step from the size of y0, f0 and a difference quotient of f
    (Hairer, Norsett & Wanner, II.4)."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (7 + 1))
    return min(100 * h0, h1, interval_length)


def _rk_step(fun, t, y, f, h, K, prepare, stage, y_new):
    """One attempt: the 12 stages into K[:12], f(t + h, y_new) into K[12].

    The stage times t + C[1:] h go to ``prepare`` first; the last is t + h
    (C[11] = 1), the time of the closing evaluation as well.  Each stage
    state is built in the buffer ``stage``, and the new state in ``y_new``.
    """
    stage_t = t + _C[1:] * h
    if prepare is not None:
        prepare(stage_t)
    K[0] = f
    for s in range(1, _N_STAGES):
        np.dot(K[:s].T, _A[s, :s], out=stage)
        stage *= h
        stage += y
        K[s] = fun(stage_t[s - 1], stage)
    np.dot(K[:-1].T, _B, out=y_new)
    y_new *= h
    y_new += y
    f_new = fun(stage_t[-1], y_new)
    K[-1] = f_new
    return y_new, f_new


def _error_norm(K, h, scale, err5, err3):
    """Scaled RMS error of the attempt, the fifth-order estimate damped by
    the third-order one; the two estimates are built in ``err5`` and
    ``err3``."""
    np.dot(K.T, _E5, out=err5)
    err5 /= scale
    np.dot(K.T, _E3, out=err3)
    err3 /= scale
    err5_norm_2 = np.linalg.norm(err5) ** 2
    err3_norm_2 = np.linalg.norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def integrate(
    f: Callable,
    y0: np.ndarray,
    t0: float,
    t1: float,
    rtol: float,
    atol: float,
    first_step: Optional[float] = None,
    prepare: Optional[Callable] = None,
):
    """Advance y' = f(t, y) from t0 to exactly t1; returns (y(t1), stats).

    An rtol under 100 machine epsilons is raised to that floor with a
    warning; without a ``first_step`` the stepper picks its own.

    ``prepare``, if given, is called before every step attempt, accepted or
    rejected, with the array of the attempt's 11 distinct stage times
    t + C[1:] h; each later call of f in that attempt gets one of those
    floats as its time.  Only the first call, at t0, and the starting-step
    probe run at times no hook has seen.

    The attempts work in arrays allocated once per call, the stage states
    among them, so f must not keep the y it is given.  Each in-place
    operation is the one a fresh temporary would get, in the same order,
    so the bits are those of scipy's stepper.
    """
    if t1 < t0:
        raise ValueError(f"cannot integrate backwards: t0={t0} t1={t1}")
    y0 = np.asarray(y0, dtype=float)
    if t1 == t0 or y0.size == 0:
        return y0.copy(), IntegrationStats()
    if y0.ndim != 1:
        raise ValueError("y0 must be one-dimensional")
    if not np.isfinite(y0).all():
        raise ValueError("every component of y0 must be finite")
    if atol < 0:
        raise ValueError("atol must be non-negative")
    if rtol < _MIN_RTOL:
        warnings.warn(f"rtol={rtol} is under 100 eps; using {_MIN_RTOL}", stacklevel=2)
        rtol = _MIN_RTOL

    n_rhs = 0

    def fun(t, y):
        nonlocal n_rhs
        n_rhs += 1
        return np.asarray(f(t, y), dtype=float)

    t, y = t0, y0
    f_cur = fun(t, y)
    if first_step is None:
        h_abs = _initial_step(fun, t, y, t1, f_cur, rtol, atol)
    elif 0 < first_step <= t1 - t0:
        h_abs = first_step
    else:
        raise ValueError(f"first_step must lie in (0, {t1 - t0}], got {first_step}")
    K = np.empty((_N_STAGES + 1, y.size))
    stage, scale, err5, err3 = np.empty((4, y.size))
    # y_new alternates between two buffers, never the one holding y
    y_bufs = (np.empty(y.size), np.empty(y.size))
    accepted = rejected = 0
    while t < t1:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        step_rejected = False
        while True:
            if h_abs < min_step:
                raise IntegrationError(
                    f"integrator failed near t={t}: step size underflow", t, y
                )
            t_new = min(t + h_abs, t1)
            h = t_new - t
            h_abs = np.abs(h)
            y_new, f_new = _rk_step(
                fun, t, y, f_cur, h, K, prepare, stage, y_bufs[accepted % 2]
            )
            # atol + max(|y|, |y_new|) * rtol; err5 holds |y_new| until
            # _error_norm overwrites it
            np.maximum(np.abs(y, out=scale), np.abs(y_new, out=err5), out=scale)
            scale *= rtol
            scale += atol
            error_norm = _error_norm(K, h, scale, err5, err3)
            if not np.isfinite(error_norm):
                # a NaN or Inf reached the stages: stop with the last good
                # state instead of shrinking the step until it underflows
                raise IntegrationError(
                    f"non-finite error estimate in the step from t={t} "
                    f"to t={t_new}",
                    t,
                    y,
                )
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            step_rejected = True
            rejected += 1
        if not np.isfinite(y_new).all():
            raise IntegrationError(
                f"state stopped being finite in the step from t={t} to t={t_new}",
                t,
                y,
            )
        t, y, f_cur = t_new, y_new, f_new
        accepted += 1
        if accepted > _MAX_STEPS:
            raise IntegrationError(f"exceeded {_MAX_STEPS} steps at t={t}", t, y)
    return y, IntegrationStats(accepted, rejected, n_rhs)
