"""Adaptive eighth-order explicit time stepping with run statistics.

The semidiscrete transport systems here are non-stiff but demand very tight
tolerances, so steps come from an embedded 8(5,3) Dormand-Prince pair (the
DOP853 stepper).  The wrapper exposes a plain function call and counts
accepted and rejected steps from the stepper's evaluation budget.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import DOP853

_EVALS_PER_ATTEMPT = 12  # 11 internal stages plus the new-point evaluation


class IntegrationError(RuntimeError):
    """Step-size underflow, budget exhaustion or a non-finite state; carries
    the last good time and state."""

    def __init__(self, message, t_last, y_last):
        super().__init__(message)
        self.t_last = t_last
        self.y_last = y_last


@dataclass(frozen=True)
class IntegratorConfig:
    rtol: float = 5e-13
    atol: float = 1e-12
    first_step: Optional[float] = None
    max_step: float = np.inf
    max_steps: int = 2_000_000


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


def integrate(
    f: Callable, y0: np.ndarray, t0: float, t1: float, cfg: IntegratorConfig = None
):
    """Advance y' = f(t, y) from t0 to exactly t1; returns (y(t1), stats)."""
    if cfg is None:
        cfg = IntegratorConfig()
    if t1 < t0:
        raise ValueError(f"cannot integrate backwards: t0={t0} t1={t1}")
    y0 = np.asarray(y0, dtype=float)
    if t1 == t0:
        return y0.copy(), IntegrationStats()
    solver = DOP853(
        f,
        t0,
        y0,
        t_bound=t1,
        rtol=cfg.rtol,
        atol=cfg.atol,
        first_step=cfg.first_step,
        max_step=cfg.max_step,
    )
    startup_evals = 1 if cfg.first_step is not None else 2
    accepted = 0
    while solver.status == "running":
        # the stepper replaces y on each step, so a reference keeps it
        t_prev, y_prev = solver.t, solver.y
        solver.step()
        if solver.status == "failed":
            raise IntegrationError(
                f"integrator failed near t={solver.t}: step size underflow",
                solver.t,
                solver.y,
            )
        if not np.isfinite(solver.y).all():
            raise IntegrationError(
                f"state stopped being finite in the step from t={t_prev} "
                f"to t={solver.t}",
                t_prev,
                y_prev,
            )
        accepted += 1
        if accepted > cfg.max_steps:
            raise IntegrationError(
                f"exceeded {cfg.max_steps} steps at t={solver.t}", solver.t, solver.y
            )
    attempts = max(accepted, (solver.nfev - startup_evals) // _EVALS_PER_ATTEMPT)
    stats = IntegrationStats(
        steps_accepted=accepted,
        steps_rejected=attempts - accepted,
        n_rhs=solver.nfev,
    )
    return solver.y.copy(), stats
