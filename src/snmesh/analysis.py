"""Error metrics, convergence fits, and gated reference solutions.

References come from the manufactured solution when available and otherwise
from a high-resolution uncollided moving-mesh solve (the self-convergence
oracle).  Oracle solves are cached on disk keyed by a config fingerprint; a
gate value bounds how far the oracle itself can be trusted and convergence
fits drop points that have saturated at that gate.
"""

import json
import os
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

# CPython's own SHA-256, which hashlib falls back to without OpenSSL: the
# same digests, and no process maps libcrypto (3.6 MB) for one cache key
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

from . import analytic
from .analytic import SourceSpec
from .dgcore import RunConfig, TransportSystem

GRID_POINTS = 201
_KEEP_AT_LEAST = 3  # sweep points a convergence fit keeps, saturated or not

ORACLE_ORDER = 10
ORACLE_CELL_FACTOR = 4
ORACLE_ANGLE_FACTOR = 4
ORACLE_MIN_CELLS = 32

# Abort thresholds on the oracle's own spatial self-convergence, by family.
GATE_LIMITS = {
    "gaussian-pulse": 1e-9,
    "gaussian-source": 1e-9,
    "square-pulse": 1e-5,
    "square-source": 1e-5,
    "plane-pulse": 1e-4,
}


class OracleGateError(RuntimeError):
    """The self-convergence oracle failed its quality gate."""


def rmse(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.sqrt(np.mean(np.abs(a - b) ** 2)))


def analysis_grid(spec: SourceSpec, t_final: float) -> np.ndarray:
    """Fixed uniform comparison grid spanning the relevant light cone."""
    if spec.kind in ("gaussian-pulse", "gaussian-source"):
        half = t_final + 3.0 * spec.sigma
    elif spec.kind == "plane-pulse":
        half = t_final
    else:
        half = t_final + spec.x0
    return np.linspace(-half, half, GRID_POINTS)


# ---------------------------------------------------------------------------
# Convergence fits.


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit of a convergence model, with saturation exclusion."""

    rate: float  # A for algebraic fits, c1 for spectral fits
    intercept: float  # C
    n_used: int
    used: tuple
    residual: float
    spans_factor_four: bool
    fallback: bool  # the fit kept a point below the floor (10x the gate)


def _fit(xs, log_rmses):
    coeffs, res = np.polyfit(xs, log_rmses, 1, full=True)[:2]
    slope, intercept = coeffs
    residual = float(np.sqrt(res[0] / len(xs))) if len(res) and len(xs) > 2 else 0.0
    return slope, float(np.exp(intercept)), residual


def _above_floor(rmses, gate):
    return np.asarray(rmses, dtype=float) >= 10.0 * gate


def saturation_mask(rmses, gate):
    """Points still above the reference's trust floor (10x the gate).

    When fewer than three survive, the leading three sweep points are kept
    instead.  Sweeps run coarse to fine, so those are the least saturated;
    picking by error size would grab points off a saturated tail whenever
    the tail is not monotone.
    """
    mask = _above_floor(rmses, gate)
    if mask.sum() < _KEEP_AT_LEAST:
        mask = np.zeros(mask.size, dtype=bool)
        mask[:_KEEP_AT_LEAST] = True
    return mask


def _fit_sweep(values, rmses, gate, spectral) -> FitResult:
    """Shared body of the two fits over the unsaturated points: ln(RMSE)
    against the value itself (spectral) or against its log (algebraic)."""
    values = np.asarray(values, dtype=float)
    rmses = np.asarray(rmses, dtype=float)
    if values.size < 2:
        raise ValueError("need at least two points to fit")
    if np.any(rmses <= 0.0):
        raise ValueError("RMSE values must be positive")
    mask = saturation_mask(rmses, gate)
    used = values[mask]
    xs = used if spectral else np.log(used)
    slope, intercept, residual = _fit(xs, np.log(rmses[mask]))
    far = used.min() + 4.0 if spectral else 4.0 * used.min()
    # plain bool, not numpy's: this flag travels into JSON manifests
    spans = bool(used.size >= 3 and used.max() >= far)
    fallback = bool((mask & ~_above_floor(rmses, gate)).any())
    return FitResult(-slope, intercept, int(mask.sum()), tuple(used), residual, spans,
                     fallback)


def fit_algebraic(values, rmses, gate=0.0) -> FitResult:
    """Fit RMSE = C * value^-A over a resolution sweep (log-log)."""
    return _fit_sweep(values, rmses, gate, spectral=False)


def fit_spectral(orders, rmses, gate=0.0) -> FitResult:
    """Fit RMSE = C * exp(-c1 * order) over a polynomial-order sweep.

    c1 is in natural log, per unit of polynomial order: the negated slope of
    ln(RMSE) against order (a base-10 rate is c1 / ln 10).  It is the value
    the command line writes as ``fit_A_or_c1`` for order sweeps.
    """
    return _fit_sweep(orders, rmses, gate, spectral=True)


# ---------------------------------------------------------------------------
# Reference solutions.


@dataclass
class ReferenceSolution:
    phi: np.ndarray
    gate: float
    gate_spatial: float
    gate_angular: float
    label: str


def default_cache_dir() -> Path:
    env = os.environ.get("SNMESH_CACHE_DIR")
    return Path(env) if env else Path(".snmesh_cache")


def config_fingerprint(config: RunConfig, grid: np.ndarray) -> str:
    # every RunConfig and SourceSpec field, so none can miss the key
    payload = asdict(config)
    payload.update(payload.pop("spec"))
    payload["grid"] = [float(grid[0]), float(grid[-1]), int(grid.size)]
    blob = json.dumps(payload, sort_keys=True).encode()
    return sha256(blob).hexdigest()[:24]


def _format_sig(v: float) -> str:
    return f"{v:.17g}"


def _write_oracle_file(path: Path, meta: dict, grid, phi, phi_u, phi_collided):
    """Atomic write: a temp file in the same directory is renamed into place."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write("# snmesh-oracle " + json.dumps(meta, sort_keys=True) + "\n")
            fh.write("x,phi,phi_u,phi_collided\n")
            for row in zip(grid, phi, phi_u, phi_collided):
                fh.write(",".join(_format_sig(v) for v in row) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_oracle_file(path: Path):
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("# snmesh-oracle "):
            raise ValueError(f"not an oracle cache file: {path}")
        meta = json.loads(header[len("# snmesh-oracle ") :])
        fh.readline()  # column header
        data = np.loadtxt(fh, delimiter=",")
    return meta, data


def _oracle_solve(config: RunConfig, grid: np.ndarray, cache_dir: Path) -> np.ndarray:
    """Total scalar flux of one oracle solve on the grid, cached on disk."""
    key = config_fingerprint(config, grid)
    path = cache_dir / f"oracle-{key}.csv"
    if path.exists():
        # a file that names another config, or fails to parse, is a miss
        try:
            meta, data = _read_oracle_file(path)
        except ValueError:
            meta, data = {}, None
        if meta.get("fingerprint") == key and data.shape == (grid.size, 4):
            return data[:, 1]
    system = TransportSystem(config)
    result = system.solve()
    phi = system.scalar_flux(result.state, grid)
    # every oracle runs in uncollided mode
    phi_u = analytic.uncollided_scalar_flux(config.spec, grid, config.t_final)
    meta = {
        "fingerprint": key,
        "kind": config.spec.kind,
        "n_angles": config.n_angles,
        "order": config.order,
        "n_cells": config.n_cells,
        "t_final": config.t_final,
        "steps_accepted": result.stats.steps_accepted,
        "steps_rejected": result.stats.steps_rejected,
    }
    _write_oracle_file(path, meta, grid, phi, phi_u, phi - phi_u)
    return phi


def _hybrid_safe(k: int) -> int:
    return k if k % 4 == 0 else k + (4 - k % 4)


def reference_solution(
    spec: SourceSpec,
    t_final: float,
    grid: np.ndarray,
    study_max_cells: int,
    study_angles: int,
    cache_dir=None,
) -> ReferenceSolution:
    """Reference scalar flux on the grid, with its trust gate.

    The manufactured problem has an exact reference (gate 0).  Everything else
    uses the uncollided moving-mesh solve at order 10 with four times the
    study's cells and angles, gated by (a) its own spatial self-convergence
    against a half-resolution twin and (b) the angular gap back to the study's
    quadrature, so fits can drop points that saturate at either floor.
    """
    if spec.kind == "mms":
        return ReferenceSolution(analytic.mms_phi(grid, t_final, spec.x0), 0.0, 0.0, 0.0, "exact")
    cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    # The floor keeps order sweeps at small fixed K honest: without it the
    # oracle for a K=4 study would sit at 16 cells, whose self-convergence
    # misses the smooth-problem gate.
    k_ref = _hybrid_safe(max(ORACLE_CELL_FACTOR * study_max_cells, ORACLE_MIN_CELLS))
    k_half = _hybrid_safe(k_ref // 2)
    n_ref = ORACLE_ANGLE_FACTOR * study_angles
    limit = GATE_LIMITS[spec.kind]
    # Stepper tolerance keyed to the trust gate: integrating a reference whose
    # spatial floor is 1e-4 at rtol 5e-13 buys nothing but wall time.  Four
    # decades of headroom keeps temporal error invisible in every study.
    o_rtol = float(min(max(limit * 1e-4, 5e-13), 1e-8))
    o_atol = max(0.1 * o_rtol, 1e-12)
    # The plane problem is even in (x, mu), so its oracle runs on the right
    # half with a mirror boundary; k//2 half cells keep the cell width of a
    # k-cell full solve while halving the dominant wavefront-transient cost.
    half = spec.kind == "plane-pulse"

    def oracle_config(order, k, n):
        return RunConfig(
            spec=spec,
            n_angles=n,
            order=order,
            n_cells=k // 2 if half else k,
            mesh_mode="moving",
            source_mode="uncollided",
            t_final=t_final,
            rtol=o_rtol,
            atol=o_atol,
            half_domain=half,
        )

    phi_ref = _oracle_solve(oracle_config(ORACLE_ORDER, k_ref, n_ref), grid, cache_dir)
    phi_half = _oracle_solve(oracle_config(ORACLE_ORDER, k_half, n_ref), grid, cache_dir)
    gate_spatial = rmse(phi_ref, phi_half)
    if gate_spatial > limit:
        raise OracleGateError(
            f"oracle self-convergence {gate_spatial:.3e} exceeds the "
            f"{spec.kind} gate {limit:.1e} (cells {k_half} vs {k_ref})"
        )
    gate_angular = 0.0
    if study_angles < n_ref:
        phi_coarse_n = _oracle_solve(
            oracle_config(ORACLE_ORDER, k_ref, study_angles), grid, cache_dir
        )
        gate_angular = rmse(phi_ref, phi_coarse_n)
    gate = max(gate_spatial, gate_angular)
    return ReferenceSolution(phi_ref, gate, gate_spatial, gate_angular, "oracle")
