"""Error metrics, convergence fits, gated reference solutions, one file writer.

References come from the manufactured solution when available and otherwise
from a high-resolution uncollided moving-mesh solve (the self-convergence
oracle).  Oracle solves are cached on disk keyed by a config fingerprint,
each file stamped with the solver scheme that wrote it; a gate value bounds
how far the oracle itself can be trusted and convergence fits drop points
that have saturated at that gate.
"""

import json
import os
from contextlib import contextmanager
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
SOLUTION_COLUMNS = ("x", "phi", "phi_u", "phi_collided")
_KEEP_AT_LEAST = 3  # sweep points a convergence fit keeps, saturated or not

ORACLE_ORDER = 10
ORACLE_CELL_FACTOR = 4
ORACLE_ANGLE_FACTOR = 4
ORACLE_MIN_CELLS = 32
_ORACLE_TAG = "# snmesh-oracle "  # first line of an oracle file, before its JSON metadata
# The numerical scheme an oracle file was solved with.  The cache key hashes
# the config alone, so a change to the solver that moves the numbers bumps
# this on purpose, and a file of another scheme (or of none) is a miss.
ORACLE_SCHEME = 4


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
    half = t_final + spec.family.pad(spec)
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
    # every run field and the spec fields a solve reads: its kind, c,
    # amplitude and the family's reads, so a field it ignores names no file
    payload = asdict(config)
    spec = payload.pop("spec")
    payload.update({name: spec[name]
                    for name in ("kind", "c", "amplitude", *config.spec.family.reads)})
    payload["grid"] = [float(grid[0]), float(grid[-1]), int(grid.size)]
    blob = json.dumps(payload, sort_keys=True).encode()
    return sha256(blob).hexdigest()[:24]


@contextmanager
def _whole_file(path):
    """Text handle on a temp file beside ``path`` (opened like any file, so
    with the umask's mode), renamed onto ``path`` on a clean exit and removed
    on any exception: ``path`` is whole or untouched."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _format_field(value):
    # ints too: %.17g prints every int below 1e17 exactly as str() does
    if isinstance(value, str):
        return value
    return "%.17g" % float(value)


def write_csv(path, header, rows, first_line=None):
    """CSV with LF endings and floats as ``%.17g``, under an optional first line."""
    with _whole_file(path) as fh:
        if first_line is not None:
            fh.write(first_line + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_field(v) for v in row) + "\n")


def write_manifest(path, payload):
    with _whole_file(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def solution_table(system: TransportSystem, state, grid: np.ndarray) -> np.ndarray:
    """The ``SOLUTION_COLUMNS`` of a solve on the grid: the table ``snmesh
    solve`` writes and an oracle file holds (phi_u is zero for mms)."""
    phi = system.scalar_flux(state, grid)
    if system.spec.family.phi_u is None:
        phi_u = np.zeros_like(grid)
    else:
        phi_u = analytic.uncollided_scalar_flux(system.spec, grid, state.t)
    return np.column_stack((grid, phi, phi_u, phi - phi_u))


def _read_oracle_file(path: Path):
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith(_ORACLE_TAG):
            raise ValueError(f"not an oracle cache file: {path}")
        meta = json.loads(header[len(_ORACLE_TAG) :])
        fh.readline()  # column header
        data = np.loadtxt(fh, delimiter=",")
    return meta, data


def _oracle_solve(config: RunConfig, grid: np.ndarray, cache_dir: Path) -> np.ndarray:
    """Total scalar flux of one oracle solve on the grid, cached on disk."""
    key = config_fingerprint(config, grid)
    path = cache_dir / f"oracle-{key}.csv"
    if path.exists():
        # a miss: a file that names another config or scheme, fails to parse
        # or holds a NaN or Inf
        try:
            meta, data = _read_oracle_file(path)
        except ValueError:
            meta, data = {}, None
        if (meta.get("fingerprint") == key and meta.get("scheme") == ORACLE_SCHEME
                and data.shape == (grid.size, 4) and np.isfinite(data).all()):
            return data[:, 1]
    system = TransportSystem(config)
    result = system.solve()
    table = solution_table(system, result.state, grid)
    meta = {
        "fingerprint": key,
        "kind": config.spec.kind,
        "n_angles": config.n_angles,
        "order": config.order,
        "n_cells": config.n_cells,
        "t_final": config.t_final,
        "scheme": ORACLE_SCHEME,
        "steps_accepted": result.stats.steps_accepted,
        "steps_rejected": result.stats.steps_rejected,
    }
    write_csv(path, SOLUTION_COLUMNS, table,
              first_line=_ORACLE_TAG + json.dumps(meta, sort_keys=True))
    return table[:, 1]


def reference_solution(
    spec: SourceSpec,
    t_final: float,
    grid: np.ndarray,
    study_max_cells: int,
    study_angles: int,
) -> ReferenceSolution:
    """Reference scalar flux on the grid, with its trust gate.

    A family with an exact flux has it as reference (gate 0).  Everything else
    uses the uncollided moving-mesh solve at order 10 with four times the
    study's cells (rounded up to a multiple of 8, at least 32) and angles,
    gated by (a) its own spatial self-convergence against a twin of exactly
    half its cells and (b) the angular gap back to the study's quadrature, so
    fits can drop points that saturate at either floor.  Oracle files live in
    ``default_cache_dir()``.
    """
    family = spec.family
    if family.exact is not None:
        return ReferenceSolution(family.exact(grid, t_final, *spec.params), 0.0, 0.0, 0.0,
                                 "exact")
    cache_dir = default_cache_dir()
    # The floor keeps order sweeps at small fixed K honest: without it the
    # oracle for a K=4 study would sit at 16 cells, whose self-convergence
    # misses the smooth-problem gate.  k_ref is a multiple of 8, so both it
    # and its twin's k_ref // 2 split into quarters, as the square sources'
    # hybrid mesh needs.
    k_ref = max(ORACLE_CELL_FACTOR * study_max_cells, ORACLE_MIN_CELLS)
    k_ref += -k_ref % 8
    k_half = k_ref // 2
    n_ref = ORACLE_ANGLE_FACTOR * study_angles
    limit = family.gate
    # Stepper tolerance keyed to the trust gate: integrating a reference whose
    # spatial floor is 1e-4 at rtol 5e-13 buys nothing but wall time.  Four
    # decades of headroom keeps temporal error invisible in every study.
    o_rtol = float(min(max(limit * 1e-4, 5e-13), 1e-8))
    o_atol = max(0.1 * o_rtol, 1e-12)

    def oracle_config(k, n):
        return RunConfig(
            spec=spec,
            n_angles=n,
            order=ORACLE_ORDER,
            n_cells=k,
            mesh_mode="moving",
            source_mode="uncollided",
            t_final=t_final,
            rtol=o_rtol,
            atol=o_atol,
        )

    phi_ref = _oracle_solve(oracle_config(k_ref, n_ref), grid, cache_dir)
    phi_half = _oracle_solve(oracle_config(k_half, n_ref), grid, cache_dir)
    gate_spatial = rmse(phi_ref, phi_half)
    if gate_spatial > limit:
        raise OracleGateError(
            f"oracle self-convergence {gate_spatial:.3e} exceeds the "
            f"{spec.kind} gate {limit:.1e} (cells {k_half} vs {k_ref})"
        )
    phi_coarse_n = _oracle_solve(oracle_config(k_ref, study_angles), grid, cache_dir)
    gate_angular = rmse(phi_ref, phi_coarse_n)
    gate = max(gate_spatial, gate_angular)
    return ReferenceSolution(phi_ref, gate, gate_spatial, gate_angular, "oracle")
