"""Sweep drivers: convergence studies and the scaling identity check.  These
produce plain records that the command line serializes.

``run_convergence`` holds the one sweep loop; each point is one solve, and
its record keeps that solve's error, wall time and step counts.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .analysis import (
    FitResult,
    ReferenceSolution,
    analysis_grid,
    fit_algebraic,
    fit_spectral,
    reference_solution,
    rmse,
)
from .analytic import SourceSpec, scaled_parameters
from .dgcore import RunConfig, TransportSystem
from .integrate import IntegrationStats

VARIANTS = (
    "standard+static",
    "uncollided+static",
    "standard+moving",
    "uncollided+moving",
)
BASELINE = "standard+static"


def split_variant(variant: str):
    """(source_mode, mesh_mode) of a variant; anything outside ``VARIANTS``
    raises ``ValueError``."""
    if variant not in VARIANTS:
        raise ValueError(
            "unknown variant %r (choose from %s)" % (variant, ", ".join(VARIANTS))
        )
    source_mode, mesh_mode = variant.split("+")
    return source_mode, mesh_mode


def variant_feasible(spec: SourceSpec, variant: str, n_cells: int) -> bool:
    """Whether a (variant, resolution) combination has a defined scheme:
    ``RunConfig``'s own validation decides, at any valid angle count and
    order."""
    source_mode, mesh_mode = split_variant(variant)
    try:
        RunConfig(spec=spec, n_angles=2, order=0, n_cells=n_cells,
                  mesh_mode=mesh_mode, source_mode=source_mode)
    except ValueError:
        return False
    return True


@dataclass
class SweepPoint:
    value: int  # the swept resolution (cells or order)
    rmse: float
    wall_seconds: float
    stats: IntegrationStats


@dataclass
class VariantRecord:
    points: list
    fit: Optional[FitResult]
    skipped: list


@dataclass
class ConvergenceStudy:
    reference: ReferenceSolution
    records: dict  # variant -> VariantRecord

    def improvement_over_baseline(self, variant: str) -> Optional[float]:
        base = self.records.get(BASELINE)
        cand = self.records.get(variant)
        if not base or not cand or base.fit is None or cand.fit is None:
            return None
        return base.fit.intercept / cand.fit.intercept


def _solve_point(config: RunConfig, value, grid, phi_ref):
    system = TransportSystem(config)
    result = system.solve()
    return SweepPoint(
        value=value,
        rmse=rmse(system.scalar_flux(result.state, grid), phi_ref),
        wall_seconds=result.wall_seconds,
        stats=result.stats,
    )


def run_convergence(
    spec: SourceSpec,
    sweep: str,
    values,
    fixed: int,
    n_angles: int,
    t_final: float,
    variants=VARIANTS,
    cache_dir=None,
) -> ConvergenceStudy:
    """Resolution sweep (over cells at fixed order, or over order at fixed
    cells) for each requested method variant against one shared reference.
    The manufactured problem runs ``standard+moving`` only."""
    if sweep not in ("cells", "order"):
        raise ValueError("sweep must be 'cells' or 'order'")
    for variant in variants:
        split_variant(variant)
    if spec.kind == "mms":
        variants = ("standard+moving",)
    values = sorted(int(v) for v in values)
    if not values:
        raise ValueError("the sweep needs at least one value")
    cells, orders = (values, [fixed]) if sweep == "cells" else ([fixed], values)
    if min(cells) < 1 or min(orders) < 0:
        raise ValueError("the sweep needs cells >= 1 and order >= 0")
    grid = analysis_grid(spec, t_final)
    ref = reference_solution(
        spec, t_final, grid, max(cells), n_angles, cache_dir=cache_dir
    )
    records = {}
    for variant in variants:
        source_mode, mesh_mode = split_variant(variant)
        points, skipped = [], []
        for value in values:
            order = value if sweep == "order" else fixed
            n_cells = value if sweep == "cells" else fixed
            if not variant_feasible(spec, variant, n_cells):
                skipped.append(value)
                continue
            config = RunConfig(
                spec=spec,
                n_angles=n_angles,
                order=order,
                n_cells=n_cells,
                mesh_mode=mesh_mode,
                source_mode=source_mode,
                t_final=t_final,
            )
            points.append(_solve_point(config, value, grid, ref.phi))
        fit = None
        if len(points) >= 2:
            vals = [p.value for p in points]
            errs = [p.rmse for p in points]
            if sweep == "cells":
                fit = fit_algebraic(vals, errs, ref.gate)
            else:
                fit = fit_spectral(vals, errs, ref.gate)
        records[variant] = VariantRecord(points, fit, skipped)
    return ConvergenceStudy(ref, records)


# ---------------------------------------------------------------------------
# Scaling identity check.


@dataclass
class ScaleCheckResult:
    t_scaled: float
    grid: np.ndarray
    phi_direct: np.ndarray
    phi_scaled: np.ndarray
    max_abs_diff: float
    stats: dict  # "benchmark" / "direct" -> that solve's IntegrationStats


def run_scalecheck(
    spec: SourceSpec,
    t_benchmark: float,
    order: int,
    n_cells: int,
    n_angles: int,
    variant: str = "uncollided+moving",
) -> ScaleCheckResult:
    """Solve a c != 1 pulse directly and via the scaled c = 1 benchmark.

    The direct problem uses widths stretched by 1/c, runs to t/c, and its
    initial amplitude carries a factor c, which makes the two routes agree
    exactly in the continuum limit.
    """
    source_mode, mesh_mode = split_variant(variant)
    scaled_spec, t_scaled = scaled_parameters(spec, t_benchmark)
    benchmark_spec = replace(spec, c=1.0)

    common = dict(
        n_angles=n_angles,
        order=order,
        n_cells=n_cells,
        mesh_mode=mesh_mode,
        source_mode=source_mode,
    )
    bench_sys = TransportSystem(
        RunConfig(spec=benchmark_spec, t_final=t_benchmark, **common)
    )
    direct_sys = TransportSystem(RunConfig(spec=scaled_spec, t_final=t_scaled, **common))

    bench = bench_sys.solve()
    direct = direct_sys.solve()

    grid = analysis_grid(scaled_spec, t_scaled)
    phi_direct = direct_sys.scalar_flux(direct.state, grid)
    c = spec.c
    phi_scaled = (
        c
        * np.exp(-(1.0 - c) * t_scaled)
        * bench_sys.scalar_flux(bench.state, c * grid)
    )
    diff = float(np.max(np.abs(phi_direct - phi_scaled)))
    return ScaleCheckResult(
        t_scaled, grid, phi_direct, phi_scaled, diff,
        {"benchmark": bench.stats, "direct": direct.stats},
    )
