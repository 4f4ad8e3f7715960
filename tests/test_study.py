"""Sweep drivers: variant bookkeeping, fits, scaling check."""

import numpy as np
import pytest

from snmesh import analysis, study
from snmesh.analysis import ReferenceSolution, analysis_grid, reference_solution
from snmesh.analytic import SourceSpec
from snmesh.dgcore import RunConfig
from snmesh.study import (
    BASELINE,
    VARIANTS,
    run_convergence,
    run_scalecheck,
    split_variant,
    variant_feasible,
)


class TestVariantRules:
    def test_catalog(self):
        assert BASELINE in VARIANTS
        assert len(VARIANTS) == 4
        assert split_variant("uncollided+moving") == ("uncollided", "moving")
        for bad in ("warp+static", "standard", "standard+moving+x", ""):
            with pytest.raises(ValueError, match="choose from"):
                split_variant(bad)

    def test_mms_runs_one_variant_only(self):
        spec = SourceSpec("mms", x0=0.1)
        allowed = [v for v in VARIANTS if variant_feasible(spec, v, 8)]
        assert allowed == ["standard+moving"]

    def test_plane_excludes_standard_moving(self):
        spec = SourceSpec("plane-pulse")
        assert not variant_feasible(spec, "standard+moving", 8)
        assert variant_feasible(spec, "uncollided+moving", 8)
        assert variant_feasible(spec, "standard+static", 8)

    def test_square_moving_needs_quarterable_mesh(self):
        spec = SourceSpec("square-pulse", x0=0.5)
        assert not variant_feasible(spec, "uncollided+moving", 2)
        assert not variant_feasible(spec, "standard+moving", 6)
        assert variant_feasible(spec, "uncollided+moving", 8)
        assert variant_feasible(spec, "uncollided+static", 2)

    def test_gaussian_always_feasible(self):
        spec = SourceSpec("gaussian-pulse", sigma=0.5)
        assert all(variant_feasible(spec, v, 2) for v in VARIANTS)


def stub_reference(monkeypatch):
    """Replace the oracle with a zero reference so driver logic runs alone."""

    def fake(spec, t_final, grid, study_max_cells, study_angles):
        return ReferenceSolution(np.zeros_like(grid), 1e-14, 1e-14, 0.0, "stub")

    monkeypatch.setattr(study, "reference_solution", fake)


class TestConvergenceDriver:
    def test_skip_bookkeeping_and_fits(self, monkeypatch):
        stub_reference(monkeypatch)
        spec = SourceSpec("square-pulse", c=1.0, x0=0.5)
        # values come back sorted whatever order they were asked in
        out = run_convergence(
            spec, "cells", [4, 8, 2], fixed=1, n_angles=2, t_final=0.3,
            variants=("standard+static", "uncollided+moving"),
        )
        static = out.records["standard+static"]
        moving = out.records["uncollided+moving"]
        assert [p.value for p in static.points] == [2, 4, 8]
        assert static.skipped == []
        assert moving.skipped == [2]
        assert [p.value for p in moving.points] == [4, 8]
        assert static.fit is not None and moving.fit is not None
        assert out.improvement_over_baseline("uncollided+moving") > 0
        for p in static.points:
            assert p.rmse > 0 and p.wall_seconds > 0 and p.stats.steps_accepted > 0

    def test_single_point_leaves_fit_empty(self, monkeypatch):
        stub_reference(monkeypatch)
        spec = SourceSpec("square-pulse", c=1.0, x0=0.5)
        out = run_convergence(
            spec, "cells", [2, 4], fixed=1, n_angles=2, t_final=0.3,
            variants=("uncollided+moving",),
        )
        rec = out.records["uncollided+moving"]
        assert rec.fit is None and rec.skipped == [2]
        assert out.improvement_over_baseline("uncollided+moving") is None

    def test_infeasible_values_dropped(self, monkeypatch):
        stub_reference(monkeypatch)
        spec = SourceSpec("square-pulse", c=1.0, x0=0.5)
        out = run_convergence(
            spec, "cells", [2, 4], fixed=1, n_angles=2, t_final=0.3,
            variants=("uncollided+moving",),
        )
        rec = out.records["uncollided+moving"]
        assert [p.value for p in rec.points] == [4]
        assert rec.skipped == [2]

    def test_mms_filters_requested_variants(self):
        # mms runs standard+moving only; the other requested variants are
        # recorded as skipped at every value, like any infeasible point
        spec = SourceSpec("mms", x0=0.1)
        out = run_convergence(
            spec, "order", [2, 4], fixed=4, n_angles=8, t_final=0.5,
            variants=VARIANTS,
        )
        assert list(out.records) == list(VARIANTS)
        for variant, rec in out.records.items():
            if variant != "standard+moving":
                assert rec.points == [] and rec.fit is None and rec.skipped == [2, 4]
        assert out.records["standard+moving"].skipped == []
        pts = out.records["standard+moving"].points
        assert pts[0].rmse > pts[1].rmse  # order refinement helps
        assert out.reference.label == "exact"

    def test_gaussian_cells_sweep_against_real_oracle(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SNMESH_CACHE_DIR", str(tmp_path))
        spec = SourceSpec("gaussian-pulse", c=1.0, sigma=0.5)
        out = run_convergence(
            spec, "cells", [2, 4], fixed=2, n_angles=4, t_final=0.5,
            variants=("standard+static", "uncollided+moving"),
        )
        assert out.reference.label == "oracle"
        for rec in out.records.values():
            errs = [p.rmse for p in rec.points]
            assert errs[0] > errs[1] > 0
        assert out.improvement_over_baseline("uncollided+moving") > 1.0

    def test_sweep_name_validated(self):
        spec = SourceSpec("gaussian-pulse", sigma=0.5)
        with pytest.raises(ValueError):
            run_convergence(spec, "angles", [2, 4], 2, 4, 0.5)

    @pytest.mark.parametrize("kind, variants, n_angles, t_final, match", [
        pytest.param("mms", ("standard+moving", "warp+static"), 8, 0.5,
                     "unknown variant 'warp\\+static'", id="mms"),
        pytest.param("gaussian-pulse", ("standard+moving", "warp+static"), 8, 0.5,
                     "unknown variant 'warp\\+static'", id="gaussian-pulse"),
        # no point left to run: mms runs standard+moving only, and the
        # square pulse's moving mesh needs K divisible by 4
        pytest.param("mms", ("standard+static",), 8, 0.5, "none of the variants",
                     id="mms-static"),
        pytest.param("square-pulse", ("uncollided+moving",), 8, 0.5,
                     "none of the variants", id="square-unquartered"),
        # rules every variant shares
        pytest.param("gaussian-pulse", VARIANTS, 7, 0.5, "n_angles", id="odd-N"),
        pytest.param("gaussian-pulse", VARIANTS, 8, 0.0, "t_final", id="zero-t"),
    ])
    def test_variants_validated_before_any_solve(self, monkeypatch, kind, variants,
                                                 n_angles, t_final, match):
        def no_reference(*a, **kw):
            raise AssertionError("validation must come first")

        monkeypatch.setattr(study, "reference_solution", no_reference)
        spec = SourceSpec(kind, x0=0.1, sigma=0.5)
        with pytest.raises(ValueError, match=match):
            run_convergence(spec, "cells", [2, 6], 2, n_angles, t_final,
                            variants=variants)


def test_odd_cell_study_twin_has_half_the_reference_cells(monkeypatch):
    # K9 asks for 36 oracle cells, rounded up to 40 so the twin's 20 still
    # quarter for the hybrid mesh
    seen = []

    def record(config, grid, cache_dir):
        seen.append(config)
        return np.zeros_like(grid)

    monkeypatch.setattr(analysis, "_oracle_solve", record)
    spec = SourceSpec("square-source", x0=0.5, t0=5.0)
    for k_study, k_ref in ((9, 40), (17, 72), (4, 32), (8, 32), (16, 64)):
        seen.clear()
        reference_solution(spec, 1.0, analysis_grid(spec, 1.0), k_study, 8)
        assert [c.n_cells for c in seen] == [k_ref, k_ref // 2, k_ref]
        assert [c.n_angles for c in seen] == [32, 32, 8]
        assert all(c.order == analysis.ORACLE_ORDER for c in seen)


def scale_config(spec, t_final, order, n_cells, n_angles):
    return RunConfig(spec=spec, n_angles=n_angles, order=order, n_cells=n_cells,
                     mesh_mode="moving", source_mode="uncollided", t_final=t_final)


class TestScaleCheck:
    def test_trivial_at_c_equal_one(self):
        spec = SourceSpec("square-pulse", c=1.0, x0=0.5)
        out = run_scalecheck(scale_config(spec, 1.0, order=3, n_cells=8, n_angles=8))
        assert out.t_scaled == 1.0
        assert out.max_abs_diff < 1e-12

    def test_gaussian_identity_at_coarse_resolution(self):
        spec = SourceSpec("gaussian-pulse", c=0.8, sigma=0.5)
        out = run_scalecheck(scale_config(spec, 0.5, order=4, n_cells=8, n_angles=16))
        assert out.t_scaled == pytest.approx(0.625)
        assert 0.0 < out.max_abs_diff < 1e-2
        # the two routes describe the same stretched problem
        assert out.grid[-1] == pytest.approx(0.625 + 3.0 * 0.625)
        assert np.max(out.phi_direct) == pytest.approx(np.max(out.phi_scaled), rel=1e-2)

    def test_source_kinds_rejected(self):
        with pytest.raises(ValueError):
            run_scalecheck(scale_config(SourceSpec("square-source", x0=0.5, t0=5.0),
                                        1.0, 3, 8, 8))
