"""Fits, gates, and the cached reference-solution machinery."""

import os
import stat
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from snmesh import analysis, analytic
from snmesh.analysis import (
    ORACLE_MIN_CELLS,
    OracleGateError,
    analysis_grid,
    config_fingerprint,
    fit_algebraic,
    fit_spectral,
    reference_solution,
    rmse,
    saturation_mask,
    solution_table,
)
from snmesh.analytic import SourceSpec
from snmesh.dgcore import RunConfig, TransportSystem
from snmesh.presets import config_from_settings, preset_names, preset_settings
from snmesh.study import (VARIANTS, ConvergenceStudy, VariantRecord, split_variant,
                          variant_feasible)


class TestRmse:
    def test_known_value(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))
        assert rmse(np.ones(5), np.ones(5)) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rmse(np.ones(3), np.ones(4))


class TestAnalysisGrid:
    def test_spans_light_cone(self):
        g = analysis_grid(SourceSpec("square-pulse", x0=0.5), 1.0)
        assert g[0] == -1.5 and g[-1] == 1.5 and g.size == analysis.GRID_POINTS
        g = analysis_grid(SourceSpec("plane-pulse"), 1.0)
        assert g[0] == -1.0 and g[-1] == 1.0
        g = analysis_grid(SourceSpec("gaussian-pulse", sigma=0.5), 1.0)
        assert g[-1] == pytest.approx(2.5)


class TestFits:
    def test_algebraic_recovers_exact_power_law(self):
        ks = np.array([2, 4, 8, 16])
        fit = fit_algebraic(ks, 7.3 * ks.astype(float) ** -3.1)
        assert fit.rate == pytest.approx(3.1, rel=1e-12)
        assert fit.intercept == pytest.approx(7.3, rel=1e-12)
        assert fit.n_used == 4
        assert fit.spans_factor_four

    def test_spectral_recovers_exact_exponential(self):
        ms = np.array([2, 4, 6, 8, 10])
        fit = fit_spectral(ms, 0.9 * np.exp(-1.3 * ms))
        assert fit.rate == pytest.approx(1.3, rel=1e-12)
        assert fit.intercept == pytest.approx(0.9, rel=1e-12)

    def test_noisy_recovery_within_band(self):
        rng = np.random.default_rng(3)
        ks = np.array([2, 4, 8, 16, 32])
        noise = np.exp(rng.normal(0.0, 0.05, ks.size))
        fit = fit_algebraic(ks, 2.0 * ks.astype(float) ** -2.9 * noise)
        assert fit.rate == pytest.approx(2.9, abs=0.15)
        assert fit.residual > 0.0

    def test_saturated_points_are_dropped(self):
        ks = np.array([2, 4, 8, 16, 32])
        clean = 1.0 * ks.astype(float) ** -3.0
        floored = np.maximum(clean, 5e-4)  # last two points sit at the floor
        fit = fit_algebraic(ks, floored, gate=6e-5)
        assert fit.n_used == 3
        assert fit.used == (2.0, 4.0, 8.0)
        assert fit.rate == pytest.approx(3.0, rel=1e-12)

    def test_all_saturated_keeps_three_largest(self):
        ks = np.array([2, 4, 8, 16])
        rmses = np.array([4e-9, 2e-9, 1.5e-9, 1.4e-9])
        fit = fit_algebraic(ks, rmses, gate=1e-6)
        assert fit.n_used == 3
        assert fit.used == (2.0, 4.0, 8.0)

    @pytest.mark.parametrize("gate, fallback", [
        (1e-4, False),  # 2, 4 and 8 clear 10x the gate
        (1e-3, True),  # only 2 and 4 do: the leading three are kept instead
    ])
    def test_fallback_is_recorded(self, gate, fallback):
        # the same points are used either way; only the flag tells them apart
        ks = np.array([2, 4, 8, 16])
        fit = fit_algebraic(ks, ks.astype(float) ** -3.0, gate=gate)
        assert fit.used == (2.0, 4.0, 8.0)
        assert fit.fallback is fallback

    @pytest.mark.parametrize("rmses, fallback", [
        ((1e-2, 1e-3), False),  # both clear 10x the gate
        ((1e-2, 1e-9), True),  # 4 does not, and the fit keeps it
    ])
    def test_two_point_fallback_follows_the_floor(self, rmses, fallback):
        fit = fit_algebraic([2, 4], rmses, gate=1e-8)
        assert fit.used == (2.0, 4.0)
        assert fit.fallback is fallback

    def test_two_point_fit_does_not_span(self):
        fit = fit_algebraic([4, 8], [1e-2, 1e-3])
        assert not fit.spans_factor_four

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            fit_algebraic([4], [1e-3])
        with pytest.raises(ValueError):
            fit_spectral([2, 4], [1e-3, 0.0])

    def test_mask_helper(self):
        # natural survivors above the 10x trust floor
        mask = saturation_mask([1e-2, 1e-4, 1e-6, 1e-10], gate=1e-8)
        assert mask.tolist() == [True, True, True, False]
        # fewer than three survive: fall back to the three coarsest points
        mask = saturation_mask([1e-2, 1e-4, 1e-9, 1e-10], gate=1e-8)
        assert mask.tolist() == [True, True, True, False]
        # the fallback must not chase a non-monotone saturated tail
        mask = saturation_mask([1e-2, 1e-4, 1e-9, 5e-9], gate=1e-8)
        assert mask.tolist() == [True, True, True, False]

    def test_intercept_improvement(self):
        base = fit_algebraic([2, 4, 8], 1.0 * np.array([2., 4., 8.]) ** -3)
        better = fit_algebraic([2, 4, 8], 0.1 * np.array([2., 4., 8.]) ** -3)
        records = {v: VariantRecord([], fit, [])
                   for v, fit in (("standard+static", base), ("uncollided+moving", better))}
        study = ConvergenceStudy(None, records)
        assert study.improvement_over_baseline("uncollided+moving") == pytest.approx(
            10.0, rel=1e-10)


class TestFingerprint:
    BASE = dict(n_angles=8, order=4, n_cells=8, mesh_mode="moving",
                source_mode="uncollided", t_final=1.0)

    def config(self, **over):
        spec = SourceSpec(kind="gaussian-pulse", sigma=0.5)
        kw = {**self.BASE, **over}
        return RunConfig(spec=spec, **kw)

    def test_stable_and_sensitive(self):
        grid = np.linspace(-2, 2, 11)
        a = config_fingerprint(self.config(), grid)
        b = config_fingerprint(self.config(), grid)
        assert a == b
        assert config_fingerprint(self.config(order=6), grid) != a
        assert config_fingerprint(self.config(t_final=2.0), grid) != a
        assert config_fingerprint(self.config(), np.linspace(-2, 2, 13)) != a

    @pytest.mark.parametrize("preset", preset_names())
    def test_key_is_hashlib_sha256(self, preset, monkeypatch):
        # the key hashes with CPython's built-in SHA-256 so that no process
        # loads OpenSSL; the committed oracles' keys need hashlib's digest
        import hashlib

        base = config_from_settings(preset_settings(preset))
        grid = analysis_grid(base.spec, base.t_final)
        configs = [replace(base, rtol=rtol) for rtol in (5e-13, 1e-8)]
        keys = [config_fingerprint(c, grid) for c in configs]
        assert len(set(keys)) == len(configs)
        monkeypatch.setattr(analysis, "sha256", hashlib.sha256)
        assert [config_fingerprint(c, grid) for c in configs] == keys

    @pytest.mark.parametrize("kind,unread", [
        ("plane-pulse", (("x0", 0.2), ("x0", -1.0))),
        ("gaussian-pulse", (("x0", 0.2), ("t0", 0.7)))])
    def test_fields_the_family_does_not_read_leave_the_key(self, kind, unread):
        # each is a solve test_a_field_the_family_does_not_read_leaves_the_solve_alone
        # shows to be the same; a negative x0 is one too
        spec = SourceSpec(kind=kind, x0=0.5, sigma=0.5)
        grid = analysis_grid(spec, 1.0)
        key = lambda s: config_fingerprint(RunConfig(spec=s, **self.BASE), grid)
        for name, value in unread:
            assert key(replace(spec, **{name: value})) == key(spec)

    @pytest.mark.parametrize("kind", analytic.KINDS)
    def test_every_field_the_family_reads_moves_the_key(self, kind):
        family = analytic.FAMILIES[kind]
        spec = SourceSpec(kind=kind, x0=0.5, sigma=0.5, t0=0.5)
        variant = "standard" if kind == "mms" else "uncollided"
        base = dict(self.BASE, source_mode=variant)
        grid = analysis_grid(spec, 1.0)
        key = lambda s: config_fingerprint(RunConfig(spec=s, **base), grid)
        others = [{name: 0.25} for name in family.reads]
        if family.drive is None:  # a manufactured problem refuses another c or amplitude
            others += [dict(amplitude=2.0), dict(c=0.5)]
        for over in others:
            assert key(replace(spec, **over)) != key(spec), over


# A family's own parameters, and another value for each field it does not read.
READ_VALUES = dict(x0=0.5, sigma=0.5, t0=0.25)
UNREAD_VALUES = dict(x0=0.3, sigma=0.3, t0=0.25)


def unread_field_cases():
    """(spec, variant, field) for every family, every variant it can run at
    8 cells and every parameter field outside the family's reads."""
    for kind, family in analytic.FAMILIES.items():
        spec = SourceSpec(kind, **{name: READ_VALUES[name] for name in family.reads})
        for variant in VARIANTS:
            if variant_feasible(spec, variant, 8):
                for name in sorted(UNREAD_VALUES.keys() - set(family.reads)):
                    yield spec, variant, name


@pytest.mark.parametrize("spec,variant,name", list(unread_field_cases()),
                         ids=lambda v: v.kind if isinstance(v, SourceSpec) else v)
def test_a_field_the_family_does_not_read_leaves_the_solve_alone(spec, variant, name):
    # so a cache key that hashes only the fields a family reads names the
    # same solve; t0 = 0.25 falls inside the run, where a source would stop
    source_mode, mesh_mode = split_variant(variant)

    def table(s):
        system = TransportSystem(RunConfig(spec=s, n_angles=4, order=2, n_cells=8,
                                           mesh_mode=mesh_mode, source_mode=source_mode,
                                           t_final=0.5))
        state = system.solve().state
        return solution_table(system, state, analysis_grid(s, 0.5)).tobytes()

    assert table(replace(spec, **{name: UNREAD_VALUES[name]})) == table(spec)


class TestWriter:
    @staticmethod
    def rows_then_fail():
        yield (1.0, 2.0)
        raise RuntimeError("row source failed")

    @pytest.mark.parametrize("before", [None, b"a,b\n0,1\n"])
    def test_failed_write_leaves_the_target_as_it_was(self, tmp_path, before):
        path = tmp_path / "table.csv"
        if before is not None:
            path.write_bytes(before)
        with pytest.raises(RuntimeError, match="row source failed"):
            analysis.write_csv(path, ("a", "b"), self.rows_then_fail())
        assert [p.name for p in tmp_path.iterdir()] == ([] if before is None else [path.name])
        if before is not None:
            assert path.read_bytes() == before

    def test_field_formats(self, tmp_path):
        # strings as they are, ints exact, floats to 17 significant digits
        path = tmp_path / "table.csv"
        rows = [("u+m", 8, 0.1), ("s+s", np.int64(16), 1e-300)]
        analysis.write_csv(path, ("v", "n", "x"), rows, first_line="# meta")
        assert path.read_bytes() == b"# meta\nv,n,x\nu+m,8,0.10000000000000001\ns+s,16,1e-300\n"


class TestOracleCache:
    SPEC = SourceSpec(kind="gaussian-pulse", c=1.0, sigma=0.5)

    def test_reference_gates_and_cache_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SNMESH_CACHE_DIR", str(tmp_path))
        grid = analysis_grid(self.SPEC, 0.5)
        ref = reference_solution(self.SPEC, 0.5, grid, study_max_cells=2,
                                 study_angles=4)
        assert ref.label == "oracle"
        assert 0.0 < ref.gate_spatial < self.SPEC.family.gate
        assert ref.gate_angular > ref.gate_spatial  # N = 4 is very coarse
        assert ref.gate == max(ref.gate_spatial, ref.gate_angular)
        assert np.all(ref.phi >= -1e-12)
        np.testing.assert_allclose(ref.phi, ref.phi[::-1], atol=1e-10)

        files = sorted(tmp_path.glob("oracle-*.csv"))
        assert len(files) == 3  # full, half-resolution twin, angular probe
        cells = set()
        for f in files:
            meta, data = analysis._read_oracle_file(f)
            cells.add(meta["n_cells"])
            assert data.shape == (grid.size, 4)
            np.testing.assert_allclose(data[:, 1] - data[:, 2], data[:, 3], atol=1e-15)
        # the cell floor overrides 4 * study_max_cells = 8
        assert ORACLE_MIN_CELLS in cells and ORACLE_MIN_CELLS // 2 in cells

        before = {f: f.read_bytes() for f in files}
        ref2 = reference_solution(self.SPEC, 0.5, grid, study_max_cells=2,
                                  study_angles=4)
        np.testing.assert_array_equal(ref.phi, ref2.phi)
        for f, blob in before.items():
            assert f.read_bytes() == blob

    def test_gate_limit_violation_raises(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SNMESH_CACHE_DIR", str(tmp_path))
        grid = analysis_grid(self.SPEC, 0.5)
        reference_solution(self.SPEC, 0.5, grid, study_max_cells=2,
                           study_angles=4)
        monkeypatch.setitem(analytic.FAMILIES, self.SPEC.kind,
                            replace(self.SPEC.family, gate=1e-18))
        with pytest.raises(OracleGateError):
            reference_solution(self.SPEC, 0.5, grid, study_max_cells=2,
                               study_angles=4)

    def tiny_oracle(self):
        config = RunConfig(spec=self.SPEC, n_angles=2, order=1, n_cells=2,
                           mesh_mode="moving", source_mode="uncollided",
                           t_final=0.5, rtol=1e-8, atol=1e-9)
        return config, np.linspace(-1.0, 1.0, 5)

    def test_mismatched_fingerprint_is_a_miss(self, tmp_path):
        config, grid = self.tiny_oracle()
        key = analysis.config_fingerprint(config, grid)
        path = tmp_path / f"oracle-{key}.csv"
        planted = np.full(grid.size, 7.0)
        analysis.write_csv(path, analysis.SOLUTION_COLUMNS,
                           np.column_stack((grid, planted, planted, planted)),
                           first_line='# snmesh-oracle {"fingerprint": "%s"}' % ("0" * 24))
        phi = analysis._oracle_solve(config, grid, tmp_path)
        assert not np.any(phi == 7.0)
        meta, data = analysis._read_oracle_file(path)
        assert meta["fingerprint"] == key
        np.testing.assert_array_equal(data[:, 1], phi)

    def test_file_cut_mid_row_is_a_miss(self, tmp_path):
        # a file cut short inside a row fails to parse: rebuilt, not raised
        config, grid = self.tiny_oracle()
        phi = analysis._oracle_solve(config, grid, tmp_path)
        (path,) = tmp_path.glob("oracle-*.csv")
        whole = path.read_bytes()
        lines = whole.splitlines(keepends=True)
        row3 = sum(len(line) for line in lines[:4])  # header, columns, 2 rows
        path.write_bytes(whole[: row3 + lines[4].rindex(b",") + 1])
        with pytest.raises(ValueError):
            analysis._read_oracle_file(path)
        np.testing.assert_array_equal(analysis._oracle_solve(config, grid, tmp_path), phi)
        assert path.read_bytes() == whole

    @pytest.mark.parametrize("damage", [
        lambda whole: b"",
        lambda whole: b"x,phi\n0,1\n",
        lambda whole: whole[: whole.index(b"\n") // 2] + b"\n",
        lambda whole: whole.replace(b"\n0,", b"\nzero,", 1),
    ], ids=["empty", "foreign", "header-json-cut", "non-numeric-cell"])
    def test_unparsable_file_is_a_miss(self, tmp_path, damage):
        # every file _read_oracle_file rejects is rebuilt whole, not raised
        config, grid = self.tiny_oracle()
        phi = analysis._oracle_solve(config, grid, tmp_path)
        (path,) = tmp_path.glob("oracle-*.csv")
        whole = path.read_bytes()
        path.write_bytes(damage(whole))
        with pytest.raises(ValueError):
            analysis._read_oracle_file(path)
        np.testing.assert_array_equal(analysis._oracle_solve(config, grid, tmp_path), phi)
        assert path.read_bytes() == whole

    @pytest.mark.parametrize("bad", [b"nan", b"inf", b"-inf"])
    def test_non_finite_value_is_a_miss(self, tmp_path, bad):
        # a file that parses but holds a NaN or Inf is rebuilt whole, so
        # the value never reaches an RMSE
        config, grid = self.tiny_oracle()
        phi = analysis._oracle_solve(config, grid, tmp_path)
        (path,) = tmp_path.glob("oracle-*.csv")
        whole = path.read_bytes()
        lines = whole.split(b"\n")
        row = lines[4].split(b",")
        lines[4] = b",".join([row[0], bad, *row[2:]])
        path.write_bytes(b"\n".join(lines))
        _, data = analysis._read_oracle_file(path)
        assert data.shape == (grid.size, 4) and not np.isfinite(data[2, 1])
        np.testing.assert_array_equal(analysis._oracle_solve(config, grid, tmp_path), phi)
        assert path.read_bytes() == whole

    @pytest.mark.parametrize("stamp", ["none", "scheme-1"])
    def test_file_of_another_scheme_is_a_miss(self, tmp_path, stamp):
        # a file whose header lacks the scheme, or names another, was solved
        # by other code: it is rebuilt whole, byte for byte
        config, grid = self.tiny_oracle()
        analysis._oracle_solve(config, grid, tmp_path)
        (path,) = tmp_path.glob("oracle-*.csv")
        whole = path.read_bytes()
        field = b'"scheme": %d, ' % analysis.ORACLE_SCHEME
        assert whole.count(field) == 1
        path.write_bytes(whole.replace(field, b"" if stamp == "none" else b'"scheme": 1, '))
        meta, data = analysis._read_oracle_file(path)
        assert meta.get("scheme") != analysis.ORACLE_SCHEME and np.isfinite(data).all()
        analysis._oracle_solve(config, grid, tmp_path)
        assert path.read_bytes() == whole

    def test_committed_oracles_carry_the_current_scheme(self):
        # a solver change that bumps the scheme rebuilds every committed file
        cache = Path(__file__).resolve().parents[1] / ".snmesh_cache"
        files = sorted(cache.glob("oracle-*.csv"))
        assert files
        for path in files:
            meta, _ = analysis._read_oracle_file(path)
            assert meta.get("scheme") == analysis.ORACLE_SCHEME, path.name

    def test_committed_oracle_rebuilds_byte_identical(self, tmp_path):
        # the cheapest committed oracle (gaussian pulse, N8 K32, order 10,
        # t = 0.5), rebuilt by a fresh process at one BLAS thread into an
        # empty cache, must match the committed file byte for byte: a solver
        # change that moves any bit of a cached result shows up here
        name = "oracle-1f0c77530c521ae229ce4bca.csv"
        committed = Path(__file__).resolve().parents[1] / ".snmesh_cache" / name
        code = (
            "import sys\n"
            "from snmesh import analysis\n"
            "from snmesh.analytic import SourceSpec\n"
            "from snmesh.dgcore import RunConfig\n"
            "spec = SourceSpec(kind='gaussian-pulse', c=1.0, sigma=0.5)\n"
            "config = RunConfig(spec=spec, n_angles=8, order=10, n_cells=32,\n"
            "                   mesh_mode='moving', source_mode='uncollided',\n"
            "                   t_final=0.5, rtol=5e-13, atol=1e-12)\n"
            "grid = analysis.analysis_grid(spec, 0.5)\n"
            "analysis._oracle_solve(config, grid, analysis.Path(sys.argv[1]))\n"
            "from snmesh import cli\n"
            "assert cli.main(['solve', '--preset', 'gaussian-pulse', '--N', '8', '--K', '32',\n"
            "                 '--M', '10', '--t', '0.5', '--out-dir', sys.argv[2]]) == 0\n"
        )
        src = Path(analysis.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src), SNMESH_CACHE_DIR=str(tmp_path))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        out = tmp_path / "solve"
        subprocess.run([sys.executable, "-c", code, str(tmp_path), str(out)], env=env,
                       check=True, timeout=300)
        assert [p.name for p in tmp_path.glob("oracle-*.csv")] == [name]
        assert (tmp_path / name).read_bytes() == committed.read_bytes()
        # the oracle file is the solve command's table under one header line
        header, table = committed.read_bytes().split(b"\n", 1)
        assert header.startswith(b"# snmesh-oracle ")
        assert (out / "solution.csv").read_bytes() == table

    def test_fresh_files_get_the_umask_mode(self, tmp_path):
        # written files keep the mode a plain open gives, oracles included
        from snmesh.cli import main

        config, grid = self.tiny_oracle()
        old = os.umask(0o022)
        try:
            analysis._oracle_solve(config, grid, tmp_path / "cache")
            assert main(["solve", "--preset", "mms", "--N", "2", "--M", "1", "--K", "2",
                         "--t", "0.1", "--out-dir", str(tmp_path / "out")]) == 0
        finally:
            os.umask(old)
        written = [*(tmp_path / "cache").iterdir(), *(tmp_path / "out").iterdir()]
        assert len(written) == 3
        for path in written:
            assert stat.S_IMODE(path.stat().st_mode) == 0o644, path.name

    def test_corrupt_cache_file_rejected(self, tmp_path):
        bad = tmp_path / "oracle-deadbeef.csv"
        bad.write_text("x,phi\n0,1\n")
        with pytest.raises(ValueError):
            analysis._read_oracle_file(bad)

    def test_mms_reference_is_exact(self):
        spec = SourceSpec(kind="mms", x0=0.1)
        grid = np.linspace(-1.1, 1.1, 23)
        ref = reference_solution(spec, 1.0, grid, study_max_cells=4, study_angles=8)
        assert ref.label == "exact"
        assert ref.gate == 0.0
        np.testing.assert_allclose(
            ref.phi, np.exp(-0.5 * grid * grid) / 2.0, rtol=1e-14
        )

    def test_cache_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("SNMESH_CACHE_DIR", str(tmp_path / "alt"))
        assert analysis.default_cache_dir() == tmp_path / "alt"
        monkeypatch.delenv("SNMESH_CACHE_DIR")
        assert analysis.default_cache_dir() == analysis.Path(".snmesh_cache")
