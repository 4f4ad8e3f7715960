"""Command-line contract: flags, config precedence, CSV schemas, exit codes."""

import json
import os
from dataclasses import asdict

import numpy as np
import pytest

from snmesh import analytic, study
from snmesh.analysis import GRID_POINTS, OracleGateError, ReferenceSolution, fit_spectral
from snmesh.cli import _PARAMETERS, build_parser, gather_settings, main, parse_config_file
from snmesh.presets import preset_names, preset_settings


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """One oracle cache shared by all CLI tests in this module."""
    d = tmp_path_factory.mktemp("oracle-cache")
    old = os.environ.get("SNMESH_CACHE_DIR")
    os.environ["SNMESH_CACHE_DIR"] = str(d)
    yield d
    if old is None:
        os.environ.pop("SNMESH_CACHE_DIR", None)
    else:
        os.environ["SNMESH_CACHE_DIR"] = old


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


SOLVE_ARGS = [
    "--kind", "gaussian-pulse", "--sigma", "0.5", "--N", "4", "--M", "3",
    "--K", "4", "--mesh", "static", "--source-mode", "uncollided", "--t", "0.5",
]


class TestSolve:
    def test_writes_solution_and_manifest(self, tmp_path):
        rc = main(["solve", *SOLVE_ARGS, "--out-dir", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "solution.csv")
        assert header == ["x", "phi", "phi_u", "phi_collided"]
        assert len(rows) == GRID_POINTS
        for row in rows[:: GRID_POINTS // 10]:
            x, phi, phi_u, phi_c = map(float, row)
            assert phi == pytest.approx(phi_u + phi_c, abs=1e-15)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "solve"
        assert manifest["variant"] == "uncollided+static"
        assert manifest["config"]["order"] == 3
        assert manifest["integrator"]["steps_accepted"] > 0
        assert manifest["outputs"]["solution_csv"] == "solution.csv"
        assert manifest["t_start"] == 0.0

    def test_manifest_states_the_deferred_start(self, tmp_path):
        # a run states where it began: the seeded square source starts late
        rc = main(["solve", "--preset", "square-source", "--N", "4", "--M", "1",
                   "--K", "4", "--t", "0.01", "--out-dir", str(tmp_path)])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["variant"] == "uncollided+moving"
        assert manifest["t_start"] == analytic.PLANE_T_START

    def test_manifest_counts_the_particles(self, tmp_path):
        # at c = 1 a Gaussian pulse keeps its sigma sqrt(pi) particles
        rc = main(["solve", "--preset", "gaussian-pulse", "--N", "8", "--M", "3",
                   "--K", "4", "--out-dir", str(tmp_path)])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["particles"] == pytest.approx(0.5 * np.sqrt(np.pi), rel=1e-8)

    def test_output_is_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["solve", *SOLVE_ARGS, "--out-dir", str(a)]) == 0
        assert main(["solve", *SOLVE_ARGS, "--out-dir", str(b)]) == 0
        assert (a / "solution.csv").read_bytes() == (b / "solution.csv").read_bytes()

    def test_csv_uses_lf_and_full_precision(self, tmp_path):
        assert main(["solve", *SOLVE_ARGS, "--out-dir", str(tmp_path)]) == 0
        blob = (tmp_path / "solution.csv").read_bytes()
        assert b"\r" not in blob
        _, rows = read_csv(tmp_path / "solution.csv")
        xs = np.array([float(r[0]) for r in rows])
        half = 0.5 + 3.0 * 0.5
        np.testing.assert_array_equal(xs, np.linspace(-half, half, GRID_POINTS))

    def test_mms_has_empty_uncollided_column(self, tmp_path):
        rc = main([
            "solve", "--kind", "mms", "--x0", "0.1", "--N", "8", "--M", "3",
            "--K", "4", "--mesh", "moving", "--source-mode", "standard",
            "--t", "0.5", "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        _, rows = read_csv(tmp_path / "solution.csv")
        assert all(float(r[2]) == 0.0 for r in rows)


class TestSettingsPrecedence:
    def test_preset_defaults_fill_in(self):
        s = preset_settings("gaussian-pulse")
        assert s["order"] == 6 and s["cells"] == 8 and s["t_final"] == 1.0
        assert set(preset_names()) == {
            "mms", "plane-pulse", "square-pulse", "square-source",
            "gaussian-pulse", "gaussian-source",
        }

    def test_settings_without_a_preset(self):
        # every parameter but the kind comes from presets.DEFAULTS
        args = build_parser().parse_args(["solve", "--kind", "square-pulse", "--x0", "0.5"])
        expected = dict(
            kind="square-pulse", c=1.0, x0=0.5, sigma=0.0, t0=0.0, amplitude=1.0,
            angles=8, order=4, cells=4,
            mesh_mode="moving", source_mode="uncollided", t_final=1.0,
        )
        assert json.dumps(gather_settings(args), sort_keys=True) == json.dumps(
            expected, sort_keys=True)

    def test_flags_override_preset(self, tmp_path):
        rc = main([
            "solve", "--preset", "gaussian-pulse", "--N", "4", "--M", "2",
            "--K", "4", "--t", "0.3", "--mesh", "static",
            "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        cfg = json.loads((tmp_path / "manifest.json").read_text())["config"]
        assert cfg["angles"] == 4          # flag beat the preset's 64
        assert cfg["sigma"] == 0.5         # preset value survives
        assert cfg["mesh_mode"] == "static"

    def test_config_file_between_preset_and_flags(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# study parameters\n"
            "sigma = 0.7\n"
            "N = 8   # quadrature\n"
            "M = 5\n"
        )
        rc = main([
            "solve", "--preset", "gaussian-pulse", "--config", str(cfg_file),
            "--M", "2", "--K", "4", "--t", "0.3", "--mesh", "static",
            "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 0
        cfg = json.loads((tmp_path / "out" / "manifest.json").read_text())["config"]
        assert cfg["sigma"] == 0.7   # config file beat the preset
        assert cfg["angles"] == 8    # config file value kept
        assert cfg["order"] == 2     # flag beat the config file

    def test_parse_config_file(self, tmp_path):
        f = tmp_path / "p.cfg"
        f.write_text("kind = square-pulse\nx0 = 0.5\nK = 16\n")
        got = parse_config_file(f)
        assert got == {"kind": "square-pulse", "x0": "0.5", "cells": "16"}

    def test_unknown_config_key_fails(self, tmp_path):
        f = tmp_path / "p.cfg"
        f.write_text("velocity = 3\n")
        rc = main(["solve", "--preset", "gaussian-pulse", "--config", str(f),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2

    def test_missing_problem_fails(self, tmp_path):
        rc = main(["solve", "--N", "4", "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_missing_config_file_fails(self, tmp_path):
        rc = main(["solve", "--preset", "mms", "--config",
                   str(tmp_path / "nope.cfg"), "--out-dir", str(tmp_path)])
        assert rc == 2


@pytest.mark.parametrize("row", _PARAMETERS, ids=[row[0] for row in _PARAMETERS])
def test_parameter_table_row(tmp_path, row):
    # the config-file key and each flag spelling set the row's settings key
    # with the row's type, and a flag beats the file
    name, flags, key, type_, extra = row
    if isinstance(extra, tuple):
        file_value, flag_value = extra[0], extra[-1]
    else:
        file_value, flag_value = {int: ("10", "12"), float: ("0.25", "0.75")}[type_]
    cfg = tmp_path / "p.cfg"
    cfg.write_text("%s = %s\n" % (name, file_value))

    def setting(*argv):
        args = build_parser().parse_args(
            ["solve", "--preset", "gaussian-pulse", "--config", str(cfg), *argv])
        return gather_settings(args)[key]

    got = setting()
    assert type(got) is type_ and got == type_(file_value)
    for flag in flags:
        got = setting(flag, flag_value)
        assert type(got) is type_ and got == type_(flag_value)


class TestConverge:
    def test_mms_order_sweep(self, tmp_path):
        # three sweep values so the fit's span flag takes its computed
        # (non-short-circuit) branch; that value must survive json.dump
        rc = main([
            "converge", "--kind", "mms", "--x0", "0.1", "--N", "8", "--K", "4", "--t", "0.5",
            "--sweep", "order", "--values", "2,3,4", "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        header, rows = read_csv(tmp_path / "convergence.csv")
        assert header == ["variant", "sweep", "value", "rmse", "fit_A_or_c1", "fit_C"]
        assert [r[0] for r in rows] == ["standard+moving"] * 3
        assert [r[2] for r in rows] == ["2", "3", "4"]
        assert float(rows[0][3]) > float(rows[1][3])
        # fit columns repeat the variant-level fit on every row
        assert rows[0][4] == rows[1][4]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["reference"]["label"] == "exact"
        assert manifest["variants"]["standard+moving"]["fit"]["rate"] > 0
        assert manifest["variants"]["standard+moving"]["fit"]["spans_factor_four"] is False
        # each sweep point explains its solve, and matches its CSV row
        points = manifest["variants"]["standard+moving"]["points"]
        assert [p["value"] for p in points] == [2, 3, 4]
        assert ["%.17g" % p["rmse"] for p in points] == [r[3] for r in rows]
        for p in points:
            assert p["wall_seconds"] > 0 and p["steps_accepted"] > 0
            assert p["steps_rejected"] >= 0
            assert p["rhs_evaluations"] >= 12 * p["steps_accepted"]

    def test_gaussian_cells_sweep_uses_cache_env(self, tmp_path, cache_dir):
        rc = main([
            "converge", "--kind", "gaussian-pulse", "--sigma", "0.5", "--N", "4",
            "--M", "2", "--t", "0.5", "--sweep", "cells", "--values", "2,4",
            "--variants", "standard+static,uncollided+moving",
            "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        assert len(list(cache_dir.glob("oracle-*.csv"))) >= 3
        _, rows = read_csv(tmp_path / "convergence.csv")
        assert len(rows) == 4
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        gates = manifest["reference"]
        assert gates["label"] == "oracle" and gates["gate"] > 0
        imp = manifest["variants"]["uncollided+moving"]["improvement_over_baseline"]
        assert imp > 1.0

    def test_unknown_variant_fails(self, tmp_path):
        rc = main([
            "converge", "--kind", "mms", "--x0", "0.1", "--variants", "warp+static",
            "--out-dir", str(tmp_path),
        ])
        assert rc == 2

    def test_oracle_gate_exit_code(self, tmp_path, monkeypatch):
        def raiser(*a, **kw):
            raise OracleGateError("synthetic gate breach")

        monkeypatch.setattr(study, "reference_solution", raiser)
        rc = main([
            "converge", "--kind", "gaussian-pulse", "--sigma", "0.5",
            "--N", "4", "--M", "2", "--t", "0.5", "--values", "2,4",
            "--out-dir", str(tmp_path),
        ])
        assert rc == 1


class TestScalecheck:
    def test_trivial_identity_at_c_one(self, tmp_path):
        rc = main([
            "scalecheck", "--kind", "square-pulse", "--x0", "0.5", "--c", "1",
            "--N", "4", "--M", "2", "--K", "4", "--t", "0.5",
            "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        header, rows = read_csv(tmp_path / "scalecheck.csv")
        assert header == ["x", "phi_direct", "phi_scaled", "abs_diff"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["max_abs_diff"] < 1e-12
        assert manifest["t_scaled"] == 0.5
        # both solves explain themselves; at c = 1 they are the same solve
        counts = manifest["integrator"]
        assert set(counts) == {"benchmark", "direct"}
        assert counts["benchmark"] == counts["direct"]
        for solve in counts.values():
            assert solve["steps_accepted"] > 0 and solve["steps_rejected"] >= 0
            assert solve["rhs_evaluations"] >= 12 * solve["steps_accepted"]

    def test_nontrivial_ratio(self, tmp_path):
        rc = main([
            "scalecheck", "--kind", "gaussian-pulse", "--sigma", "0.5",
            "--c", "0.8", "--N", "8", "--M", "3", "--K", "4", "--t", "0.3",
            "--mesh", "static", "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["variant"] == "uncollided+static"
        assert manifest["t_scaled"] == pytest.approx(0.375)
        assert 0 < manifest["max_abs_diff"] < 0.05

    @pytest.mark.parametrize("problem", [
        ["--preset", "gaussian-pulse", "--c", "0.8", "--K", "4"],
        # the hybrid mesh's quarter rule binds moving meshes only
        ["--preset", "square-pulse", "--c", "0.8", "--K", "6"],
    ])
    def test_variant_from_mesh_and_source_mode(self, tmp_path, problem):
        rc = main(["scalecheck", *problem, "--N", "4", "--M", "2", "--t", "0.3",
                   "--mesh", "static", "--source-mode", "standard",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["variant"] == "standard+static"

    def test_no_second_variant_flag(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["scalecheck", "--preset", "gaussian-pulse", "--c", "0.8",
                  "--variant", "uncollided+moving", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert not tmp_path.joinpath("manifest.json").exists()

    def test_source_kinds_rejected(self, tmp_path):
        rc = main([
            "scalecheck", "--kind", "square-source", "--x0", "0.5", "--t0", "5",
            "--out-dir", str(tmp_path),
        ])
        assert rc == 2

    def test_mms_rejected(self, tmp_path):
        rc = main([
            "scalecheck", "--kind", "mms", "--x0", "0.1", "--mesh", "moving",
            "--source-mode", "standard", "--out-dir", str(tmp_path),
        ])
        assert rc == 2


MMS_SWEEP = [
    "--preset", "mms", "--N", "8", "--K", "4", "--t", "0.5",
    "--sweep", "order", "--values", "2,3",
]


def test_converge_manifest_records(tmp_path):
    # "fit" is every FitResult field, "used" the fitted sweep values; the
    # reference records its gates and label, not its flux
    assert main(["converge", *MMS_SWEEP, "--out-dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    reference = manifest["reference"]
    assert set(reference) == {"gate", "gate_spatial", "gate_angular", "label"}
    record = manifest["variants"]["standard+moving"]
    values = [p["value"] for p in record["points"]]
    fit = fit_spectral(values, [p["rmse"] for p in record["points"]], reference["gate"])
    assert record["fit"] == {**asdict(fit), "used": list(fit.used)}
    assert record["fit"]["used"] == values == [2, 3]


def test_converge_manifest_config_holds_what_the_study_reads(tmp_path):
    # --variants picks the variants and sweep, values and fixed record the
    # resolution, so config has no variant keys and no swept setting, even
    # where a shared config file sets them
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("mesh = static\nsource_mode = uncollided\n")
    out = tmp_path / "out"
    assert main(["converge", *MMS_SWEEP, "--config", str(cfg), "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    want = set(preset_settings("mms")) - {"mesh_mode", "source_mode", "order"}
    assert set(manifest["config"]) == want
    assert manifest["config"]["cells"] == manifest["fixed"] == 4
    assert (manifest["sweep"], manifest["values"]) == ("order", [2, 3])
    assert set(manifest["variants"]) == set(study.VARIANTS)


@pytest.mark.parametrize("command,argv", [
    ("solve", SOLVE_ARGS),
    ("scalecheck", ["--preset", "gaussian-pulse", "--c", "0.8", "--N", "4", "--M", "2",
                    "--K", "4", "--t", "0.3", "--mesh", "static"]),
])
def test_one_run_manifests_record_every_setting(tmp_path, command, argv):
    # solve and scalecheck run the variant --mesh and --source-mode name,
    # so their config keeps both, and order and cells
    assert main([command, *argv, "--out-dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert set(manifest["config"]) == set(preset_settings("gaussian-pulse"))
    assert manifest["config"]["mesh_mode"] == "static"


@pytest.mark.parametrize("flag", [["--mesh", "static"], ["--source-mode", "standard"]])
def test_converge_has_no_variant_flags(tmp_path, monkeypatch, capsys, flag):
    # --variants picks a study's runs: either one-variant flag is an
    # argparse error, before any reference work, and nothing is written
    calls = []
    monkeypatch.setattr(study, "reference_solution", lambda *a, **kw: calls.append(a))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["converge", *MMS_SWEEP, *flag, "--out-dir", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: %s" % " ".join(flag) in capsys.readouterr().err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("values, fallback", [("2,3", False), ("2,3,4", False)])
def test_converge_manifest_records_fallback(tmp_path, values, fallback):
    # the exact MMS reference has gate 0, so every point clears the floor
    # and no fit keeps a point below it, however few points there are
    sweep = [*MMS_SWEEP[:-1], values]
    assert main(["converge", *sweep, "--out-dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["variants"]["standard+moving"]["fit"]["fallback"] is fallback


@pytest.mark.parametrize("sweep,values", [("cells", "0"), ("order", "-1,2")])
def test_invalid_sweep_values_fail_before_the_oracles(tmp_path, monkeypatch,
                                                      sweep, values):
    # cells < 1 or order < 0: exit 2 with no output and no oracle written
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("SNMESH_CACHE_DIR", str(cache))
    out = tmp_path / "out"
    rc = main(["converge", "--preset", "gaussian-pulse", "--sweep", sweep,
               "--values=" + values, "--N", "4", "--M", "1", "--t", "0.5",
               "--out-dir", str(out)])
    assert rc == 2
    assert not out.exists() and list(cache.iterdir()) == []


@pytest.mark.parametrize("flag,value", [
    ("--t", "inf"), ("--t", "nan"), ("--c", "nan"), ("--amplitude", "nan"),
    ("--sigma", "inf"), ("--t0", "-inf"), ("--x0", "nan"),
])
def test_non_finite_parameters_fail_before_any_solve(tmp_path, monkeypatch, capsys,
                                                     flag, value):
    # at exit 2, with no output and no oracle, not a hang, a NaN table or an
    # integration failure
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("SNMESH_CACHE_DIR", str(cache))
    for command in ("solve", "converge"):
        out = tmp_path / command
        rc = main([command, "--preset", "gaussian-pulse", "--N", "2", "--M", "0",
                   "--K", "2", f"{flag}={value}", "--out-dir", str(out)])
        assert rc == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()
    assert list(cache.iterdir()) == []


@pytest.mark.filterwarnings("error")
def test_integration_failure_exits_1(tmp_path, capsys):
    # c = 1e300 overflows the first stages: the stepper's IntegrationError
    # ends the run with exit 1 and one line on stderr, not a traceback
    out = tmp_path / "out"
    rc = main(["solve", "--preset", "gaussian-pulse", "--c", "1e300", "--K", "4",
               "--N", "4", "--M", "2", "--out-dir", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "integration failure: non-finite error estimate in the step" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_static_square_source_study_at_six_cells(tmp_path, monkeypatch):
    # the preset's own moving variant would need K divisible by 4; the
    # static study it does not run must not veto this one
    monkeypatch.setattr(
        study, "reference_solution",
        lambda spec, t_final, grid, k, n: ReferenceSolution(
            np.zeros_like(grid), 1e-14, 1e-14, 0.0, "stub"))
    rc = main(["converge", "--preset", "square-source", "--sweep", "order",
               "--values", "1,2", "--K", "6", "--N", "4",
               "--variants", "standard+static", "--out-dir", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "convergence.csv")
    assert [(r[0], r[2]) for r in rows] == [("standard+static", "1"),
                                            ("standard+static", "2")]


def test_odd_cell_count_exits_2(tmp_path, capsys):
    # the solve runs on the right half of the slab, so K must be even
    out = tmp_path / "out"
    rc = main(["solve", "--preset", "square-source", "--K", "5", "--out-dir", str(out)])
    assert rc == 2
    assert "cell count must be even" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("amplitude", ["2", "-3"])
def test_mms_refuses_another_amplitude(tmp_path, capsys, amplitude):
    # the manufactured solution fixes the amplitude at 1: the solve would
    # not apply another one, though the manifest would record it
    out = tmp_path / "out"
    rc = main(["solve", "--preset", "mms", "--N", "8", "--K", "4",
               "--amplitude", amplitude, "--out-dir", str(out)])
    assert rc == 2
    assert "defined for amplitude 1" in capsys.readouterr().err
    assert not out.exists()


def test_plane_pulse_ignores_x0(tmp_path):
    # the plane pulse reads no x0, so a negative one runs and writes the
    # solution of the preset's x0 = 0.5
    tables = []
    for x0 in ("0.5", "-1"):
        out = tmp_path / x0
        rc = main(["solve", "--preset", "plane-pulse", "--N", "8", "--M", "2", "--K", "4",
                   "--t", "0.3", "--x0", x0, "--out-dir", str(out)])
        assert rc == 0
        tables.append((out / "solution.csv").read_bytes())
    assert tables[0] == tables[1]


def test_cells_sweep_skips_odd_counts(tmp_path, monkeypatch):
    # variant_feasible rules an odd K out, as any infeasible point
    monkeypatch.setattr(
        study, "reference_solution",
        lambda spec, t_final, grid, k, n: ReferenceSolution(
            np.zeros_like(grid), 1e-14, 1e-14, 0.0, "stub"))
    rc = main(["converge", "--preset", "gaussian-pulse", "--sweep", "cells",
               "--values", "3,4", "--N", "4", "--M", "1", "--t", "0.2",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    for record in manifest["variants"].values():
        assert record["skipped_values"] == [3]
        assert [p["value"] for p in record["points"]] == [4]


@pytest.mark.parametrize("name", ["x0", "sigma", "t0"])
def test_parameter_help_names_the_kinds_that_read_it(name):
    text = next(row[4] for row in _PARAMETERS if row[0] == name)
    named = {kind for kind in analytic.KINDS if kind in text}
    assert named == {kind for kind, family in analytic.FAMILIES.items()
                     if name in family.reads}


@pytest.mark.parametrize("argv", [
    ["--preset", "mms", "--variants", "standard+static"],
    ["--preset", "gaussian-pulse", "--N", "7"],
])
def test_unrunnable_study_fails_before_the_reference(tmp_path, monkeypatch, argv):
    # mms runs standard+moving only, and N must be even: exit 2, no output,
    # no oracle work
    calls = []
    monkeypatch.setattr(study, "reference_solution", lambda *a, **kw: calls.append(a))
    out = tmp_path / "out"
    rc = main(["converge", *argv, "--sweep", "order", "--values", "2,3",
               "--out-dir", str(out)])
    assert rc == 2
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("sweep", ["cells", "order"])
def test_empty_sweep_fails_before_the_reference(tmp_path, monkeypatch, capsys, sweep):
    # "--values ," parses to no values: exit 2, no output, no oracle work
    calls = []
    monkeypatch.setattr(study, "reference_solution", lambda *a, **kw: calls.append(a))
    out = tmp_path / "out"
    rc = main(["converge", "--preset", "gaussian-pulse", "--sweep", sweep,
               "--values", ",", "--out-dir", str(out)])
    assert rc == 2
    assert "at least one value" in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_duplicate_sweep_values_fail_before_the_reference(tmp_path, monkeypatch, capsys):
    # a repeated value would solve its point twice and weigh it double in
    # the fit: exit 2, no output, no oracle work
    calls = []
    monkeypatch.setattr(study, "reference_solution", lambda *a, **kw: calls.append(a))
    out = tmp_path / "out"
    rc = main(["converge", "--preset", "gaussian-pulse", "--sweep", "order",
               "--values", "2,2,3", "--out-dir", str(out)])
    assert rc == 2
    assert "must be distinct" in capsys.readouterr().err
    assert calls == [] and not out.exists()


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip()

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_three_subcommands(self, capsys):
        # converge is the one sweep command: no timed copy of it
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--preset", "mms"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err
        assert "{solve,converge,scalecheck}" in build_parser().format_usage()

    def test_converge_has_no_repeats_flag(self, tmp_path, capsys):
        # one solve per sweep point: the timing knob went with bench
        with pytest.raises(SystemExit) as exc:
            main(["converge", "--preset", "mms", "--repeats", "1",
                  "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --repeats 1" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())
