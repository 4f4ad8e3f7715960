"""Command-line driver.

Subcommands: ``solve`` (one run, solution CSV), ``converge`` (resolution
sweeps over the method variants, each point timed in the manifest) and
``scalecheck`` (scattering-ratio scaling identity).  Every command writes its
CSV and a JSON manifest next to it through one writer.
Parameter precedence: preset, then config file, then command-line flags.
"""

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, analytic
from .analysis import OracleGateError, analysis_grid
from .dgcore import MESH_MODES, SOURCE_MODES, TransportSystem
from .integrate import IntegrationError
from .presets import DEFAULTS, config_from_settings, preset_names, preset_settings
from .study import VARIANTS, run_convergence, run_scalecheck

# The problem parameters, one row each: config-file key, flag spellings,
# settings key, type, and the flag's choices or help text.
_PARAMETERS = (
    ("kind", ("--kind",), "kind", str, analytic.KINDS),
    ("c", ("--c",), "c", float, "scattering ratio"),
    ("x0", ("--x0",), "x0", float, "half-width of square or plane sources"),
    ("sigma", ("--sigma",), "sigma", float, "Gaussian width"),
    ("t0", ("--t0",), "t0", float, "source switch-off time"),
    ("N", ("--N",), "angles", int, "number of discrete directions"),
    ("M", ("--M",), "order", int, "basis order per cell (M+1 functions)"),
    ("K", ("--K",), "cells", int, "number of mesh cells"),
    ("mesh", ("--mesh",), "mesh_mode", str, MESH_MODES),
    ("source_mode", ("--source-mode",), "source_mode", str, SOURCE_MODES),
    ("t_final", ("--t", "--t-final"), "t_final", float, "final time"),
    ("amplitude", ("--amplitude",), "amplitude", float, "source strength factor"),
)
_KEY_MAP = {name: key for name, _, key, _, _ in _PARAMETERS}
_TYPES = {key: type_ for _, _, key, type_, _ in _PARAMETERS}


def _format_field(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def write_csv(path, header, rows):
    path = Path(path)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_field(v) for v in row) + "\n")
    return path


def write_manifest(path, payload):
    path = Path(path)
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def parse_config_file(path):
    """Flat ``key = value`` lines; '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError("%s:%d: expected 'key = value'" % (path, lineno))
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEY_MAP:
            raise ValueError("%s:%d: unknown key %r" % (path, lineno, key))
        out[_KEY_MAP[key]] = value
    return out


def gather_settings(args):
    """Merge preset (or the defaults), config file, and flags (later
    sources win)."""
    settings = preset_settings(args.preset) if args.preset else dict(DEFAULTS)
    if args.config:
        settings.update(parse_config_file(args.config))
    for key in _TYPES:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    settings = {key: _TYPES[key](value) for key, value in settings.items()}
    if "kind" not in settings:
        raise ValueError("no problem given: use --preset or --kind")
    return settings


def _uncollided_column(spec, grid, t):
    if spec.kind == "mms":
        return np.zeros_like(grid)
    return analytic.uncollided_scalar_flux(spec, grid, t)


def _stats_payload(stats):
    return {
        "steps_accepted": stats.steps_accepted,
        "steps_rejected": stats.steps_rejected,
        "rhs_evaluations": stats.n_rhs,
    }


def _write_outputs(args, settings, csv_name, header, rows, **fields):
    """Write ``csv_name`` and ``manifest.json`` into ``--out-dir``.  The
    manifest holds the fields every command shares plus the command's own."""
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = write_csv(out_dir / csv_name, header, rows)
    manifest = write_manifest(out_dir / "manifest.json", {
        "artifact": "snmesh",
        "version": __version__,
        "command": args.command,
        "config": settings,
        "outputs": {csv_name.replace(".", "_"): csv_name},
        **fields,
    })
    print("wrote %s and %s" % (csv_path, manifest))


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_solve(args):
    settings = gather_settings(args)
    config = config_from_settings(settings)
    system = TransportSystem(config)
    result = system.solve()
    grid = analysis_grid(config.spec, config.t_final)
    phi = system.scalar_flux(result.state, grid)
    phi_u = _uncollided_column(config.spec, grid, result.state.t)
    _write_outputs(
        args, settings, "solution.csv", ("x", "phi", "phi_u", "phi_collided"),
        zip(grid, phi, phi_u, phi - phi_u),
        variant=config.variant,
        wall_seconds=result.wall_seconds,
        integrator=_stats_payload(result.stats),
        particles=system.phi_integral(result.state),
    )
    print("  %d rows, %.3fs solve" % (grid.size, result.wall_seconds))
    return 0


def cmd_converge(args):
    settings = gather_settings(args)
    variants = tuple(args.variants.split(",")) if args.variants else VARIANTS
    if args.values is not None:
        values = tuple(args.values)
    else:
        values = (2, 4, 8, 16) if args.sweep == "cells" else (2, 4, 6, 8)
    fixed = settings["order"] if args.sweep == "cells" else settings["cells"]
    study = run_convergence(
        config_from_settings(settings).spec,
        sweep=args.sweep,
        values=values,
        fixed=fixed,
        n_angles=settings["angles"],
        t_final=settings["t_final"],
        variants=variants,
    )
    rows = []
    per_variant = {}
    for variant, record in study.records.items():
        fit = record.fit
        for point in record.points:
            rows.append((
                variant,
                args.sweep,
                point.value,
                point.rmse,
                fit.rate if fit else float("nan"),
                fit.intercept if fit else float("nan"),
            ))
        per_variant[variant] = {
            "fit": asdict(fit) if fit else None,
            "skipped_values": list(record.skipped),
            "improvement_over_baseline": study.improvement_over_baseline(
                variant
            ),
            "points": [
                {"value": p.value, "rmse": p.rmse, "wall_seconds": p.wall_seconds,
                 **_stats_payload(p.stats)}
                for p in record.points
            ],
        }
    _write_outputs(
        args, settings, "convergence.csv",
        ("variant", "sweep", "value", "rmse", "fit_A_or_c1", "fit_C"),
        rows,
        reference={
            k: v for k, v in asdict(study.reference).items() if k != "phi"
        },
        variants=per_variant,
        sweep=args.sweep,
        values=list(values),
        fixed=fixed,
    )
    for variant, record in study.records.items():
        if record.fit:
            print("  %-20s rate %.3f  intercept %.3e" % (
                variant, record.fit.rate, record.fit.intercept))
    return 0


def cmd_scalecheck(args):
    settings = gather_settings(args)
    variant = args.variant or "uncollided+moving"
    report = run_scalecheck(
        config_from_settings(settings).spec,
        t_benchmark=settings["t_final"],
        order=settings["order"],
        n_cells=settings["cells"],
        n_angles=settings["angles"],
        variant=variant,
    )
    _write_outputs(
        args, settings, "scalecheck.csv",
        ("x", "phi_direct", "phi_scaled", "abs_diff"),
        zip(
            report.grid,
            report.phi_direct,
            report.phi_scaled,
            np.abs(report.phi_direct - report.phi_scaled),
        ),
        variant=variant,
        t_benchmark=settings["t_final"],
        t_scaled=report.t_scaled,
        max_abs_diff=report.max_abs_diff,
        integrator={k: _stats_payload(v) for k, v in report.stats.items()},
    )
    print("max abs difference on the analysis grid: %.6e" % report.max_abs_diff)
    return 0


# ---------------------------------------------------------------------------
# Argument plumbing.


def _add_parameter_flags(parser):
    parser.add_argument("--preset", choices=preset_names(),
                        help="named problem with study defaults")
    parser.add_argument("--config", type=Path,
                        help="'key = value' parameter file")
    parser.add_argument("--out-dir", type=Path, default=Path("snmesh-out"),
                        help="directory for CSV and manifest output")
    for _, flags, key, type_, extra in _PARAMETERS:
        listed = isinstance(extra, tuple)
        parser.add_argument(*flags, type=type_, dest=key,
                            **{"choices" if listed else "help": extra})


def build_parser():
    parser = argparse.ArgumentParser(
        prog="snmesh",
        description="Discrete-ordinates transport on a moving DG mesh",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one configuration")
    _add_parameter_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_conv = sub.add_parser("converge", help="resolution sweep per variant")
    _add_parameter_flags(p_conv)
    p_conv.add_argument("--sweep", choices=("cells", "order"),
                        default="cells", help="which resolution to sweep")
    p_conv.add_argument(
        "--values",
        type=lambda s: [int(tok) for tok in s.split(",") if tok],
        help="comma-separated sweep values",
    )
    p_conv.add_argument("--variants",
                        help="comma-separated subset of %s" % (",".join(VARIANTS)))
    p_conv.set_defaults(func=cmd_converge)

    p_scale = sub.add_parser(
        "scalecheck", help="scattering-ratio scaling identity check"
    )
    _add_parameter_flags(p_scale)
    p_scale.add_argument("--variant", help="method variant, default uncollided+moving")
    p_scale.set_defaults(func=cmd_scalecheck)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OracleGateError as exc:
        print("oracle gate failure: %s" % exc, file=sys.stderr)
        return 1
    except IntegrationError as exc:
        print("integration failure: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
