"""Named problem presets with study-scale defaults.

Each preset fixes the physical problem (kind, widths, source duration,
scattering ratio) and the resolutions used by the convergence studies.
Command-line flags can override any field.
"""

from .analytic import SourceSpec
from .dgcore import RunConfig

# Per-preset defaults.  "angles" is the quadrature size the studies use;
# plane pulses need a much larger one because the uncollided wavefront
# leaves a slowly converging angular remainder.
PRESETS = {
    "mms": dict(
        kind="mms", c=1.0, x0=0.1, sigma=0.0, t0=0.0,
        angles=32, source_mode="standard", mesh_mode="moving",
    ),
    "plane-pulse": dict(
        kind="plane-pulse", c=1.0, x0=0.5, sigma=0.0, t0=0.0,
        angles=256, source_mode="uncollided", mesh_mode="moving",
    ),
    "square-pulse": dict(
        kind="square-pulse", c=1.0, x0=0.5, sigma=0.0, t0=0.0,
        angles=64, source_mode="uncollided", mesh_mode="moving",
    ),
    "square-source": dict(
        kind="square-source", c=1.0, x0=0.5, sigma=0.0, t0=5.0,
        angles=64, source_mode="uncollided", mesh_mode="moving",
    ),
    "gaussian-pulse": dict(
        kind="gaussian-pulse", c=1.0, x0=0.0, sigma=0.5, t0=0.0,
        angles=64, source_mode="uncollided", mesh_mode="moving",
    ),
    "gaussian-source": dict(
        kind="gaussian-source", c=1.0, x0=0.0, sigma=0.5, t0=5.0,
        angles=64, source_mode="uncollided", mesh_mode="moving",
    ),
}

DEFAULT_ORDER = 6
DEFAULT_CELLS = 8
DEFAULT_T_FINAL = 1.0


def preset_names():
    return tuple(PRESETS)


def preset_settings(name: str) -> dict:
    """Full settings dict for a preset, including resolution defaults."""
    if name not in PRESETS:
        raise KeyError(
            "unknown preset %r (choose from %s)" % (name, ", ".join(PRESETS))
        )
    settings = dict(PRESETS[name])
    settings.setdefault("order", DEFAULT_ORDER)
    settings.setdefault("cells", DEFAULT_CELLS)
    settings.setdefault("t_final", DEFAULT_T_FINAL)
    settings.setdefault("amplitude", 1.0)
    return settings


def spec_from_settings(settings: dict) -> SourceSpec:
    return SourceSpec(
        kind=settings["kind"],
        c=float(settings.get("c", 1.0)),
        x0=float(settings.get("x0", 0.0)),
        sigma=float(settings.get("sigma", 0.0)),
        t0=float(settings.get("t0", 0.0)),
        amplitude=float(settings.get("amplitude", 1.0)),
    )


def config_from_settings(settings: dict) -> RunConfig:
    return RunConfig(
        spec=spec_from_settings(settings),
        n_angles=int(settings["angles"]),
        order=int(settings["order"]),
        n_cells=int(settings["cells"]),
        mesh_mode=settings["mesh_mode"],
        source_mode=settings["source_mode"],
        t_final=float(settings["t_final"]),
    )
