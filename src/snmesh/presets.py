"""Named problem presets and the one table of run defaults.

``DEFAULTS`` holds every parameter but the problem kind, as a run without a
preset gets it.  Every preset shares the convergence studies' resolution
and states only what differs from those two.  Command-line flags can
override any field.
"""

from .analytic import SourceSpec
from .dgcore import RunConfig

DEFAULTS = dict(
    c=1.0, x0=0.0, sigma=0.0, t0=0.0, amplitude=1.0,
    angles=8, order=4, cells=4,
    mesh_mode="moving", source_mode="uncollided", t_final=1.0,
)

_STUDY = dict(angles=64, order=6, cells=8)

# "angles" is the quadrature size the studies use; plane pulses need a much
# larger one because the uncollided wavefront leaves a slowly converging
# angular remainder.
PRESETS = {
    "mms": dict(kind="mms", x0=0.1, angles=32, source_mode="standard"),
    "plane-pulse": dict(kind="plane-pulse", x0=0.5, angles=256),
    "square-pulse": dict(kind="square-pulse", x0=0.5),
    "square-source": dict(kind="square-source", x0=0.5, t0=5.0),
    "gaussian-pulse": dict(kind="gaussian-pulse", sigma=0.5),
    "gaussian-source": dict(kind="gaussian-source", sigma=0.5, t0=5.0),
}


def preset_names():
    return tuple(PRESETS)


def preset_settings(name: str) -> dict:
    """Full settings dict for a preset: the defaults, the study resolution,
    then the preset's own entries."""
    if name not in PRESETS:
        raise KeyError(
            "unknown preset %r (choose from %s)" % (name, ", ".join(PRESETS))
        )
    return {**DEFAULTS, **_STUDY, **PRESETS[name]}


def config_from_settings(settings: dict) -> RunConfig:
    """The run a settings dict with every key filled in describes."""
    spec = SourceSpec(
        kind=settings["kind"],
        c=float(settings["c"]),
        x0=float(settings["x0"]),
        sigma=float(settings["sigma"]),
        t0=float(settings["t0"]),
        amplitude=float(settings["amplitude"]),
    )
    return RunConfig(
        spec=spec,
        n_angles=int(settings["angles"]),
        order=int(settings["order"]),
        n_cells=int(settings["cells"]),
        mesh_mode=settings["mesh_mode"],
        source_mode=settings["source_mode"],
        t_final=float(settings["t_final"]),
    )
