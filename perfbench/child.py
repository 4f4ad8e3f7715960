"""One fresh benchmark process.

    python3 child.py setup <workload>
    python3 child.py exec <workload> <exec_dir> [<trace.json> <run_id>]

``setup`` times importing snmesh (numpy and scipy come with it) and building
the TransportSystem that the command's settings describe, with its initial
projection.  ``exec`` runs the workload's command through ``snmesh.cli.main``
with its oracle cache and output directory under ``exec_dir``, and times it
after import, between two passes of the calibration kernel
(``calibrate.py``); given a trace path it runs traced and writes the spans
there.  Both print one JSON line last.  BLAS is pinned
to one thread before numpy loads.
"""

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from workloads import WORKLOADS  # noqa: E402

COMMITTED_CACHE = Path(__file__).resolve().parent.parent / ".snmesh_cache"


def _versions():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
    }


def setup(workload):
    from snmesh.cli import build_parser, gather_settings
    from snmesh.dgcore import TransportSystem
    from snmesh.presets import config_from_settings

    settings = gather_settings(build_parser().parse_args(list(workload.argv)))
    system = TransportSystem(config_from_settings(settings))
    system.project_initial_condition()
    return {"setup_s": time.perf_counter() - _STARTED}


def _traced_main(run_id):
    from tracing import OracleWatch, Tracer, install

    tracer = Tracer(run_id)
    watch = OracleWatch(os.environ["SNMESH_CACHE_DIR"])
    sys.addaudithook(watch.hook)
    return install(tracer), tracer, watch


def execute(workload, exec_dir, trace_path=None, run_id=None):
    """Runs the command with ``exec_dir/cache`` as its oracle cache and
    ``exec_dir/out`` as its output directory."""
    import calibrate
    import snmesh.cli

    cache_dir = Path(exec_dir) / "cache"
    if workload.cache == "warm":
        shutil.copytree(COMMITTED_CACHE, cache_dir)
    else:
        cache_dir.mkdir(parents=True)
    os.environ["SNMESH_CACHE_DIR"] = str(cache_dir)
    argv = list(workload.argv) + ["--out-dir", str(Path(exec_dir) / "out")]
    main, tracer, watch = snmesh.cli.main, None, None
    if trace_path:
        main, tracer, watch = _traced_main(run_id)
    calibrate.kernel_seconds(100)  # first-call costs stay out of the figures
    cal_before = calibrate.kernel_seconds()
    start = time.perf_counter()
    rc = main(argv)
    wall = time.perf_counter() - start
    cal_after = calibrate.kernel_seconds()
    if tracer is not None:
        tracer.write(trace_path, {"workload": workload.name, "oracle": watch.summary()})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    speed = calibrate.REFERENCE_S / ((cal_before + cal_after) / 2)
    return {"rc": rc, "wall_s": wall, "wall_norm_s": wall * speed,
            "cal_s": [cal_before, cal_after], "peak_rss_mb": peak_rss_mb}


def main(argv):
    mode, workload = argv[0], WORKLOADS[argv[1]]
    if mode == "setup":
        result = setup(workload)
    elif mode == "exec":
        result = execute(workload, *argv[2:])
    else:
        raise SystemExit("unknown mode %r" % mode)
    result["versions"] = _versions()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
