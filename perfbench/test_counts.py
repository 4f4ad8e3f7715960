"""The benchmark's own checks: deterministic counts and its metric list.

    python3 -m pytest perfbench/test_counts.py

Solves run in fresh processes because OpenBLAS reads its thread count once,
at load.  The thread count changes the order of floating-point sums, and
with it the step sizes the controller picks, so every count here is stated
at a fixed thread count: one thread is what the benchmark runs at, and two
threads (the default on the 2-vCPU machine the ROADMAP baselines were
measured on) reproduces those baselines.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _env(tmp_path, threads):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), SNMESH_CACHE_DIR=str(tmp_path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def _solve_stats(tmp_path, threads, preset, **flags):
    code = (
        "from snmesh.dgcore import TransportSystem\n"
        "from snmesh.presets import config_from_settings, preset_settings\n"
        f"s = preset_settings({preset!r}); s.update({flags!r})\n"
        "r = TransportSystem(config_from_settings(s)).solve().stats\n"
        "print(r.steps_accepted, r.steps_rejected, r.n_rhs)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_env(tmp_path, threads),
                         cwd=tmp_path, capture_output=True, text=True, check=True)
    return tuple(int(v) for v in out.stdout.split())


# (accepted steps, rejected steps, RHS calls, largest state) of each workload
# at one BLAS thread, summed over every solve the command makes
WORKLOAD_COUNTS = {
    "square-source-study": (422, 20, 5310, 3072),
    "gaussian-pulse-cold-oracle": (375, 60, 5266, 11264),
    "gaussian-source-solve": (26, 10, 434, 9216),
}


@pytest.mark.parametrize("name", sorted(WORKLOAD_COUNTS))
def test_workload_counts_from_the_trace(tmp_path, name):
    trace = tmp_path / "trace.json"
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), "exec", name,
         str(tmp_path / "run"), str(trace), "test"],
        env=_env(tmp_path, 1), cwd=tmp_path, capture_output=True, check=True,
    )
    doc = json.loads(trace.read_text())
    assert tracing.check_root(doc) == []
    m = tracing.layer_metrics(doc)
    assert (m["integrate.steps_accepted"], m["integrate.steps_rejected"],
            m["integrate.rhs_calls"], m["integrate.state_size"]) == WORKLOAD_COUNTS[name]
    # the cold workload builds three oracles; the others build none
    assert m["analysis.oracle.misses"] == (3 if WORKLOADS[name].cache == "cold" else 0)


def test_plane_pulse_counts_at_one_thread(tmp_path):
    assert _solve_stats(tmp_path, 1, "plane-pulse", cells=16) == (1040, 82, 13465)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS caps threads at the CPU count")
def test_plane_pulse_roadmap_baseline_at_two_threads(tmp_path):
    assert _solve_stats(tmp_path, 2, "plane-pulse", cells=16) == (1039, 81, 13441)


def test_square_source_uncollided_moving_k8_rhs_calls(tmp_path):
    # the uncollided+moving K=8 point of square-source-study
    assert _solve_stats(tmp_path, 1, "square-source", cells=8)[2] == 3457


def test_benchmark_json_lists_the_traced_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert listed == list(tracing.PER_LAYER)
