"""snmesh benchmark: one workload, fresh processes, end-to-end or traced.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run executes the workload's command, each time in a
fresh process, with a set-up process before every third execution, until
``--seconds`` have been spent; successive processes go to successive CPUs.
It reports the end-to-end metrics as medians over the run.  With
``--trace 1`` it makes one plain execution and one traced execution, writes
the spans to ``.perfbench/traces/`` and reports the per-layer metrics.
Every execution is checked for correctness and for leaving the checkout
unchanged.  Inputs are fixed presets, so the seed only labels the run.  The
last line of standard output is the result JSON.
"""

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import check
import tracing
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench"
COMMITTED_CACHE = ROOT / ".snmesh_cache"
# executions per set-up process
SETUP_EVERY = 3
CHILD_TIMEOUT_S = 45


def machine_info():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "loadavg": list(os.getloadavg()),
    }


class Runner:
    """Starts the child processes of one run, one at a time."""

    def __init__(self, workload, tmp):
        self.workload = workload
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.count = 0
        self.versions = None

    def _env(self):
        env = dict(os.environ)
        paths = [str(ROOT / "src"), env.get("PYTHONPATH")]
        env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        env["TMPDIR"] = str(self.tmp)
        env["SNMESH_CACHE_DIR"] = str(self.tmp)
        env["PYTHONHASHSEED"] = "0"
        return env

    def child(self, args, cpu):
        """Run child.py on one CPU; returns its result dict, or None when it
        failed."""
        self.attempted += 1
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "child.py"), *args],
                cwd=self.tmp, env=self._env(), capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S, preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
            )
        except subprocess.TimeoutExpired:
            self.fail([f"{args[0]} ran past {CHILD_TIMEOUT_S} s and was stopped"])
            return None
        result = None
        if proc.returncode == 0 and proc.stdout.strip():
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.versions = result["versions"]
        if result is None:
            self.fail([f"{args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"])
        return result

    def fail(self, problems):
        self.failed += 1
        self.problems += problems

    def setup(self, cpu):
        return self.child(["setup", self.workload.name], cpu)

    def execute(self, cpu, trace_path=None, run_id=None):
        """One execution in a fresh process, checked; returns its result, or
        None when it failed."""
        self.count += 1
        exec_dir = self.tmp / f"exec-{self.count}"
        before = check.snapshot(ROOT)
        args = ["exec", self.workload.name, str(exec_dir)]
        if trace_path:
            args += [str(trace_path), run_id]
        result = self.child(args, cpu)
        problems = check.compare_snapshots(before, check.snapshot(ROOT))
        if result is not None:
            problems += self.check_output(result["rc"], exec_dir)
        if problems and result is not None:
            self.fail(problems)
            result = None
        elif problems:  # the failed child is counted already
            self.problems += problems
        shutil.rmtree(exec_dir, ignore_errors=True)
        return result

    def check_output(self, rc, exec_dir):
        if rc != 0:
            return [f"the command exited {rc}"]
        problems = check.compare_output(
            exec_dir / "out" / self.workload.output,
            BENCH_DIR / "reference" / self.workload.name / self.workload.output,
        )
        if self.workload.cache == "cold":
            built = sorted((exec_dir / "cache").glob("oracle-*.csv"))
            problems += check.compare_oracles(built, COMMITTED_CACHE)
        return problems


def by_cpu_median(samples):
    """Mean over CPUs of the median of each CPU's samples.  The vCPUs of a
    shared host run at different speeds for minutes at a time, so each run
    spreads its processes evenly over them and weighs each CPU equally."""
    per_cpu = {}
    for cpu, value in samples:
        per_cpu.setdefault(cpu, []).append(value)
    return statistics.mean(statistics.median(v) for v in per_cpu.values())


def timed_run(runner, seconds):
    cpus = sorted(os.sched_getaffinity(0))
    runner.setup(cpus[0])  # warms the file cache; not counted
    # Executions and set-ups alternate over the CPUs until the time is spent,
    # so that the medians span the run rather than one moment or one CPU.
    setups, runs = [], []
    start = time.perf_counter()
    for i in itertools.count():
        if i % SETUP_EVERY == 0:
            cpu = cpus[len(setups) % len(cpus)]
            setups.append((cpu, runner.setup(cpu)))
        cpu = cpus[i % len(cpus)]
        result = runner.execute(cpu)
        if result is not None:
            runs.append(dict(result, cpu=cpu))
        if time.perf_counter() - start >= seconds:
            break
    setups = [(cpu, s["setup_s"]) for cpu, s in setups if s is not None]
    info = {
        "setup_samples": [[cpu, round(s, 4)] for cpu, s in setups],
        "wall_samples": [[r["cpu"], round(r["wall_s"], 4)] for r in runs],
        "wall_norm_samples": [[r["cpu"], round(r["wall_norm_s"], 4)] for r in runs],
        "wall_s": by_cpu_median((r["cpu"], r["wall_s"]) for r in runs) if runs else None,
        "fail_frac": runner.failed / runner.attempted,
    }
    if not setups or not runs:
        return {}, info
    metrics = {
        "wall_norm_s": (by_cpu_median((r["cpu"], r["wall_norm_s"]) for r in runs), "s"),
        "setup_s": (by_cpu_median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        "pass_frac": (1.0 - runner.failed / runner.attempted, "frac"),
    }
    return metrics, info


def traced_run(runner, seed):
    cpu = min(os.sched_getaffinity(0))
    plain = runner.execute(cpu)
    trace_dir = WORK_DIR / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    run_id = f"{runner.workload.name}-seed{seed}"
    trace_path = trace_dir / f"{run_id}.json"
    traced = runner.execute(cpu, trace_path, run_id)
    if plain is None or traced is None:
        return {}, {}
    doc = json.loads(trace_path.read_text())
    problems = tracing.check_root(doc)
    if problems:
        runner.fail(problems)
        return {}, {}
    values = tracing.layer_metrics(doc)
    values["trace.overhead_frac"] = (
        (traced["wall_norm_s"] - plain["wall_norm_s"]) / plain["wall_norm_s"]
    )
    units = dict(tracing.PER_LAYER)
    metrics = {name: (values[name], units[name]) for name, _ in tracing.PER_LAYER}
    info = {"trace": str(trace_path.relative_to(ROOT)), "spans": len(doc["spans"]),
            "untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"]}
    return metrics, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A stop signal unwinds through subprocess.run, which kills and reaps the
    # running child, and through the finally below, which removes the scratch.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    missing = [p for p in (ROOT / "src" / "snmesh" / "cli.py", COMMITTED_CACHE)
               if not p.exists()]
    if missing:
        print("benchmark needs %s in the checkout" % ", ".join(map(str, missing)),
              file=sys.stderr)
        return 2

    WORK_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        runner = Runner(WORKLOADS[args.workload], tmp)
        if args.trace:
            metrics, info = traced_run(runner, args.seed)
        else:
            metrics, info = timed_run(runner, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    correct = runner.failed == 0 and bool(metrics)
    info.update(machine_info(), versions=runner.versions, workload=args.workload,
                seed=args.seed, attempted=runner.attempted, failed=runner.failed)
    print(json.dumps(info))
    for problem in runner.problems[:20]:
        print("problem: " + problem)
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
