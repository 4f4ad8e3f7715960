"""Correctness and isolation checks for one workload execution.

Outputs are compared with the seed's CSVs stored under ``reference/``.
Solver values may differ by a tolerance tied to the integrator tolerance the
commands run at (rtol 5e-13, atol 1e-12), widened by ``TOL_FACTOR`` for error
growth over a solve; every value must be finite.  Fit columns are log-space
summaries of the RMSEs and get the relative ``FIT_RTOL``.  Freshly built
oracles are matched to the committed ones by the config fields in their
header, not by file name.  Each check returns a list of problems, empty when
the output passes.
"""

import csv
import hashlib
import json
import math
import os
from pathlib import Path

SOLVER_RTOL = 5e-13
SOLVER_ATOL = 1e-12
TOL_FACTOR = 1e3
FIT_RTOL = 1e-3
ORACLE_PREFIX = "# snmesh-oracle "
# Oracle header fields that are results of the solve, not its config.
ORACLE_RESULT_FIELDS = ("fingerprint", "steps_accepted", "steps_rejected")


def _close(value, ref):
    return abs(value - ref) <= TOL_FACTOR * (SOLVER_ATOL + SOLVER_RTOL * abs(ref))


def _compare_rows(label, header, rows, ref_rows, exact, fits=()):
    problems = []
    if len(rows) != len(ref_rows):
        return [f"{label}: {len(rows)} rows, reference has {len(ref_rows)}"]
    for n, (row, ref) in enumerate(zip(rows, ref_rows), 2):
        if len(row) != len(header):
            problems.append(f"{label}:{n}: {len(row)} fields, expected {len(header)}")
            continue
        for col, value, want in zip(header, row, ref):
            if col in exact:
                if value != want:
                    problems.append(f"{label}:{n}: {col} {value!r} != {want!r}")
                continue
            v, r = float(value), float(want)
            if not math.isfinite(v):
                problems.append(f"{label}:{n}: {col} is not finite ({value})")
            elif col in fits:
                if abs(v - r) > FIT_RTOL * abs(r):
                    problems.append(f"{label}:{n}: {col} {v!r} vs {r!r}")
            elif not _close(v, r):
                problems.append(f"{label}:{n}: {col} {v!r} vs {r!r}")
    return problems


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def compare_output(out_csv, ref_csv):
    """A solution.csv or convergence.csv against the stored seed output."""
    if not Path(out_csv).is_file():
        return [f"missing output {Path(out_csv).name}"]
    header, rows = _read_csv(out_csv)
    ref_header, ref_rows = _read_csv(ref_csv)
    if header != ref_header:
        return [f"header {header} != {ref_header}"]
    if header[0] == "x":
        return _compare_rows(Path(out_csv).name, header, rows, ref_rows, exact=("x",))
    return _compare_rows(
        Path(out_csv).name, header, rows, ref_rows,
        exact=("variant", "sweep", "value"), fits=("fit_A_or_c1", "fit_C"),
    )


def _read_oracle(path):
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first.startswith(ORACLE_PREFIX):
            raise ValueError(f"{path.name}: not an oracle file")
        meta = json.loads(first[len(ORACLE_PREFIX):])
        header, *rows = list(csv.reader(fh))
    config = {k: v for k, v in meta.items() if k not in ORACLE_RESULT_FIELDS}
    return json.dumps(config, sort_keys=True), header, rows


def compare_oracles(new_paths, committed_dir):
    """Each freshly built oracle against the committed one of the same config."""
    committed = {}
    for path in sorted(Path(committed_dir).glob("oracle-*.csv")):
        config, header, rows = _read_oracle(path)
        committed.setdefault(config, []).append((header, rows))
    if not new_paths:
        return ["the cold run built no oracle"]
    problems = []
    for path in new_paths:
        config, header, rows = _read_oracle(Path(path))
        matches = committed.get(config, [])
        if len(matches) != 1:
            problems.append(f"{Path(path).name}: {len(matches)} committed oracles "
                            f"with config {config}")
            continue
        ref_header, ref_rows = matches[0]
        if header != ref_header:
            problems.append(f"{Path(path).name}: header {header} != {ref_header}")
            continue
        problems += _compare_rows(Path(path).name, header, rows, ref_rows, exact=("x",))
    return problems


# Directories that building, testing and running the benchmark write to.
SNAPSHOT_SKIP = {".git", ".perfbench", ".bench_build", "__pycache__", ".pytest_cache"}


def snapshot(root):
    """sha256 of every file under root outside the skipped directories."""
    digests = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in SNAPSHOT_SKIP)
        for name in filenames:
            path = Path(dirpath, name)
            digests[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return digests


def compare_snapshots(before, after):
    changed = sorted(
        p for p in set(before) | set(after) if before.get(p) != after.get(p)
    )
    return [f"the run changed {p}" for p in changed]
