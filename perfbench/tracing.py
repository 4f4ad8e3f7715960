"""Spans around the calls into snmesh's layers, and the per-layer metrics.

The tracer wraps module and class attributes under the names their callers
look them up by, so no code inside ``snmesh`` changes.  Spans stay in memory
as ``[name, start, end, parent, run_id, attrs]`` rows (times in seconds from
the tracer's origin, ``parent`` an index or -1) and are written out once,
when the run ends.  A span's self time is its duration minus the durations
of its child spans.

``layer_metrics`` turns a written trace into the ``per_layer`` metrics named
in ``BENCHMARK.json``; ``PER_LAYER`` lists them with their units.
"""

import functools
import json
import os
import time
from pathlib import Path

ROOT_SPAN = "cli.main"
# the source kinds the workloads run
PHI_U_KINDS = ("square-source", "gaussian-pulse", "gaussian-source")

PER_LAYER = (
    ("integrate.steps_accepted", "count"),
    ("integrate.steps_rejected", "count"),
    ("integrate.rhs_calls", "count"),
    ("integrate.state_size", "count"),
    ("integrate.overhead_s", "s"),
    ("dgcore.rhs.self_s", "s"),
    ("dgcore.rhs.us_per_call", "us"),
    ("dgcore.source_moments.s", "s"),
    ("dgcore.source_moments.share", "frac"),
    ("dgcore.projection.self_s", "s"),
    ("dgcore.init_s", "s"),
    *(
        (f"analytic.phi_u.{kind}.{field}", unit)
        for kind in PHI_U_KINDS
        for field, unit in (
            ("calls", "count"), ("points", "count"), ("s", "s"), ("ns_per_point", "ns")
        )
    ),
    ("analytic.volumetric_source.s", "s"),
    ("mesh.edges_at.calls", "count"),
    ("mesh.edges_at.s", "s"),
    ("basis.legendre_table.calls", "count"),
    ("basis.legendre_table.s", "s"),
    ("quadrature.s", "s"),
    ("analysis.reference.s", "s"),
    ("analysis.oracle.hits", "count"),
    ("analysis.oracle.misses", "count"),
    ("analysis.oracle.build_s", "s"),
    ("analysis.oracle.io_s", "s"),
    ("analysis.oracle.bytes_read", "B"),
    ("analysis.oracle.bytes_written", "B"),
    ("study.solves", "count"),
    ("study.overhead_s", "s"),
    ("cli.io_s", "s"),
    ("trace.overhead_frac", "frac"),
)


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._origin = time.perf_counter()

    def wrap(self, name, fn, describe=None):
        """``fn`` recorded as span ``name``; ``describe(args, result)``
        returns the span's attrs."""
        spans, stack, origin = self.spans, self._stack, self._origin
        run_id = self.run_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [name, 0.0, 0.0, stack[-1] if stack else -1, run_id, None]
            stack.append(len(spans))
            spans.append(row)
            row[1] = time.perf_counter() - origin
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = time.perf_counter() - origin
                stack.pop()
            if describe is not None:
                row[5] = describe(args, result)
            return result

        return traced

    def write(self, path, extra):
        # 0.1 us resolution keeps the file small and is far below span cost
        spans = [[s[0], round(s[1], 7), round(s[2], 7), *s[3:]] for s in self.spans]
        doc = dict(extra, run_id=self.run_id, spans=spans)
        Path(path).write_text(json.dumps(doc, separators=(",", ":")))


def _phi_u_attrs(args, result):
    return {"kind": args[0].kind, "points": int(getattr(result, "size", 1))}


def _integrate_attrs(args, result):
    stats = result[1]
    return {
        "accepted": stats.steps_accepted,
        "rejected": stats.steps_rejected,
        "rhs": stats.n_rhs,
        "size": int(args[1].size),
    }


def install(tracer):
    """Wrap snmesh's layer entry points; returns the traced ``cli.main``."""
    from snmesh import analytic, cli, dgcore, quadrature, study

    def patch(owner, attr, name, **kw):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), **kw))

    ts = dgcore.TransportSystem
    patch(ts, "__init__", "dgcore.init")
    patch(ts, "project_initial_condition", "dgcore.project_initial_condition")
    patch(ts, "solve", "dgcore.solve")
    patch(ts, "rhs_flat", "dgcore.rhs_flat")
    patch(ts, "source_moments", "dgcore.source_moments")
    patch(ts, "mesh_at", "mesh.edges_at")
    patch(ts, "boundary_values", "dgcore.boundary_values")
    project = ts.project_function
    ts.project_function = tracer.wrap(
        "dgcore.project_function",
        # the profile callable f gets its own span
        lambda self, ms, f, *rest: project(self, ms, tracer.wrap("dgcore.profile", f), *rest),
    )
    patch(ts, "scalar_flux", "dgcore.scalar_flux")
    patch(dgcore, "integrate", "integrate", describe=_integrate_attrs)
    patch(dgcore, "legendre_table", "basis.legendre_table")
    patch(dgcore, "gauss_lobatto", "quadrature.gauss_lobatto")
    patch(dgcore, "gauss_legendre", "quadrature.gauss_legendre")
    # analytic's panel kernel imports gauss_legendre from the module at call time
    patch(quadrature, "gauss_legendre", "quadrature.gauss_legendre")
    patch(analytic, "uncollided_scalar_flux", "analytic.phi_u", describe=_phi_u_attrs)
    patch(analytic, "volumetric_source", "analytic.volumetric_source")
    patch(study, "reference_solution", "analysis.reference_solution")
    patch(cli, "run_convergence", "study.run_convergence")
    patch(cli, "write_csv", "cli.write_csv")
    patch(cli, "write_manifest", "cli.write_manifest")
    return tracer.wrap(ROOT_SPAN, cli.main)


class OracleWatch:
    """Counts oracle-cache reads through the interpreter's ``open`` audit
    event, and lists the cache directory before and after the run."""

    def __init__(self, cache_dir):
        self.cache_dir = Path(cache_dir).resolve()
        self.before = self.listing()
        self.reads = []

    def listing(self):
        return {p.name: p.stat().st_size for p in self.cache_dir.glob("oracle-*.csv")}

    def hook(self, event, args):
        if event != "open" or not isinstance(args[0], (str, os.PathLike)):
            return
        path = Path(args[0])
        mode, flags = args[1], args[2]
        reading = ("r" in mode and "+" not in mode) if isinstance(mode, str) else (
            flags & os.O_ACCMODE == os.O_RDONLY
        )
        if reading and path.name.startswith("oracle-") and path.suffix == ".csv":
            path = path.resolve()
            if path.parent == self.cache_dir:
                self.reads.append([path.name, path.stat().st_size])

    def summary(self):
        return {"before": self.before, "after": self.listing(), "reads": self.reads}


# ---------------------------------------------------------------------------
# Metrics from a written trace.


def check_root(doc, tol=1e-6):
    """The root span's direct children and its self time account for its wall
    time: the children lie inside the root and do not overlap.  Returns a
    list of problems, empty when the trace is consistent."""
    spans = doc["spans"]
    roots = [i for i, s in enumerate(spans) if s[3] == -1]
    if len(roots) != 1 or spans[roots[0]][0] != ROOT_SPAN:
        return [f"expected one {ROOT_SPAN} root span, found {len(roots)}"]
    root = roots[0]
    _, r_start, r_end = spans[root][:3]
    children = sorted((s[1], s[2]) for s in spans if s[3] == root)
    problems = []
    last_end = r_start
    for start, end in children:
        if start < last_end - tol or end > r_end + tol:
            problems.append(f"child span [{start}, {end}] overlaps or leaves the root")
        last_end = max(last_end, end)
    covered = sum(end - start for start, end in children)
    self_s = (r_end - r_start) - covered
    if self_s < -tol:
        problems.append(f"root self time {self_s} is negative")
    return problems


def layer_metrics(doc):
    """Per-layer metrics (without trace.overhead_frac) from one trace."""
    spans = doc["spans"]
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    total, self_time, calls = {}, {}, {}
    for i, s in enumerate(spans):
        dur = s[2] - s[1]
        total[s[0]] = total.get(s[0], 0.0) + dur
        self_time[s[0]] = self_time.get(s[0], 0.0) + dur - child_time[i]
        calls[s[0]] = calls.get(s[0], 0) + 1

    def ancestors(i):
        names = set()
        while spans[i][3] >= 0:
            i = spans[i][3]
            names.add(spans[i][0])
        return names

    steps = [s[5] for s in spans if s[0] == "integrate"]
    rhs_s = total.get("dgcore.rhs_flat", 0.0)
    rhs_calls = sum(a["rhs"] for a in steps)
    m = {
        "integrate.steps_accepted": sum(a["accepted"] for a in steps),
        "integrate.steps_rejected": sum(a["rejected"] for a in steps),
        "integrate.rhs_calls": rhs_calls,
        "integrate.state_size": max((a["size"] for a in steps), default=0),
        "integrate.overhead_s": self_time.get("integrate", 0.0),
        "dgcore.rhs.self_s": self_time.get("dgcore.rhs_flat", 0.0),
        "dgcore.rhs.us_per_call": (
            1e6 * self_time.get("dgcore.rhs_flat", 0.0) / rhs_calls if rhs_calls else 0.0
        ),
        "dgcore.source_moments.s": total.get("dgcore.source_moments", 0.0),
        "dgcore.source_moments.share": (
            total.get("dgcore.source_moments", 0.0) / rhs_s if rhs_s else 0.0
        ),
        "dgcore.projection.self_s": self_time.get("dgcore.project_function", 0.0),
        "dgcore.init_s": (
            total.get("dgcore.init", 0.0) + total.get("dgcore.project_initial_condition", 0.0)
        ),
    }
    for kind in PHI_U_KINDS:
        rows = [s for s in spans if s[0] == "analytic.phi_u" and s[5]["kind"] == kind]
        seconds = sum(s[2] - s[1] for s in rows)
        points = sum(s[5]["points"] for s in rows)
        m[f"analytic.phi_u.{kind}.calls"] = len(rows)
        m[f"analytic.phi_u.{kind}.points"] = points
        m[f"analytic.phi_u.{kind}.s"] = seconds
        m[f"analytic.phi_u.{kind}.ns_per_point"] = 1e9 * seconds / points if points else 0.0
    oracle = doc["oracle"]
    new = [name for name in oracle["after"] if name not in oracle["before"]]
    m.update({
        "analytic.volumetric_source.s": total.get("analytic.volumetric_source", 0.0),
        "mesh.edges_at.calls": calls.get("mesh.edges_at", 0),
        "mesh.edges_at.s": total.get("mesh.edges_at", 0.0),
        "basis.legendre_table.calls": calls.get("basis.legendre_table", 0),
        "basis.legendre_table.s": total.get("basis.legendre_table", 0.0),
        "quadrature.s": (
            total.get("quadrature.gauss_lobatto", 0.0)
            + total.get("quadrature.gauss_legendre", 0.0)
        ),
        "analysis.reference.s": total.get("analysis.reference_solution", 0.0),
        "analysis.oracle.hits": len(oracle["reads"]),
        "analysis.oracle.misses": len(new),
        "analysis.oracle.build_s": (
            total.get("analysis.reference_solution", 0.0)
            - self_time.get("analysis.reference_solution", 0.0)
        ),
        "analysis.oracle.io_s": self_time.get("analysis.reference_solution", 0.0),
        "analysis.oracle.bytes_read": sum(size for _, size in oracle["reads"]),
        "analysis.oracle.bytes_written": sum(oracle["after"][name] for name in new),
        "study.solves": sum(
            1
            for i, s in enumerate(spans)
            if s[0] == "dgcore.solve"
            and "study.run_convergence" in ancestors(i)
            and "analysis.reference_solution" not in ancestors(i)
        ),
        "study.overhead_s": self_time.get("study.run_convergence", 0.0),
        "cli.io_s": total.get("cli.write_csv", 0.0) + total.get("cli.write_manifest", 0.0),
    })
    return m
