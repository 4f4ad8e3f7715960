"""Checks on the package source: no dead private names, no comparison
against a problem kind but the family table's lookup, and every name the
benchmark's tracer patches exists, and its source-layer names see the
solver's calls."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import snmesh

PACKAGE = Path(snmesh.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent


def _private_definitions(tree):
    """Module-level private names a module binds: functions, classes and
    assignment targets whose name starts with a single underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.extend(n.id for n in ast.walk(target)
                             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _references(tree):
    """Every name a module reads, as a bare name, an attribute or an import."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_private_module_name_is_read():
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*(_references(tree) for tree in trees.values()))
    dead = [f"{module}:{name}" for module, tree in trees.items()
            for name in _private_definitions(tree) if name not in used]
    assert dead == [], "module-level private names nothing reads: %s" % dead


def _is_kind(node):
    return (isinstance(node, ast.Name) and node.id == "kind") or (
        isinstance(node, ast.Attribute) and node.attr == "kind")


def _kind_tests(tree):
    """The source text of every ==, !=, in or not in comparison with a
    name or attribute called kind as an operand, and of every
    ``kind.startswith`` call."""
    ops = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(op, ops) and (_is_kind(a) or _is_kind(b))
                   for op, a, b in zip(node.ops, operands, operands[1:])):
                out.append(ast.unparse(node))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "startswith" and _is_kind(node.func.value)):
            out.append(ast.unparse(node))
    return out


def test_only_the_family_lookup_compares_against_kind():
    # each family's rules live in its analytic.FAMILIES record, so a test
    # of a kind's name would state one of them a second time
    found = [f"{p.name}: {text}" for p in sorted(PACKAGE.glob("*.py"))
             for text in _kind_tests(ast.parse(p.read_text(), str(p)))]
    assert found == ["analytic.py: self.kind not in FAMILIES"]


def test_benchmark_tracer_finds_every_name_it_patches():
    # perfbench/tracing.py wraps snmesh attributes by name; a renamed one
    # raises AttributeError in install.  A fresh process, since install
    # patches the modules it imports
    stub = (
        "import sys; sys.path.insert(0, 'perfbench')\n"
        "import tracing\n"
        "from snmesh import cli\n"
        "class Stub:\n"
        "    def wrap(self, name, fn, describe=None):\n"
        "        return fn\n"
        "assert tracing.install(Stub()) is cli.main\n"
    )
    proc = _run_fresh(stub)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_tracer_sees_the_source_layer(tmp_path):
    # the per-layer source metrics read the spans of analytic's two source
    # entry points: a solver that went round them would leave those metrics
    # at zero, so one uncollided and one standard-mode source solve must
    # each call theirs, inside the solve, through the names the tracer wraps
    stub = (
        "import collections, sys; sys.path.insert(0, 'perfbench')\n"
        "import tracing\n"
        "calls, stack = collections.Counter(), []\n"
        "class Stub:\n"
        "    def wrap(self, name, fn, describe=None):\n"
        "        def counted(*args, **kwargs):\n"
        "            calls[name] += 'dgcore.solve' in stack\n"
        "            stack.append(name)\n"
        "            try:\n"
        "                return fn(*args, **kwargs)\n"
        "            finally:\n"
        "                stack.pop()\n"
        "        return counted\n"
        "main = tracing.install(Stub())\n"
        "run = ['solve', '--kind', 'square-source', '--x0', '0.5', '--t0', '0.1',\n"
        "       '--N', '4', '--M', '1', '--K', '4', '--t', '0.2']\n"
        "assert main(run + ['--out-dir', sys.argv[1] + '/u']) == 0\n"
        "assert calls['analytic.phi_u'] > 0, calls\n"
        "assert calls['analytic.volumetric_source'] == 0, calls\n"
        "assert main(run + ['--mesh', 'static', '--source-mode', 'standard',\n"
        "                   '--out-dir', sys.argv[1] + '/s']) == 0\n"
        "assert calls['analytic.volumetric_source'] > 0, calls\n"
    )
    proc = _run_fresh(stub, str(tmp_path))
    assert proc.returncode == 0, proc.stderr


def _run_fresh(script, *args):
    """``script`` in a fresh Python process from the repository root, with
    -B, so it leaves no bytecode."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    return subprocess.run([sys.executable, "-B", "-c", script, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True)
