"""Checks on the package source: no dead private names, and every name
the benchmark's tracer patches exists."""

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


def test_benchmark_tracer_finds_every_name_it_patches():
    # perfbench/tracing.py wraps snmesh attributes by name; a renamed one
    # raises AttributeError in install.  A fresh process, since install
    # patches the modules it imports, and -B, so it leaves no bytecode
    stub = (
        "import sys; sys.path.insert(0, 'perfbench')\n"
        "import tracing\n"
        "from snmesh import cli\n"
        "class Stub:\n"
        "    def wrap(self, name, fn, describe=None):\n"
        "        return fn\n"
        "assert tracing.install(Stub()) is cli.main\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-B", "-c", stub], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
