"""Static checks on the package source: no dead private names."""

import ast
from pathlib import Path

import snmesh

PACKAGE = Path(snmesh.__file__).resolve().parent


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
