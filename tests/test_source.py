"""The package source holds no unused code: every import a module makes is
used in it, and every module-level private name is used somewhere in the
package."""

import ast
from pathlib import Path

from test_bench_bindings import WRAPS

SOURCE = Path(__file__).resolve().parent.parent / "src" / "doctype"
MODULES = {path.relative_to(SOURCE).as_posix(): path for path in sorted(SOURCE.rglob("*.py"))}


def parsed(path: Path) -> tuple[ast.Module, list[str]]:
    text = path.read_text(encoding="utf-8")
    return ast.parse(text), text.splitlines()


def used_names(tree: ast.AST) -> set[str]:
    """Every name the code reads: bare names and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_import_is_used():
    # a package's __init__ imports its public names to export them; a line
    # marked ``# noqa: F401`` may import a name the module never uses only
    # when bench/tracer.py wraps it there
    wrapped = {binding for _, _, bindings in WRAPS for binding in bindings}
    unused = []
    for name, path in MODULES.items():
        if path.name == "__init__.py":
            continue
        module = "doctype." + name.removesuffix(".py").replace("/", ".")
        tree, lines = parsed(path)
        used = used_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
                continue
            marked = "# noqa: F401" in lines[node.lineno - 1]
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used and not (marked and (module, bound) in wrapped):
                    unused.append(f"{name}:{node.lineno} {bound}")
    assert unused == []


def test_every_private_name_is_used():
    trees = {name: parsed(path)[0] for name, path in MODULES.items()}
    used = set().union(*map(used_names, trees.values()))
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for private in defined:
                if private.startswith("_") and not private.startswith("__") and private not in used:
                    unused.append(f"{name}:{node.lineno} {private}")
    assert unused == []
