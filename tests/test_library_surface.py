"""The library holds what its commands and the benchmark run, not test helpers.

A top-level name of module ``M`` in ``src/rtlcheck`` counts as used when
``M`` reads it outside its own definition, when another library module or a
file under ``benchmarks/`` imports it from ``M`` or reads it as ``M.name``,
or when ``[project.scripts]`` in ``pyproject.toml`` names it. A helper that
only tests call belongs in ``tests/``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "rtlcheck"

# names kept although nothing in the library or the benchmark reads them
ALLOWED = {("__init__", "__version__")}


def _defined(tree: ast.Module) -> dict[str, ast.stmt]:
    """Each top-level name the module binds, mapped to the statement binding it."""
    out = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[stmt.name] = stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        out[node.id] = stmt
    return out


def _read_within(tree: ast.Module, defined: dict[str, ast.stmt]) -> set[str]:
    """Names the module reads in a statement other than their own definition."""
    out = set()
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and defined.get(node.id) is not stmt):
                out.add(node.id)
    return out


def _read_across(path: Path) -> set[tuple[str, str]]:
    """(module, name) pairs a file imports from a library module or reads as M.name."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.removeprefix("rtlcheck.")
            out.update((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute):
            owner = node.value
            if isinstance(owner, ast.Attribute):
                out.add((owner.attr, node.attr))
            elif isinstance(owner, ast.Name):
                out.add((owner.id, node.attr))
    return out


def unused_library_names() -> list[str]:
    modules = {p.stem: p for p in sorted(LIBRARY.glob("*.py"))}
    scripts = re.findall(r'"rtlcheck\.(\w+):(\w+)"',
                         (ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    readers = set(scripts) | ALLOWED
    for path in [*modules.values(), *(ROOT / "benchmarks").rglob("*.py")]:
        readers |= _read_across(path)
    unused = []
    for module, path in modules.items():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = _defined(tree)
        within = _read_within(tree, defined)
        unused += [f"{module}.{name}" for name in defined
                   if name not in within and (module, name) not in readers]
    return unused


def test_every_library_name_has_a_caller_outside_tests():
    unused = unused_library_names()
    assert not unused, "no library, benchmark or script reader: " + ", ".join(unused)
