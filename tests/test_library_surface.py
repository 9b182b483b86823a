"""The library holds what its commands and the benchmark run, not test helpers.

A top-level name of a module in ``src/rtlcheck`` counts as used when a used
statement reads it, by its own name, through an import or as ``M.name``.
Used is a fixpoint that starts from the real readers: the files under
``benchmarks/`` (which also name the import sites they rebind, as
``"rtlcheck.M", "name"``), ``[project.scripts]`` in ``pyproject.toml`` and
the module-level statements that bind no name. A statement that binds
names is used once one of its names is, and an imported name once the
importing module's binding is, so two helpers that only read each other
are unused. A helper that only tests call belongs in ``tests/``.

Importing the library loads neither ``dataclasses`` nor the modules it
loads: a process that runs one command spends most of its time importing.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "rtlcheck"

# names kept although nothing in the library or the benchmark reads them
ALLOWED = {("__init__", "__version__")}

Name = tuple[str, str]  # (module, name)


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


def _reads(node: ast.AST, scope: dict[str, Name]) -> set[Name]:
    """(module, name) pairs read in ``node``: names of ``scope``, and M.name."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            if sub.id in scope:
                out.add(scope[sub.id])
        elif isinstance(sub, ast.Attribute):
            owner = sub.value
            if isinstance(owner, ast.Attribute):
                out.add((owner.attr, sub.attr))
            elif isinstance(owner, ast.Name):
                out.add((owner.id, sub.attr))
    return out


def _imported(tree: ast.Module) -> dict[str, Name]:
    """Each name a module imports from another, mapped to its origin."""
    out = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module:
            module = stmt.module.removeprefix("rtlcheck.")
            for alias in stmt.names:
                out[alias.asname or alias.name] = (module, alias.name)
    return out


def unused_names(sources: dict[str, str], readers: set[Name]) -> list[str]:
    """Top-level names of ``sources`` (module name to text) that are not used.

    ``readers`` are the names read from outside the modules.
    """
    defined: list[Name] = []
    reads_for: dict[Name, set[Name]] = {}
    todo = list(readers)
    for module, text in sources.items():
        tree = ast.parse(text)
        binders = _defined(tree)
        imported = _imported(tree)
        scope = imported | {name: (module, name) for name in binders}
        defined += [(module, name) for name in binders]
        for alias, origin in imported.items():
            reads_for.setdefault((module, alias), set()).add(origin)
        for stmt in tree.body:
            reads = _reads(stmt, scope)
            names = [name for name, binder in binders.items() if binder is stmt]
            if not names:
                todo += reads
            for name in names:
                reads_for.setdefault((module, name), set()).update(reads)
    used: set[Name] = set()
    while todo:
        name = todo.pop()
        if name not in used:
            used.add(name)
            todo += reads_for.get(name, ())
    return sorted(f"{module}.{name}" for module, name in defined
                  if (module, name) not in used)


def _named_sites(tree: ast.Module) -> set[Name]:
    """(module, name) pairs spelt as adjacent strings ``"rtlcheck.M", "name"``."""
    out = set()
    for node in ast.walk(tree):
        items = getattr(node, "elts", None) or getattr(node, "args", None)
        if not isinstance(items, list):
            continue
        strings = [i.value if isinstance(i, ast.Constant) and isinstance(i.value, str)
                   else None for i in items]
        for module, name in zip(strings, strings[1:]):
            if module and name and module.startswith("rtlcheck."):
                out.add((module.removeprefix("rtlcheck."), name))
    return out


def _read_across(path: Path) -> set[Name]:
    """(module, name) pairs a file imports from a library module, reads as
    M.name or names as an import site."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return set(_imported(tree).values()) | _reads(tree, {}) | _named_sites(tree)


def unused_library_names() -> list[str]:
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(LIBRARY.glob("*.py"))}
    scripts = re.findall(r'"rtlcheck\.(\w+):(\w+)"',
                         (ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    readers = set(scripts) | ALLOWED
    for path in (ROOT / "benchmarks").rglob("*.py"):
        readers |= _read_across(path)
    return unused_names(sources, readers)


def test_every_library_name_has_a_caller_outside_tests():
    unused = unused_library_names()
    assert not unused, "no library, benchmark or script reader: " + ", ".join(unused)


def test_helpers_that_only_read_each_other_are_unused():
    sources = {
        "a": "def main():\n    return helper()\n\n"
             "def helper():\n    return 1\n\n"
             "def dead():\n    return echo()\n\n"
             "def echo():\n    return dead()\n",
        "b": "from .a import echo, helper\n\n"
             "X = 1\n\n"
             "Y = X\n\n"
             "print(X)\n",
    }
    assert unused_names(sources, {("a", "main")}) == ["a.dead", "a.echo", "b.Y"]
    # an imported name is used once the importing module's binding is, and
    # an import alone reads nothing
    assert unused_names(sources, {("b", "echo")}) == ["a.helper", "a.main", "b.Y"]


def test_importing_the_commands_loads_no_dataclasses_inspect_or_typing():
    # -S: modules that site hooks import do not count
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); before = set(sys.modules)\n"
            "import rtlcheck.cli, rtlcheck.corpus\n"
            "print(*sorted(set(sys.modules) - before))\n")
    loaded = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                            text=True, check=True).stdout.split()
    assert "rtlcheck.cli" in loaded
    assert not {"dataclasses", "inspect", "typing"} & set(loaded)


def test_no_library_module_imports_dataclasses():
    offences = []
    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            offences += [f"{path.name}:{node.lineno}" for module in modules
                         if module.partition(".")[0] == "dataclasses"]
    assert not offences
