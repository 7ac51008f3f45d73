"""Guards on the names the package exposes: the benchmark tooling reaches
into the package by name, and every export needs a user outside the tests."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACED = ROOT / "perfbench" / "traced.py"
PACKAGE = ROOT / "src" / "surgcurate"


def _resolve(module: str, member: str):
    """What `from module import member` binds."""
    try:
        return importlib.import_module(f"{module}.{member}")
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), member)


def test_traced_rebinding_table_names_existing_attributes():
    """perfbench/traced.py rebinds (module, attr) pairs to record --trace 1
    spans; a renamed attribute would silently drop its metrics."""
    install = next(
        node for node in ast.walk(ast.parse(TRACED.read_text("utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "install"
    )
    imported = {
        alias.asname or alias.name: (node.module, alias.name)
        for node in ast.walk(install) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    table = next(node for node in ast.walk(install) if isinstance(node, ast.For)).iter
    rows = [(row.elts[0].id, row.elts[1].value) for row in table.elts]
    assert len(rows) >= 18
    missing = [f"{name}.{attr}" for name, attr in rows if not hasattr(_resolve(*imported[name]), attr)]
    assert missing == []


def _module_names(tree: ast.Module) -> set[str]:
    """Names a file binds to a module: `import m`, and a package module taken
    by `from surgcurate import m` or `from . import m`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module, node.level) in (("surgcurate", 0), (None, 1)):
            names |= {alias.asname or alias.name for alias in node.names if (PACKAGE / f"{alias.name}.py").exists()}
    return names


def _references(path: Path):
    """Identifiers a file uses: loaded names, attributes of a module the
    file imported (`cli.read_store`, not `mapping.domain_of`), and string
    constants that are identifiers (perfbench rebinds attributes by name).
    A top-level def or class does not reference itself."""
    tree = ast.parse(path.read_text("utf-8"))
    modules = _module_names(tree)
    for stmt in tree.body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                name = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                name = node.value
            else:
                continue
            if name != own:
                yield name


def test_every_export_is_reached_outside_the_tests():
    """Each name the package exports is used by package code other than its
    definition, by a demo or by perfbench; test-only API is dead code."""
    init = PACKAGE / "__init__.py"
    exported = [
        alias.asname or alias.name
        for node in ast.parse(init.read_text("utf-8")).body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    readers = [p for p in PACKAGE.glob("*.py") if p != init] + [*ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")]
    used = {name for path in readers for name in _references(path)}
    assert len(exported) >= 70
    assert [name for name in exported if name not in used] == []


def test_thread_pools_start_only_in_ordered_map():
    """clustering.ordered_map holds BLAS to one thread while its pool runs;
    a pool started anywhere else would share its cores with BLAS threads."""
    uses = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        enclosing = {
            id(node): fn.name
            for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and node.id == "ThreadPoolExecutor") or (
                isinstance(node, ast.Attribute) and node.attr == "ThreadPoolExecutor"
            ):
                uses.append((path.name, enclosing.get(id(node))))
    assert uses == [("clustering.py", "ordered_map")]
