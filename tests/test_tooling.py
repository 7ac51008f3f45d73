"""Guards for the benchmark tooling that reaches into the package by name."""

import ast
import importlib
from pathlib import Path

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


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
