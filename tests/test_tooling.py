"""Guards on the names the package exposes: the benchmark tooling reaches
into the package by name, every export needs a user outside the tests, and
the numpy-backed layers load only when a command uses them."""

import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from click.testing import CliRunner

from surgcurate import cli, manifest
from surgcurate.synthetic import write_fixture_corpus

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


def test_rebound_cli_names_are_the_ones_the_commands_call(tmp_path, monkeypatch):
    """A wrapper set on a cli attribute, as traced.py sets its spans, is
    what the command body calls, lazily imported name or not."""
    paths = write_fixture_corpus(tmp_path, dim=8)
    calls = Counter()
    for name in ("read_store", "l2_normalize", "build_hierarchy", "curate", "write_batch_manifest"):
        def counted(*args, _fn=getattr(cli, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    store, tree, curated = str(paths["store"]), str(tmp_path / "t.sctree"), str(tmp_path / "c.jsonl")
    for argv in (
        ["cluster", "--store", store, "--levels", "4", "--out", tree],
        ["curate", "--store", store, "--tree", tree, "--out", curated],
        ["sample", "--unlabeled", curated, "--clinical", str(paths["clinical_ids"]), "--n", "3",
         "--out", str(tmp_path / "b.jsonl")],
    ):
        result = CliRunner().invoke(cli.main, argv, env={})
        assert result.exit_code == 0, result.output
    # curate streams the store itself; only cluster reads and normalises a whole matrix
    assert calls == {"read_store": 1, "l2_normalize": 1, "build_hierarchy": 1, "curate": 1, "write_batch_manifest": 1}


def test_ingest_cluster_curate_hash_the_store_and_blobs_once(tmp_path, monkeypatch):
    """The run manifests take the store's, the blobs' and the read tree's
    fingerprints from the pass that read or wrote them: fingerprint_file,
    which --trace 1 reports as manifest.fingerprint, hashes only the files
    no layer hashed."""
    paths = write_fixture_corpus(tmp_path, dim=8, raw_blobs=True)
    hashed = []
    fingerprint = manifest.fingerprint_file
    monkeypatch.setattr(manifest, "fingerprint_file", lambda path: hashed.append(Path(path).name) or fingerprint(path))
    store, tree, curated = str(tmp_path / "s.semb"), str(tmp_path / "t.sctree"), str(tmp_path / "c.jsonl")
    per_command = {}
    for argv in (
        ["ingest", "--blobs", str(paths["raw_blobs"]), "--ids", str(paths["raw_ids"]), "--dim", "8", "--out", store],
        ["cluster", "--store", store, "--levels", "4", "--out", tree],
        ["curate", "--store", store, "--tree", tree, "--out", curated],
    ):
        hashed.clear()
        result = CliRunner().invoke(cli.main, argv, env={})
        assert result.exit_code == 0, result.output
        per_command[argv[0]] = sorted(hashed)
    assert per_command == {"ingest": ["raw_ids.txt"], "cluster": ["t.sctree"], "curate": ["c.jsonl"]}


#: Runs each argv of the JSON list in argv[1] in one fresh process and
#: prints, after each, whether numpy has been imported.
_NUMPY_PROBE = """
import json, sys
from surgcurate import cli, manifest
loaded = []
for argv in json.loads(sys.argv[1]):
    cli.main.main(args=argv, prog_name="surgcurate", standalone_mode=False)
    loaded.append("numpy" in sys.modules)
print(json.dumps(loaded))
"""


def test_record_commands_run_without_numpy(tmp_path):
    """split verify, stats, evaluate and report import no numpy; cluster,
    run after them in the same process, does."""
    paths = write_fixture_corpus(tmp_path, dim=8)
    corpus, split = str(paths["corpus"]), str(tmp_path / "split.json")
    result = CliRunner().invoke(cli.main, ["split", "--dataset", "web-edu", "--corpus", corpus, "--out", split], env={})
    assert result.exit_code == 0, result.output
    preds = tmp_path / "preds.csv"
    preds.write_text("sample_id,predicted,label\ns1,x,x\ns2,y,x\n", encoding="utf-8")
    scores = str(tmp_path / "scores.csv")
    commands = [
        ["split", "verify", "--manifest", split, "--corpus", corpus],
        ["stats", "--corpus", corpus, "--scale-comparison", "--out", str(tmp_path / "stats.md")],
        ["evaluate", "--predictions", str(preds), "--dataset", "cholec80", "--model", "m", "--out", scores],
        ["report", "--scores", scores, "--out", str(tmp_path / "report.md")],
        ["cluster", "--store", str(paths["store"]), "--levels", "4", "--workers", "1", "--out", str(tmp_path / "t.sctree")],
    ]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [False, False, False, False, True]


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


def _exports() -> dict[str, str]:
    """Every name the package exports -> the submodule defining it: the
    `from .module import` blocks and the `_LAZY` table of __getattr__."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text("utf-8"))
    exports = {
        alias.asname or alias.name: node.module
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    lazy = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["_LAZY"]
    )
    return {**exports, **ast.literal_eval(lazy)}


def test_every_export_is_reached_outside_the_tests():
    """Each name the package exports is used by package code other than its
    definition, by a demo or by perfbench; test-only API is dead code."""
    exported = _exports()
    init = PACKAGE / "__init__.py"
    readers = [p for p in PACKAGE.glob("*.py") if p != init] + [*ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")]
    used = {name for path in readers for name in _references(path)}
    assert len(exported) >= 70
    assert [name for name in exported if name not in used] == []


def test_every_export_is_its_submodules_object():
    """`from surgcurate import X` binds the object its submodule defines,
    whether X is imported eagerly or on first access."""
    import surgcurate

    wrong = [
        name for name, module in _exports().items()
        if getattr(surgcurate, name) is not getattr(importlib.import_module(f"surgcurate.{module}"), name)
    ]
    assert wrong == []


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
