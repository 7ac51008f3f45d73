"""Guards on the names the package exposes: the benchmark tooling reaches
into the package by name, every export needs a user outside the tests, and
the numpy-backed layers and metrics load only when a command uses them."""

import ast
import hashlib
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from click.testing import CliRunner

from surgcurate import cli, manifest
from surgcurate.config import SCHEMAS
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


def _every_command(tmp_path) -> list[tuple[str, list[str], list[Path]]]:
    """(label, argv, the files the command reads) for a run of every
    configured command, in an order where each reads what the ones before
    wrote, and for each way sample, split and report read their inputs."""
    paths = write_fixture_corpus(tmp_path, dim=8, raw_blobs=True)
    store, tree, curated = tmp_path / "s.semb", tmp_path / "t.sctree", tmp_path / "c.jsonl"
    corpus, clinical, scores = paths["corpus"], paths["clinical_ids"], tmp_path / "scores.csv"
    unlabeled, video_list, strata, official, preds, domain_map = (
        tmp_path / name for name in ("u.txt", "videos.txt", "strata.json", "official.json", "preds.csv", "dm.json")
    )
    unlabeled.write_text("x1\nx2\n", encoding="utf-8")
    videos = [f"v{i}" for i in range(6)]
    video_list.write_text("\n".join(videos) + "\n", encoding="utf-8")
    strata.write_text(json.dumps({v: v < "v3" for v in videos}), encoding="utf-8")
    official.write_text(json.dumps({"v1": "train", "v2": "test"}), encoding="utf-8")
    preds.write_text("sample_id,predicted,label\ns1,x,x\n", encoding="utf-8")
    domain_map.write_text(json.dumps({"datasets": {"cholec80": "Laparoscopy"}}), encoding="utf-8")
    cases = [
        ("ingest", ["ingest", "--blobs", paths["raw_blobs"], "--ids", paths["raw_ids"], "--dim", "8", "--out", store],
         [*sorted(paths["raw_blobs"].iterdir()), paths["raw_ids"]]),
        ("cluster", ["cluster", "--store", store, "--levels", "4", "--out", tree], [store]),
        ("curate", ["curate", "--store", store, "--tree", tree, "--out", curated], [store, tree]),
        ("sample curated", ["sample", "--unlabeled", curated, "--clinical", clinical, "--n", "3",
                            "--out", tmp_path / "b1.jsonl"], [curated, clinical]),
        ("sample list", ["sample", "--unlabeled", unlabeled, "--clinical", clinical, "--n", "3",
                         "--out", tmp_path / "b2.jsonl"], [unlabeled, clinical]),
        ("split corpus", ["split", "--dataset", "web-edu", "--corpus", corpus, "--out", tmp_path / "s1.json"], [corpus]),
        ("split videos", ["split", "--dataset", "d", "--videos", video_list, "--stratify-by", strata,
                          "--out", tmp_path / "s2.json"], [video_list, strata]),
        ("split official", ["split", "--dataset", "d", "--official", official, "--out", tmp_path / "s3.json"],
         [official]),
        ("stats", ["stats", "--corpus", corpus, "--scale-comparison", "--out", tmp_path / "stats.md"], [corpus]),
        ("evaluate", ["evaluate", "--predictions", preds, "--dataset", "cholec80", "--model", "m", "--out", scores],
         [preds]),
        ("report", ["report", "--scores", scores, "--out", tmp_path / "report.md"], [scores]),
        ("report domain map", ["report", "--scores", scores, "--domain-map", domain_map,
                               "--out", tmp_path / "report-dm.md"], [scores, domain_map]),
        ("report reference", ["report", "--reference", "--out", tmp_path / "reference.md"], []),
    ]
    return [(label, [str(arg) for arg in argv], reads) for label, argv, reads in cases]


def test_run_manifests_record_the_files_each_command_read_and_wrote(tmp_path):
    """A run manifest's inputs are the files the command's layers read, with
    the bytes they read, and its outputs the one file it wrote. Data shipped
    under surgcurate/data (the default domain map, the reference tables and
    scales) is part of the tool, never an input."""
    shipped = Path(cli.__file__).parent / "data"

    def digests(*paths):
        return {str(path): hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}

    for label, argv, reads in _every_command(tmp_path):
        result = CliRunner().invoke(cli.main, argv, env={})
        assert result.exit_code == 0, result.output
        out = Path(argv[argv.index("--out") + 1])
        run = manifest.RunManifest.load(manifest.manifest_path_for(out))
        assert (run.inputs, run.outputs) == (digests(*reads), digests(out)), label
        assert [path for path in run.inputs if Path(path).is_relative_to(shipped)] == [], label


def test_commands_hash_each_file_in_the_pass_that_used_it(tmp_path, monkeypatch):
    """The run manifests take every fingerprint from the pass that read or
    wrote the file: fingerprint_file, which --trace 1 reports as
    manifest.fingerprint, hashes no file after any command body."""
    hashed = []
    fingerprint = manifest.fingerprint_file
    monkeypatch.setattr(manifest, "fingerprint_file", lambda path: hashed.append(Path(path).name) or fingerprint(path))
    per_command = {}
    for label, argv, _ in _every_command(tmp_path):
        hashed.clear()
        result = CliRunner().invoke(cli.main, argv, env={})
        assert result.exit_code == 0, result.output
        per_command[label] = sorted(hashed)
    assert {label: files for label, files in per_command.items() if files} == {}


#: (command, option) declared for a command whose body does not read it -> why it stays.
_UNREAD_OPTIONS = {
    ("curate", "seed"): "perfbench passes them; drop with ROADMAP item 1's benchmark follow-up",
    ("curate", "workers"): "perfbench passes them; drop with ROADMAP item 1's benchmark follow-up",
}


def test_every_declared_option_is_read_by_its_command(tmp_path, monkeypatch):
    """Each option _command declares for a command (its SCHEMAS section and
    the [global] flags it names) is read from the resolved config by the
    command's body, or is in _UNREAD_OPTIONS with a reason; an option
    nothing reads is accepted, resolved and recorded for nothing."""
    wrapper = cli.stats.callback.__code__  # _command's wrapper reads the root seed for every command
    read = {}

    class Spy(dict):
        def __getitem__(self, key):
            if sys._getframe(1).f_code is not wrapper:
                read[self.command].add(key)
            return super().__getitem__(key)

    def spying(command, *args, _resolve=cli.resolve_config):
        cfg = Spy(_resolve(command, *args))
        cfg.command = command
        read.setdefault(command, set())
        return cfg

    monkeypatch.setattr(cli, "resolve_config", spying)
    for _, argv, _ in _every_command(tmp_path):
        result = CliRunner().invoke(cli.main, argv, env={})
        assert result.exit_code == 0, result.output
    options = {o.name for section in SCHEMAS.values() for o in section}
    unread = {
        (name, param.name)
        for name, command in cli.main.commands.items()
        for param in command.params
        if param.name in options and param.name not in read[name]
    }
    assert set(read) == {name for name, command in cli.main.commands.items() if "config_file" in
                         {p.name for p in command.params}}
    assert unread == set(_UNREAD_OPTIONS)


#: Runs each argv of the JSON list in argv[1] in one fresh process and
#: prints, after each, whether numpy and surgcurate.metrics have been imported.
_IMPORT_PROBE = """
import json, sys
from surgcurate import cli, manifest
loaded = []
for argv in json.loads(sys.argv[1]):
    cli.main.main(args=argv, prog_name="surgcurate", standalone_mode=False)
    loaded.append(["numpy" in sys.modules, "surgcurate.metrics" in sys.modules])
print(json.dumps(loaded))
"""


def test_ingest_and_record_commands_run_without_numpy(tmp_path):
    """ingest, every tier of split, split verify, stats, evaluate and report
    import no numpy, and only evaluate and report import metrics; cluster,
    run after them in the same process on the store ingest wrote, imports
    numpy."""
    paths = write_fixture_corpus(tmp_path, dim=8, raw_blobs=True)
    store = str(tmp_path / "ingested.semb")
    corpus, split = str(paths["corpus"]), str(tmp_path / "split.json")
    videos = [f"v{i}" for i in range(6)]
    (tmp_path / "videos.txt").write_text("\n".join(videos) + "\n", encoding="utf-8")
    (tmp_path / "strata.json").write_text(json.dumps({v: v < "v3" for v in videos}), encoding="utf-8")
    (tmp_path / "official.json").write_text(json.dumps({"v1": "train", "v2": "test"}), encoding="utf-8")
    preds = tmp_path / "preds.csv"
    preds.write_text("sample_id,predicted,label\ns1,x,x\ns2,y,x\n", encoding="utf-8")
    scores = str(tmp_path / "scores.csv")
    commands = [
        ["ingest", "--blobs", str(paths["raw_blobs"]), "--ids", str(paths["raw_ids"]), "--dim", "8", "--out", store],
        ["split", "--dataset", "web-edu", "--corpus", corpus, "--out", split],
        ["split", "--dataset", "d", "--videos", str(tmp_path / "videos.txt"),
         "--stratify-by", str(tmp_path / "strata.json"), "--out", str(tmp_path / "s2.json")],
        ["split", "--dataset", "d", "--official", str(tmp_path / "official.json"), "--out", str(tmp_path / "s3.json")],
        ["split", "verify", "--manifest", split, "--corpus", corpus],
        ["stats", "--corpus", corpus, "--scale-comparison", "--out", str(tmp_path / "stats.md")],
        ["evaluate", "--predictions", str(preds), "--dataset", "cholec80", "--model", "m", "--out", scores],
        ["report", "--scores", scores, "--out", str(tmp_path / "report.md")],
        ["cluster", "--store", store, "--levels", "4", "--workers", "1", "--out", str(tmp_path / "t.sctree")],
    ]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    numpy, metrics = zip(*json.loads(proc.stdout.splitlines()[-1]))
    assert numpy == (False,) * 8 + (True,)
    assert metrics == (False,) * 6 + (True,) * 3


def test_sample_loads_neither_clustering_nor_store(tmp_path):
    """sample reads its pools with curation's pool reader and writes with
    the mixer; the layers curate needs (clustering, store) stay unloaded,
    for a curated JSON-lines pool and a plain list alike."""
    curated = tmp_path / "curated.jsonl"
    curated.write_text('{"kind": "header"}\n{"clip_id": "u0"}\n{"clip_id": "u1"}\n', encoding="utf-8")
    (tmp_path / "clinical.txt").write_text("k0\nk1\n", encoding="utf-8")
    argv = ["sample", "--unlabeled", str(curated), "--clinical", str(tmp_path / "clinical.txt"), "--n", "3",
            "--out", str(tmp_path / "b.jsonl")]
    probe = (
        "import json, sys\n"
        "from surgcurate import cli\n"
        "cli.main.main(args=sys.argv[1:], prog_name='surgcurate', standalone_mode=False)\n"
        "print(json.dumps(sorted(name for name in sys.modules if name.startswith('surgcurate.'))))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True, env=env, timeout=120,
                          check=False)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    assert {"surgcurate.mixer", "surgcurate.curation"} <= loaded
    assert loaded.isdisjoint({"surgcurate.clustering", "surgcurate.store", "surgcurate.storefile"})


_RESOURCES_PROBE = """
import importlib, sys
for name in [name for name in sys.modules if (name + ".").startswith("importlib.resources.")]:
    del sys.modules[name]
if hasattr(importlib, "resources"):
    del importlib.resources
import surgcurate.cli
print("importlib.resources" in sys.modules)
import surgcurate.metrics
print("importlib.resources" in sys.modules)
"""


def test_importlib_resources_is_imported_only_in_shipped_text():
    """artifact.shipped_text is the one reader of the data shipped under
    surgcurate/data, which notes no digest; a second reader could put the
    tool's own files among a run's inputs, or load importlib.resources at
    start-up."""
    uses = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        enclosing = {
            id(node): fn.name
            for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
            else:
                continue
            if any((module + ".").startswith("importlib.resources.") for module in modules):
                uses.append((path.name, enclosing.get(id(node))))
    assert uses == [("artifact.py", "shipped_text")]


def test_cli_import_leaves_importlib_resources_unloaded():
    """importlib.resources costs milliseconds of every command's start-up,
    and only DomainMap.default, scale_comparison_report and the metrics
    data loader need it. The probe unloads it, as if start-up had not
    loaded it (a site .pth file may), and importing the CLI, or metrics,
    must not load it again."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _RESOURCES_PROBE], capture_output=True, text=True, env=env, timeout=60, check=False
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def _module_names(tree: ast.Module) -> dict[str, str]:
    """Names a file binds to a module -> that module: `import m` (and
    `import m as n`), and a package module taken by `from surgcurate import m`
    or `from . import m`."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.asname or alias.name.partition(".")[0]: alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module, node.level) in (("surgcurate", 0), (None, 1)):
            names |= {
                alias.asname or alias.name: f"surgcurate.{alias.name}"
                for alias in node.names if (PACKAGE / f"{alias.name}.py").exists()
            }
    return names


def test_only_the_array_layers_import_numpy():
    """numpy is a dependency of the layers that hold arrays (and of the
    synthetic fixtures), not of the record commands' modules."""
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        modules = [*_module_names(tree).values()]
        modules += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 0]
        if any(module.partition(".")[0] == "numpy" for module in modules):
            importers.append(path.stem)
    assert importers == ["clustering", "curation", "mixer", "store", "synthetic"]


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
    """Threads start in two places only. clustering.ordered_map holds BLAS
    to one thread while its pool runs; a pool started anywhere else would
    share its cores with BLAS threads. storefile.ingest_raw_blobs starts
    one thread that hashes the blobs: ingest loads no numpy, so there are
    no BLAS threads for it to compete with."""
    uses = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        enclosing = {
            id(node): fn.name
            for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if name in ("ThreadPoolExecutor", "Thread"):
                uses.append((path.name, enclosing.get(id(node)), name))
    assert uses == [("clustering.py", "ordered_map", "ThreadPoolExecutor"), ("storefile.py", "ingest_raw_blobs", "Thread")]
