import hashlib
import json
import os
import stat
import struct
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from surgcurate import __version__, cli
from surgcurate import store as store_module
from surgcurate.cli import main
from surgcurate.clustering import TREE_MAGIC, ClusteringError, build_hierarchy
from surgcurate.config import ConfigError, SCHEMAS, resolve_config
from surgcurate.corpus import CorpusError
from surgcurate.curation import CurationError
from surgcurate.manifest import RunManifest, RunManifestError, manifest_path_for
from surgcurate.metrics import MetricsError
from surgcurate.mixer import MixerError
from surgcurate.splits import Split, SplitError, SplitManifest, SplitTier, make_manifest
from surgcurate.store import MAGIC, EmbeddingMatrix, StoreError, write_store
from surgcurate.synthetic import write_fixture_corpus


class TestResolveConfig:
    def test_documented_defaults(self):
        assert resolve_config("curate", env={})["fraction"] == "0.10"
        sample = resolve_config("sample", env={})
        assert sample["p_pure"] == "0.15"
        assert sample["mix"] == "0.70"
        assert resolve_config("split", env={})["ratios"] == "7:2:1"
        cluster = resolve_config("cluster", env={})
        assert cluster["tol"] == 1e-4
        assert cluster["levels"] == [25000, 5000, 1000]
        assert cluster["normalize"] is True

    def test_file_overrides_defaults(self, tmp_path):
        ini = tmp_path / "surg.ini"
        ini.write_text("[cluster]\ntol = 0.01\n\n[global]\nseed = 9\n", encoding="utf-8")
        cfg = resolve_config("cluster", config_file=ini, env={})
        assert cfg["tol"] == 0.01
        assert cfg["seed"] == 9

    def test_env_overrides_file(self, tmp_path):
        ini = tmp_path / "surg.ini"
        ini.write_text("[global]\nseed = 9\n", encoding="utf-8")
        cfg = resolve_config("cluster", config_file=ini, env={"SURGCURATE_SEED": "17"})
        assert cfg["seed"] == 17

    def test_flag_overrides_everything(self, tmp_path):
        ini = tmp_path / "surg.ini"
        ini.write_text("[global]\nseed = 9\n", encoding="utf-8")
        cfg = resolve_config(
            "cluster", flags={"seed": 23}, config_file=ini, env={"SURGCURATE_SEED": "17"}
        )
        assert cfg["seed"] == 23

    def test_unknown_file_key_names_the_key(self, tmp_path):
        ini = tmp_path / "surg.ini"
        ini.write_text("[cluster]\nwibble = 3\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="wibble"):
            resolve_config("cluster", config_file=ini, env={})

    def test_unknown_flag_key(self):
        with pytest.raises(ConfigError, match="wobble"):
            resolve_config("cluster", flags={"wobble": 1}, env={})

    def test_type_mismatch(self, tmp_path):
        ini = tmp_path / "surg.ini"
        ini.write_text("[cluster]\nmax_iter = soon\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            resolve_config("cluster", config_file=ini, env={})

    @pytest.mark.parametrize(
        "command,key,good,bad",
        [
            ("curate", "fraction", "3/20", "1/0"),
            ("sample", "p_pure", "0.25", "x"),
            ("sample", "mix", "1", "-"),
            ("split", "ratios", "8:1:1", "7:2:x"),
        ],
    )
    def test_fraction_and_ratio_values_are_checked_and_kept_as_written(self, command, key, good, bad):
        assert resolve_config(command, flags={key: good}, env={})[key] == good
        with pytest.raises(ConfigError, match=key):
            resolve_config(command, flags={key: bad}, env={})

    def test_zero_tolerance_and_zero_workers_stay_valid(self):
        # wide scans run a fixed number of Lloyd passes with --tol 0; workers 0 means all cores
        cfg = resolve_config("cluster", flags={"tol": "0", "workers": "0", "max_iter": "1"}, env={})
        assert (cfg["tol"], cfg["workers"], cfg["max_iter"]) == (0.0, 0, 1)

    def test_missing_config_file(self):
        with pytest.raises(ConfigError):
            resolve_config("cluster", config_file="/nonexistent.ini", env={})

    def test_resolved_config_is_fully_explicit(self):
        cfg = resolve_config("sample", env={})
        expected_keys = {o.name for o in SCHEMAS["global"] + SCHEMAS["sample"]}
        assert set(cfg) == expected_keys
        assert all(v is not None for v in cfg.values())


class TestHelp:
    @pytest.mark.parametrize(
        "command,flags",
        [
            (["ingest"], ["--blobs", "--ids", "--out", "--dim", "--config"]),
            (["cluster"], ["--store", "--out", "--levels", "--tol", "--max-iter", "--normalize", "--seed", "--workers"]),
            (["curate"], ["--store", "--tree", "--out", "--fraction", "--mode"]),
            (["sample"], ["--unlabeled", "--clinical", "--out", "--p-pure", "--mix", "--batch", "--n", "--interleave", "--seed"]),
            (["split"], ["--dataset", "--videos", "--corpus", "--official", "--community", "--ratios", "--stratify-by", "--seed", "--out"]),
            (["split", "verify"], ["--manifest", "--corpus"]),
            (["evaluate"], ["--predictions", "--dataset", "--model", "--variant", "--out"]),
            (["report"], ["--scores", "--domain-map", "--format", "--reference", "--out"]),
            (["stats"], ["--corpus", "--scale-comparison", "--out"]),
        ],
    )
    def test_every_flag_documented(self, command, flags):
        result = CliRunner().invoke(main, [*command, "--help"], env={})
        assert result.exit_code == 0
        for flag in flags:
            assert flag in result.output

    def test_defaults_shown_in_help(self):
        # every schema option shows its default next to its help text, on
        # its own command and on each command that takes a global key as a flag
        helps = {}
        for command in (c for c in SCHEMAS if c != "global"):
            result = CliRunner().invoke(main, [command, "--help"], env={})
            assert result.exit_code == 0
            plain = helps[command] = " ".join(result.output.split())
            for opt in SCHEMAS[command] + SCHEMAS["global"]:
                flag = opt.name.replace("_", "-")
                if opt in SCHEMAS["global"] and f"--{flag} " not in plain:
                    continue  # config-only key for this command
                if opt.kind == "bool":
                    shown = flag if opt.default else f"no-{flag}"
                elif opt.kind == "levels":
                    shown = ",".join(str(size) for size in opt.default)
                else:
                    shown = str(opt.default)
                assert f"{opt.help} [default: {shown}]" in plain, (command, opt.name)
        for needle in ("0.15", "0.70", "64", "1000"):
            assert f"[default: {needle}]" in helps["sample"]
        assert "[default: 7:2:1]" in helps["split"]

    def test_version_from_source_checkout(self):
        result = CliRunner().invoke(main, ["--version"], env={})
        assert result.exit_code == 0, result.output
        assert __version__ in result.output
        assert RunManifest(command="x", config={}).tool_version == __version__


# one bad value per parser path: int, the two closed choice sets, the three
# fractions and the split ratios; then every tolerance that is not a finite
# number >= 0, every count below 1, a negative worker count and the levels
# that are not strictly decreasing sizes >= 1
_BAD_VALUES = [
    (["curate", "--store", "s", "--tree", "t", "--out", "o"], "seed", "abc"),
    (["cluster", "--store", "s", "--out", "o"], "tol", "x"),
    (["cluster", "--store", "s", "--out", "o"], "tol", "nan"),
    (["cluster", "--store", "s", "--out", "o"], "tol", "-1"),
    (["cluster", "--store", "s", "--out", "o"], "tol", "-0"),
    (["cluster", "--store", "s", "--out", "o"], "max_iter", "-3"),
    (["cluster", "--store", "s", "--out", "o"], "max_iter", "0"),
    (["cluster", "--store", "s", "--out", "o"], "workers", "-2"),
    (["curate", "--store", "s", "--tree", "t", "--out", "o"], "mode", "bogus"),
    (["report", "--reference"], "format", "html"),
    (["curate", "--store", "s", "--tree", "t", "--out", "o"], "fraction", "abc"),
    (["sample", "--unlabeled", "u", "--clinical", "c", "--out", "o"], "p_pure", "x"),
    (["sample", "--unlabeled", "u", "--clinical", "c", "--out", "o"], "mix", "x"),
    (["split", "--dataset", "d", "--videos", "v", "--out", "o"], "ratios", "7:2"),
    (["ingest", "--blobs", "b", "--ids", "i", "--out", "o"], "dim", "0"),
    (["sample", "--unlabeled", "u", "--clinical", "c", "--out", "o"], "n", "-1"),
    (["sample", "--unlabeled", "u", "--clinical", "c", "--out", "o"], "batch", "0"),
    (["cluster", "--store", "s", "--out", "o"], "levels", "8,16"),
    (["cluster", "--store", "s", "--out", "o"], "levels", "0"),
]


_GOOD_VIDEO = {
    "kind": "video", "video_id": "v1", "source": "PublicClinical", "dataset_id": "cholec80",
    "domain": "Laparoscopy", "frame_count": 30, "fps": 30, "duration_s": 1.0,
}
_GOOD_CLIP = {"kind": "clip", "clip_id": "c1", "video_id": "v1", "start_frame": 0, "end_frame": 10, "embedding_row": 0}


def _corpus_with(video=None, clip=None, sort_keys=False) -> dict:
    """A one-video, one-clip corpus manifest with fields of either record
    replaced; with sort_keys, in the key order write_corpus_manifest writes."""
    lines = [{**_GOOD_VIDEO, **(video or {})}, {**_GOOD_CLIP, **(clip or {})}]
    return {"c.jsonl": "\n".join(json.dumps(doc, sort_keys=sort_keys) for doc in lines) + "\n"}


#: A split manifest of the one-video corpus above.
_SPLIT_OF_V1 = {"m.json": make_manifest("cholec80", {"v1": Split.TRAIN}, SplitTier.OFFICIAL, created_at="t").to_json_text()}
_SPLIT_CORPUS = ["split", "--dataset", "cholec80", "--corpus", "c.jsonl", "--out", "m.json"]
_VERIFY_CORPUS = ["split", "verify", "--manifest", "m.json", "--corpus", "c.jsonl"]


#: case -> (files staged in the working directory, as text or raw bytes; argv; the typed error; text its message names)
_MALFORMED_INPUTS = {
    "curated-line-without-clip-id": (
        {"pool.jsonl": '{"kind": "header"}\n{"leaf": 0}\n'},
        ["sample", "--unlabeled", "pool.jsonl", "--clinical", "pool.jsonl", "--out", "b.jsonl"],
        "CurationError", "pool.jsonl:2",
    ),
    "curated-clip-id-not-a-string": (
        {"pool.jsonl": '{"kind": "header"}\n{"clip_id": 5}\n', "clinical.txt": "c1\n"},
        ["sample", "--unlabeled", "pool.jsonl", "--clinical", "clinical.txt", "--out", "b.jsonl"],
        "CurationError", "pool.jsonl:2",
    ),
    "plain-pool-not-utf8": (
        {"pool.txt": b"a\n\n\xffb\n"},
        ["sample", "--unlabeled", "pool.txt", "--clinical", "pool.txt", "--out", "b.jsonl"],
        "CurationError", "pool.txt:3",
    ),
    "curated-pool-not-utf8": (
        {"pool.jsonl": b'{"kind": "header"}\n{"clip_id": "\xff"}\n'},
        ["sample", "--unlabeled", "pool.jsonl", "--clinical", "pool.jsonl", "--out", "b.jsonl"],
        "CurationError", "pool.jsonl:2",
    ),
    "video-list-not-utf8": (
        {"v.txt": b"v1\nv2\n\xfe\n"},
        ["split", "--dataset", "d", "--videos", "v.txt", "--out", "m.json"],
        "SplitError", "v.txt:3",
    ),
    "video-list-repeats-an-id": (
        {"v.txt": "v1\nv2\n\nv1\nv2\n"},
        ["split", "--dataset", "d", "--videos", "v.txt", "--out", "m.json"],
        "SplitError", "v.txt:4: video id 'v1' is listed twice",
    ),
    "predictions-row-missing-a-field": (
        {"p.csv": "sample_id,predicted,label\ns1,x,x\ns2,x\n"},
        ["evaluate", "--predictions", "p.csv", "--dataset", "cholec80", "--model", "m"],
        "MetricsError", "p.csv:3",
    ),
    "predictions-row-with-an-extra-field": (
        {"p.csv": "sample_id,predicted,label\ns1,x,x,x\n"},
        ["evaluate", "--predictions", "p.csv", "--dataset", "cholec80", "--model", "m"],
        "MetricsError", "p.csv:2",
    ),
    "scores-row-with-an-extra-field": (
        {"s.csv": "dataset,model,variant,acc\ncholec80,m,,50\ncholec80,m2,,50,9\n"},
        ["report", "--scores", "s.csv"],
        "MetricsError", "s.csv:3",
    ),
    "split-manifest-without-assignment": (
        {"m.json": '{"dataset_id": "d", "tier": "Ours", "version": "", "created_at": ""}', "c.jsonl": ""},
        ["split", "verify", "--manifest", "m.json", "--corpus", "c.jsonl"],
        "SplitError", "m.json",
    ),
    "split-manifest-is-a-list": (
        {"m.json": "[]", "c.jsonl": ""},
        ["split", "verify", "--manifest", "m.json", "--corpus", "c.jsonl"],
        "SplitError", "m.json",
    ),
    "official-split-is-a-list": (
        {"o.json": '["v1"]'},
        ["split", "--dataset", "d", "--official", "o.json", "--out", "m.json"],
        "SplitError", "o.json",
    ),
    "strata-map-is-a-list": (
        {"v.txt": "v1\nv2\nv3\n", "s.json": '["v1"]'},
        ["split", "--dataset", "d", "--videos", "v.txt", "--stratify-by", "s.json", "--out", "m.json"],
        "SplitError", "s.json",
    ),
    "domain-map-without-datasets": (
        {"dm.json": '{"domains": {}}'},
        ["report", "--reference", "--domain-map", "dm.json"],
        "CorpusError", "dm.json",
    ),
    "corpus-fps-zero-denominator": (
        {"c.jsonl": json.dumps({**_GOOD_VIDEO, "fps": "1/0"})},
        ["stats", "--corpus", "c.jsonl"],
        "ManifestParseError", "c.jsonl:1",
    ),
    "corpus-video-id-not-a-string": (
        {"c.jsonl": json.dumps(_GOOD_VIDEO) + "\n" + json.dumps({**_GOOD_VIDEO, "video_id": 2})},
        ["stats", "--corpus", "c.jsonl"],
        "ManifestParseError", "c.jsonl:2",
    ),
    "corpus-frame-count-is-a-float": (
        _corpus_with(video={"frame_count": 30.5}), ["stats", "--corpus", "c.jsonl"], "ManifestParseError", "c.jsonl:1",
    ),
    "corpus-start-frame-is-a-float": (
        _corpus_with(clip={"start_frame": 1.9}), ["stats", "--corpus", "c.jsonl"], "ManifestParseError", "c.jsonl:2",
    ),
    "corpus-end-frame-is-a-bool": (
        _corpus_with(clip={"end_frame": True}), ["stats", "--corpus", "c.jsonl"], "ManifestParseError", "c.jsonl:2",
    ),
    "corpus-embedding-row-is-a-string": (
        _corpus_with(clip={"embedding_row": "7"}), ["stats", "--corpus", "c.jsonl"], "ManifestParseError", "c.jsonl:2",
    ),
    "corpus-duration-is-the-string-nan": (
        _corpus_with(video={"duration_s": "nan"}), ["stats", "--corpus", "c.jsonl"], "ManifestParseError", "c.jsonl:1",
    ),
    "corpus-duration-is-infinite": (
        _corpus_with(video={"duration_s": float("inf")}), ["stats", "--corpus", "c.jsonl"], "ManifestParseError", "c.jsonl:1",
    ),
    "split-corpus-start-frame-is-a-float": (
        _corpus_with(clip={"start_frame": 1.9}, sort_keys=True), _SPLIT_CORPUS, "ManifestParseError", "c.jsonl:2",
    ),
    "split-verify-corpus-start-frame-is-a-float": (
        {**_corpus_with(clip={"start_frame": 1.9}, sort_keys=True), **_SPLIT_OF_V1},
        _VERIFY_CORPUS, "ManifestParseError", "c.jsonl:2",
    ),
    "split-corpus-end-frame-past-the-int-digit-limit": (
        {"c.jsonl": _corpus_with(clip={"end_frame": 7}, sort_keys=True)["c.jsonl"].replace(
            '"end_frame": 7', '"end_frame": 1' + "0" * 5000
        )},
        _SPLIT_CORPUS, "ManifestParseError", "c.jsonl:2",
    ),
    "split-corpus-video-frame-count-negative": (
        _corpus_with(video={"frame_count": -1}, sort_keys=True), _SPLIT_CORPUS, "ManifestParseError", "c.jsonl:1",
    ),
    "stats-out-in-missing-dir": (
        {"c.jsonl": json.dumps(_GOOD_VIDEO)},
        ["stats", "--corpus", "c.jsonl", "--out", "nodir/x.md"],
        "FileNotFoundError", "nodir",
    ),
    "predictions-csv-not-utf8": (
        {"p.csv": b"sample_id,predicted,label\ns1,\xff,x\n"},
        ["evaluate", "--predictions", "p.csv", "--dataset", "cholec80", "--model", "m"],
        "MetricsError", "p.csv:2",
    ),
    "scores-csv-not-utf8": (
        {"s.csv": b"dataset,model,variant,acc\ncholec80,m,,50\ncholec80,n,,\xfe\n"},
        ["report", "--scores", "s.csv"],
        "MetricsError", "s.csv:3",
    ),
    "scores-acc-not-a-number": (
        {"s.csv": "dataset,model,variant,acc\ncholec80,m,,abc\n"},
        ["report", "--scores", "s.csv"],
        "MetricsError", "s.csv:2",
    ),
    "scores-row-without-acc": (
        {"s.csv": "dataset,model,variant,acc\ncholec80,m,,50\ncholec80,n\n"},
        ["report", "--scores", "s.csv"],
        "MetricsError", "s.csv:3",
    ),
    "predictions-field-past-the-csv-limit": (
        {"p.csv": "sample_id,predicted,label\ns1,x,x\ns2," + "y" * 200_000 + ",x\n"},
        ["evaluate", "--predictions", "p.csv", "--dataset", "cholec80", "--model", "m"],
        "MetricsError", "p.csv:3",
    ),
    "evaluate-out-in-missing-dir": (
        {"p.csv": "sample_id,predicted,label\ns1,x,x\n"},
        ["evaluate", "--predictions", "p.csv", "--dataset", "cholec80", "--model", "m", "--out", "nodir/x.csv"],
        "FileNotFoundError", "nodir",
    ),
}


def _store_bytes(rows, ids) -> bytes:
    """A SURGEMB1 file written by hand: header, payload, id table, SHA-256."""
    body = MAGIC + struct.pack("<QQ", *rows.shape) + rows.astype("<f4").tobytes()
    body += b"".join(struct.pack("<I", len(raw)) + raw for raw in (cid.encode("utf-8") for cid in ids))
    return body + hashlib.sha256(body).digest()


def _set(cells):
    """A store edit that sets rows[index] = value for each index, value in `cells`."""

    def edit(rows, ids):
        for index, value in cells.items():
            rows[index] = value
        return rows, ids

    return edit


_KEEP_TREE = lambda tree: tree  # noqa: E731
_PAYLOAD_BYTE = 24 + 5  # a byte inside row 0 of the 6x3 payload

#: case -> (store edits, tree edit, the typed error, text its message holds); the tree is normalised, over 6x3 rows
_CURATE_FAILURES = {
    "flipped-payload-byte": ({"flip": [_PAYLOAD_BYTE]}, _KEEP_TREE, "ChecksumMismatch", "s.semb"),
    "non-finite-row-after-a-zero-row": (
        {"store": _set({1: 0.0, (4, 2): float("nan")})}, _KEEP_TREE, "NonFiniteValue", "row 4 (c4)",
    ),
    "infinite-row": ({"store": _set({(5, 0): float("-inf")})}, _KEEP_TREE, "NonFiniteValue", "row 5 (c5)"),
    "zero-row-under-a-normalized-tree": ({"store": _set({2: 0.0})}, _KEEP_TREE, "ZeroRow", "row 2"),
    "duplicate-row-id": (
        {"store": lambda rows, ids: (rows, ids[:5] + ["c0"])}, _KEEP_TREE, "DuplicateRowId", "s.semb",
    ),
    "row-count-mismatch": (
        {"store": lambda rows, ids: (rows[:5], ids[:5])}, _KEEP_TREE, "CurationError", "6 points, store has 5",
    ),
    "dimension-mismatch": (
        {"store": lambda rows, ids: (rows[:, :2].copy(), ids)}, _KEEP_TREE, "DimensionMismatch", "dimension 3",
    ),
    "non-finite-row-behind-a-bad-checksum": (
        {"store": _set({(4, 2): float("nan")}), "flip": [_PAYLOAD_BYTE]}, _KEEP_TREE, "ChecksumMismatch", "s.semb",
    ),
    "zero-row-behind-a-bad-checksum": (
        {"store": _set({2: 0.0}), "flip": [_PAYLOAD_BYTE]}, _KEEP_TREE, "ChecksumMismatch", "s.semb",
    ),
    "row-count-mismatch-behind-a-bad-checksum": (
        {"store": lambda rows, ids: (rows[:5], ids[:5]), "flip": [_PAYLOAD_BYTE]}, _KEEP_TREE, "ChecksumMismatch", "s.semb",
    ),
    "zero-row-behind-a-duplicate-id": (
        {"store": lambda rows, ids: _set({2: 0.0})(rows, ids[:5] + ["c0"])}, _KEEP_TREE, "DuplicateRowId", "s.semb",
    ),
    "bad-tree-before-a-bad-store": (
        {"flip": [_PAYLOAD_BYTE]}, lambda tree: tree[:-1] + bytes([tree[-1] ^ 0xFF]), "BadTreeFile", "checksum",
    ),
}


class TestErrorContract:
    @pytest.mark.parametrize("case", _MALFORMED_INPUTS)
    def test_malformed_input_is_one_typed_error_record_exit_1(self, tmp_path, monkeypatch, case):
        files, argv, error, where = _MALFORMED_INPUTS[case]
        monkeypatch.chdir(tmp_path)
        for name, content in files.items():
            (tmp_path / name).write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
        result = CliRunner().invoke(main, argv, env={})
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), repr(result.exception)  # no traceback
        record = json.loads(result.stderr)  # exactly one JSON document
        assert record["error"] == error
        assert where in record["message"]

    @pytest.mark.parametrize(
        "base",
        [CorpusError, StoreError, ClusteringError, CurationError, MixerError, SplitError, MetricsError, RunManifestError],
        ids=lambda base: base.__name__,
    )
    def test_every_layer_error_is_one_record_exit_1(self, tmp_path, monkeypatch, base):
        """A layer's error, whatever its subclass, leaves a command as exit
        code 1 and one JSON record naming the subclass, never a traceback."""
        error = type(f"Some{base.__name__}", (base,), {})

        def fail(path):
            raise error("boom")

        monkeypatch.setattr(cli, "read_corpus_manifest", fail)
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("", encoding="utf-8")
        result = CliRunner().invoke(main, ["stats", "--corpus", str(corpus)], env={})
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), repr(result.exception)  # no traceback
        assert json.loads(result.stderr) == {"error": error.__name__, "message": "boom"}

    def test_failed_sample_keeps_the_old_output(self, tmp_path):
        pool = tmp_path / "pool.txt"
        pool.write_text("a\nb\nc\n", encoding="utf-8")
        (tmp_path / "clinical.txt").write_text("k\n", encoding="utf-8")
        (tmp_path / "empty.txt").write_text("\n", encoding="utf-8")
        out = tmp_path / "batches.jsonl"
        argv = ["sample", "--unlabeled", str(pool), "--batch", "2", "--n", "3", "--out", str(out), "--clinical"]
        umask = os.umask(0o022)
        try:
            assert CliRunner().invoke(main, [*argv, str(tmp_path / "clinical.txt")], env={}).exit_code == 0
            before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
            result = CliRunner().invoke(main, [*argv, str(tmp_path / "empty.txt")], env={})
        finally:
            os.umask(umask)
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"] == "EmptyPool"
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before  # same bytes, no temp file
        assert {stat.S_IMODE(p.stat().st_mode) for p in (out, manifest_path_for(out))} == {0o644}

    @pytest.mark.parametrize("origin", ["flag", "env", "ini"])
    @pytest.mark.parametrize("argv,key,value", _BAD_VALUES, ids=[f"{key}={value}" for _, key, value in _BAD_VALUES])
    def test_bad_value_is_one_config_error_record_exit_2(self, tmp_path, origin, argv, key, value):
        env = {}
        if origin == "flag":
            argv = [*argv, f"--{key.replace('_', '-')}", value]
        elif origin == "env":
            env = {f"SURGCURATE_{key.upper()}": value}
        else:
            ini = tmp_path / "surg.ini"
            ini.write_text(f"[{argv[0]}]\n{key} = {value}\n", encoding="utf-8")
            argv = [*argv, "--config", str(ini)]
        result = CliRunner().invoke(main, argv, env=env)
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        record = json.loads(result.stderr)  # exactly one JSON document
        assert record["error"] == "ConfigError"
        assert key in record["message"]

    def test_missing_store_is_input_missing_exit_2(self, tmp_path):
        result = CliRunner().invoke(
            main,
            ["cluster", "--store", str(tmp_path / "absent.semb"), "--out", str(tmp_path / "t.sctree"), "--levels", "4"],
            env={},
        )
        assert result.exit_code == 2
        record = json.loads(result.output.strip().splitlines()[-1])
        assert record["error"] == "InputMissing"

    def test_bad_config_key_exit_2(self, tmp_path):
        ini = tmp_path / "surg.ini"
        ini.write_text("[cluster]\nbogus = 1\n", encoding="utf-8")
        result = CliRunner().invoke(
            main,
            ["cluster", "--store", "x", "--out", "y", "--config", str(ini)],
            env={},
        )
        assert result.exit_code == 2
        record = json.loads(result.output.strip().splitlines()[-1])
        assert record["error"] == "ConfigError"

    def test_chunk_size_is_not_an_option(self, tmp_path):
        # the Lloyd chunk is fixed in code, so a tree is a function of the seed alone
        ini = tmp_path / "surg.ini"
        ini.write_text("[cluster]\nchunk_size = 8\n", encoding="utf-8")
        result = CliRunner().invoke(main, ["cluster", "--store", "x", "--out", "y", "--config", str(ini)], env={})
        assert result.exit_code == 2
        record = json.loads(result.stderr)  # exactly one JSON document
        assert record["error"] == "ConfigError"
        assert "chunk_size" in record["message"]
        assert "--chunk-size" not in CliRunner().invoke(main, ["cluster", "--help"], env={}).output

    def test_operational_error_exit_1(self, tmp_path):
        bad = tmp_path / "bad.semb"
        bad.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        result = CliRunner().invoke(
            main,
            ["cluster", "--store", str(bad), "--out", str(tmp_path / "t.sctree"), "--levels", "4"],
            env={},
        )
        assert result.exit_code == 1
        record = json.loads(result.output.strip().splitlines()[-1])
        assert record["error"] == "BadMagic"

    def test_truncated_tree_is_a_json_error_exit_1(self, tmp_path):
        store = write_store(EmbeddingMatrix(np.zeros((4, 2), dtype=np.float32), ["a", "b", "c", "d"]), tmp_path / "s.semb")
        body = TREE_MAGIC + struct.pack("<QQ", 3, 16)  # 3 levels claimed, body ends after 24 bytes
        tree = tmp_path / "t.sctree"
        tree.write_bytes(body + hashlib.sha256(body).digest())
        result = CliRunner().invoke(
            main,
            ["curate", "--store", str(store), "--tree", str(tree), "--out", str(tmp_path / "c.jsonl")],
            env={},
        )
        assert result.exit_code == 1
        record = json.loads(result.output.strip().splitlines()[-1])
        assert record["error"] == "BadTreeFile"

    def test_bad_tree_structure_is_a_json_error_exit_1(self, tmp_path):
        rng = np.random.default_rng(0)
        matrix = EmbeddingMatrix(rng.standard_normal((40, 3)).astype(np.float32), [f"c{i:02d}" for i in range(40)])
        store = write_store(matrix, tmp_path / "s.semb")
        tree = build_hierarchy(matrix, [8, 2], seed=0)
        tree.levels[0].assignments[5] = 40  # past level size 8; to_bytes re-signs
        (tmp_path / "t.sctree").write_bytes(tree.to_bytes())
        result = CliRunner().invoke(
            main,
            ["curate", "--store", str(store), "--tree", str(tmp_path / "t.sctree"), "--out", str(tmp_path / "c.jsonl")],
            env={},
        )
        assert result.exit_code == 1
        record = json.loads(result.output.strip().splitlines()[-1])
        assert record["error"] == "BadTreeFile"

    @pytest.mark.parametrize("case", _CURATE_FAILURES)
    def test_curate_failure_is_one_typed_record_and_no_output(self, tmp_path, monkeypatch, case):
        """Store errors in today's order (sizes, checksum, ids, then rows: a
        non-finite row before an all-zero one), then a store that does not
        fit the tree; a bad tree is read, and fails, before the store. Rows
        stream in blocks of two, so a zero row and a later non-finite row
        lie in different blocks."""
        monkeypatch.setattr(store_module, "ROW_BLOCK", 2)
        edits, tree_edit, error, message = _CURATE_FAILURES[case]
        rows = np.arange(1, 19, dtype=np.float32).reshape(6, 3)
        ids = [f"c{i}" for i in range(6)]
        tree = build_hierarchy(EmbeddingMatrix(rows, ids), [2], seed=0, normalized=True).to_bytes()
        store = bytearray(_store_bytes(*edits.get("store", lambda r, i: (r, i))(rows.copy(), ids)))
        for offset in edits.get("flip", ()):
            store[offset] ^= 0xFF
        (tmp_path / "s.semb").write_bytes(bytes(store))
        (tmp_path / "t.sctree").write_bytes(tree_edit(tree))
        out = tmp_path / "c.jsonl"
        result = CliRunner().invoke(
            main, ["curate", "--store", str(tmp_path / "s.semb"), "--tree", str(tmp_path / "t.sctree"), "--out", str(out)],
            env={},
        )
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), repr(result.exception)  # no traceback
        record = json.loads(result.stderr)  # exactly one JSON document
        assert record["error"] == error
        assert message in record["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.semb", "t.sctree"]

    def test_store_and_tree_dimension_mismatch_is_a_json_error_exit_1(self, tmp_path):
        rng = np.random.default_rng(0)
        ids = [f"c{i:02d}" for i in range(10)]
        store = write_store(EmbeddingMatrix(rng.standard_normal((10, 5)).astype(np.float32), ids), tmp_path / "s.semb")
        tree = build_hierarchy(EmbeddingMatrix(rng.standard_normal((10, 3)).astype(np.float32), ids), [4], seed=0)
        tree.save(tmp_path / "t.sctree")
        result = CliRunner().invoke(
            main,
            ["curate", "--store", str(store), "--tree", str(tmp_path / "t.sctree"), "--out", str(tmp_path / "c.jsonl")],
            env={},
        )
        assert result.exit_code == 1
        record = json.loads(result.stderr)  # exactly one JSON document
        assert record["error"] == "DimensionMismatch"
        assert "dimension 3" in record["message"] and "5" in record["message"]
        assert not (tmp_path / "c.jsonl").exists()

    def test_report_with_mixed_domain_dataset(self, tmp_path):
        scores = tmp_path / "s.csv"
        scores.write_text(
            "dataset,model,variant,acc\n"
            "cataract-101,m,,60\njigsaws,m,,70\nhyperkvasir,m,,50\ncholec80,m,,40\navos,m,,10\n",
            encoding="utf-8",
        )
        result = CliRunner().invoke(main, ["report", "--scores", str(scores)], env={})
        assert result.exit_code == 0, result.output
        # overall and worst cover the four clinical domains, not avos (Mixed)
        assert "| m | 60.00 | 70.00 | 50.00 | 40.00 | 55.00 | 40.00 |" in result.output


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """The 2,000-clip fixture corpus staged for CLI runs."""
    root = tmp_path_factory.mktemp("pipeline")
    paths = write_fixture_corpus(root, raw_blobs=True)
    return root, paths


class TestFullPipeline:
    def _run(self, args, **kwargs):
        result = CliRunner().invoke(main, args, env={}, **kwargs)
        assert result.exit_code == 0, result.output
        return result

    def test_end_to_end(self, pipeline_dir):
        root, paths = pipeline_dir
        store = root / "ingested.semb"
        tree = root / "tree.sctree"
        curated = root / "curated.jsonl"
        batches = root / "batches.jsonl"
        split_manifest = root / "split.json"
        scores = root / "scores.csv"
        report_out = root / "report.md"
        stats_out = root / "stats.md"

        self._run(["ingest", "--blobs", str(paths["raw_blobs"]), "--ids", str(paths["raw_ids"]), "--out", str(store), "--dim", "64"])
        assert store.read_bytes() == paths["store"].read_bytes()  # same matrix either way

        self._run(["cluster", "--store", str(store), "--out", str(tree), "--levels", "16,4", "--seed", "11"])
        self._run(["curate", "--store", str(store), "--tree", str(tree), "--out", str(curated), "--fraction", "0.10"])
        assert len(curated.read_text("utf-8").splitlines()) == 161  # header + 160 clips

        self._run([
            "sample", "--unlabeled", str(curated), "--clinical", str(paths["clinical_ids"]),
            "--out", str(batches), "--batch", "16", "--n", "50", "--seed", "11",
        ])
        assert len(batches.read_text("utf-8").splitlines()) == 51

        self._run([
            "split", "--dataset", "web-edu", "--corpus", str(paths["corpus"]),
            "--seed", "11", "--out", str(split_manifest),
        ])
        manifest = SplitManifest.load(split_manifest)
        assert manifest.counts()[list(manifest.counts())[0]] >= 0  # parses
        self._run(["split", "verify", "--manifest", str(split_manifest), "--corpus", str(paths["corpus"])])

        preds = root / "preds.csv"
        preds.write_text(
            "sample_id,predicted,label\n" + "\n".join(
                f"s{i},{'x' if i < 3 else 'y'},x" for i in range(7)
            ) + "\n",
            encoding="utf-8",
        )
        result = self._run(["evaluate", "--predictions", str(preds), "--dataset", "cholec80", "--model", "demo", "--out", str(scores)])
        assert "42.86" in result.output

        self._run(["report", "--scores", str(scores), "--out", str(report_out)])
        assert "cholec80" in report_out.read_text("utf-8")

        self._run(["report", "--reference", "--out", str(root / "reference.md")])
        assert "**38.05**" in (root / "reference.md").read_text("utf-8")

        self._run(["stats", "--corpus", str(paths["corpus"]), "--scale-comparison", "--out", str(stats_out)])
        text = stats_out.read_text("utf-8")
        assert "2,000" in text and "Ours" in text

    def test_run_manifests_written_and_verifiable(self, pipeline_dir):
        root, paths = pipeline_dir
        tree = root / "tree.sctree"
        manifest = RunManifest.load(root / "tree.sctree.run.json")
        assert manifest.command == "cluster"
        assert manifest.config["levels"] == [16, 4]
        schema_keys = {o.name for o in SCHEMAS["global"] + SCHEMAS["cluster"]}
        assert set(manifest.config) == schema_keys | {"workers_effective"}
        assert set(manifest.seeds) == {"root", "cluster"}
        assert manifest.seeds["root"] == 11
        assert manifest.verify_inputs() == []
        assert str(tree) in manifest.outputs

    def test_run_manifests_record_the_sha256_of_each_file(self, pipeline_dir):
        """Every fingerprint, whether taken while the command read or wrote
        the file or by fingerprint_file afterwards, is the file's SHA-256."""
        root, _ = pipeline_dir
        runs = {p.name: RunManifest.load(p) for p in root.glob("*.run.json")}
        assert set(runs) == {
            f"{name}.run.json"
            for name in ("ingested.semb", "tree.sctree", "curated.jsonl", "batches.jsonl", "split.json",
                         "scores.csv", "report.md", "reference.md", "stats.md")
        }
        assert str(root / "ingested.semb") in runs["tree.sctree.run.json"].inputs
        for name, run in runs.items():
            for path, digest in {**run.inputs, **run.outputs}.items():
                assert digest == hashlib.sha256(Path(path).read_bytes()).hexdigest(), (name, path)

    def test_run_manifest_records_the_bytes_cluster_read(self, tmp_path, monkeypatch):
        """A store replaced while cluster runs is recorded with the bytes
        read_store read, and verify_inputs reports it as stale."""
        store = write_fixture_corpus(tmp_path, dim=8)["store"]
        read = store.read_bytes()

        def build_then_replace(*args, _build=cli.build_hierarchy, **kwargs):
            store.write_bytes(read[::-1])
            return _build(*args, **kwargs)

        monkeypatch.setattr(cli, "build_hierarchy", build_then_replace)
        tree = tmp_path / "t.sctree"
        self._run(["cluster", "--store", str(store), "--levels", "4", "--out", str(tree)])
        run = RunManifest.load(manifest_path_for(tree))
        assert run.inputs == {str(store): hashlib.sha256(read).hexdigest()}
        assert run.verify_inputs() == [str(store)]

    def test_run_manifest_records_the_tree_bytes_curate_read(self, tmp_path, monkeypatch):
        """A tree replaced once ClusterTree.load has read it is recorded with
        the bytes load parsed, and verify_inputs reports it as stale."""
        store = write_fixture_corpus(tmp_path, dim=8)["store"]
        tree, curated = tmp_path / "t.sctree", tmp_path / "c.jsonl"
        self._run(["cluster", "--store", str(store), "--levels", "4", "--out", str(tree)])
        read = tree.read_bytes()

        def replace_then_curate(*args, _curate=cli.curate, **kwargs):
            tree.write_bytes(read[::-1])
            return _curate(*args, **kwargs)

        monkeypatch.setattr(cli, "curate", replace_then_curate)
        self._run(["curate", "--store", str(store), "--tree", str(tree), "--out", str(curated)])
        run = RunManifest.load(manifest_path_for(curated))
        assert run.inputs[str(tree)] == hashlib.sha256(read).hexdigest()
        assert run.verify_inputs() == [str(tree)]

    @pytest.mark.parametrize(
        "command,wrapped,replaced",
        [
            ("sample", "write_batch_manifest", "unlabeled"),
            ("sample", "write_batch_manifest", "clinical"),
            ("split", "generate_split_manifest", "corpus"),
            ("stats", "corpus_stats", "corpus"),
        ],
    )
    def test_run_manifest_records_the_input_bytes_read(self, tmp_path, monkeypatch, command, wrapped, replaced):
        """An input replaced once the command has read it is recorded with
        the bytes the reader read, and verify_inputs reports it as stale."""
        paths = write_fixture_corpus(tmp_path, dim=8)
        inputs = {"corpus": paths["corpus"], "clinical": paths["clinical_ids"], "unlabeled": tmp_path / "u.txt"}
        inputs["unlabeled"].write_text("x1\nx2\n", encoding="utf-8")
        path = inputs[replaced]
        read = path.read_bytes()

        def replace_then_run(*args, _fn=getattr(cli, wrapped), **kwargs):
            path.write_bytes(read + b"\n")
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cli, wrapped, replace_then_run)
        out = tmp_path / "out"
        argv = {
            "sample": ["sample", "--unlabeled", str(inputs["unlabeled"]), "--clinical", str(inputs["clinical"]),
                       "--n", "3"],
            "split": ["split", "--dataset", "web-edu", "--corpus", str(inputs["corpus"])],
            "stats": ["stats", "--corpus", str(inputs["corpus"])],
        }[command]
        self._run([*argv, "--out", str(out)])
        run = RunManifest.load(manifest_path_for(out))
        assert run.inputs[str(path)] == hashlib.sha256(read).hexdigest()
        assert run.verify_inputs() == [str(path)]
        assert run.outputs[str(out)] == hashlib.sha256(out.read_bytes()).hexdigest()

    def test_split_tiers_from_external_files(self, tmp_path):
        official = tmp_path / "official.json"
        official.write_text(json.dumps({"v1": "train", "v2": "test"}), encoding="utf-8")
        community = tmp_path / "community.json"
        community.write_text(json.dumps({"v1": "test", "v2": "train"}), encoding="utf-8")
        out = tmp_path / "manifest.json"

        # official wins even when a community split is offered
        result = self._run([
            "split", "--dataset", "multibypass140", "--official", str(official),
            "--community", str(community), "--out", str(out),
        ])
        assert "tier Official" in result.output
        manifest = SplitManifest.load(out)
        assert manifest.tier.value == "Official"
        assert manifest.assignment["v1"].value == "train"

        result = self._run([
            "split", "--dataset", "d", "--community", str(community), "--out", str(out),
        ])
        assert "tier Community" in result.output

    def test_stratified_split_cli(self, tmp_path):
        videos = tmp_path / "videos.txt"
        videos.write_text("\n".join([f"a{i}" for i in range(10)] + [f"b{i}" for i in range(10)]), encoding="utf-8")
        strata = tmp_path / "strata.json"
        strata.write_text(json.dumps({f"{p}{i}": p for p in "ab" for i in range(10)}), encoding="utf-8")
        out = tmp_path / "manifest.json"
        self._run([
            "split", "--dataset", "d", "--videos", str(videos),
            "--stratify-by", str(strata), "--seed", "3", "--out", str(out),
        ])
        manifest = SplitManifest.load(out)
        for prefix in "ab":
            from collections import Counter

            counts = Counter(s.value for v, s in manifest.assignment.items() if v.startswith(prefix))
            assert (counts["train"], counts["val"], counts["test"]) == (7, 2, 1)

    def test_split_verify_flags_contaminated_manifest(self, pipeline_dir, tmp_path):
        root, paths = pipeline_dir
        manifest = SplitManifest.load(root / "split.json")
        # fabricate a manifest that drops one video: its clips become unassigned
        broken = dict(manifest.assignment)
        victim = sorted(broken)[0]
        del broken[victim]
        from surgcurate.splits import SplitTier, make_manifest

        bad = make_manifest("web-edu", broken, SplitTier.OURS, seed=0, ratios=(7, 2, 1))
        bad_path = tmp_path / "bad_split.json"
        bad.save(bad_path)
        result = CliRunner().invoke(
            main,
            ["split", "verify", "--manifest", str(bad_path), "--corpus", str(paths["corpus"])],
            env={"SURGCURATE_SEED": "abc"},  # verify resolves no config, so this bad value is never read
        )
        assert result.exit_code == 1
        assert "unassigned video" in result.output
