"""The artifact I/O path: atomic writes, typed decoding, the binary parsers
under mutation, and a guard that no other module writes a file itself."""

import ast
import hashlib
import os
import stat
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import surgcurate
from surgcurate.artifact import iter_jsonl, read_json, read_lines, write_atomic
from surgcurate.clustering import TREE_MAGIC, BadTreeFile, ClusterTree, build_hierarchy
from surgcurate.store import MAGIC, EmbeddingMatrix, SizeMismatch, StoreError, read_store, write_store


class Malformed(Exception):
    pass


class TestWriteAtomic:
    def test_chunks_are_bytes_or_utf8_text_and_mode_follows_umask(self, tmp_path):
        old = os.umask(0o022)
        try:
            path = write_atomic(tmp_path / "a.bin", [b"ab", "cé", b""])
        finally:
            os.umask(old)
        assert path.read_bytes() == b"abc\xc3\xa9"
        assert stat.S_IMODE(path.stat().st_mode) == 0o644
        assert os.listdir(tmp_path) == ["a.bin"]

    def test_failed_write_keeps_old_bytes_and_no_temp_file(self, tmp_path):
        path = write_atomic(tmp_path / "a.txt", ["old\n"])

        def chunks():
            yield "new and half written"
            raise RuntimeError("producer failed")

        with pytest.raises(RuntimeError):
            write_atomic(path, chunks())
        assert path.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["a.txt"]

    def test_missing_directory_is_an_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            write_atomic(tmp_path / "nodir" / "a.txt", ["x"])
        assert os.listdir(tmp_path) == []


class TestDecode:
    @pytest.mark.parametrize(
        "raw,line,cause",
        [
            (b'{"id": "a"}\n\n{"id": "b"}\nnot json\n', 4, "JSONDecodeError"),
            (b'{"id": "a"}\n{"name": "b"}\n', 2, "KeyError"),
            (b'{"id": "a"}\n["b"]\n', 2, "TypeError"),
            (b'{"id": "a"}\n{"id": "\xff"}\n', 2, "UnicodeDecodeError"),
            (b'{"id": "a"}\n{"id": ""}\n', 2, "Malformed"),
        ],
        ids=["bad-json", "missing-key", "wrong-type", "not-utf8", "parse-error"],
    )
    def test_jsonl_malformed_line_is_the_typed_error_at_path_line(self, tmp_path, raw, line, cause):
        path = tmp_path / "x.jsonl"
        path.write_bytes(raw)

        def parse(doc):
            if not doc["id"]:
                raise Malformed("empty id")
            return doc["id"]

        with pytest.raises(Malformed, match=f"x.jsonl:{line}: {cause}: "):
            list(iter_jsonl(path, Malformed, parse))

    def test_jsonl_skips_blank_lines(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_bytes(b'\n{"id": "a"}\r\n  \n{"id": "b"}')
        assert list(iter_jsonl(path, Malformed, lambda doc: doc["id"])) == ["a", "b"]

    def test_json_document(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_bytes(b'{"a": [1, 2]}')
        assert read_json(path, Malformed, lambda doc: doc["a"]) == [1, 2]
        for raw, cause in ((b"[1, 2]", "TypeError"), (b'{"a": ', "JSONDecodeError"), (b'{"\xfe": 1}', "UnicodeDecodeError")):
            path.write_bytes(raw)
            with pytest.raises(Malformed, match=f"x.json: {cause}: "):
                read_json(path, Malformed, lambda doc: doc["a"])

    def test_read_lines(self, tmp_path):
        path = tmp_path / "ids.txt"
        path.write_bytes(b"  a \n\nb\r\n\n")
        assert read_lines(path) == ["a", "b"]


def _store_blob(tmp_path, n_rows: int) -> bytes:
    data = np.arange(2 * n_rows, dtype=np.float32).reshape(n_rows, 2)
    return write_store(EmbeddingMatrix(data, ["a", "bb", "ccc"][:n_rows]), tmp_path / "seed.semb").read_bytes()


def _tree_blob() -> bytes:
    points = np.random.default_rng(0).standard_normal((12, 2)).astype(np.float32)
    return build_hierarchy(points, [3, 2], seed=0).to_bytes()


_U64 = st.one_of(st.sampled_from([0, 1, 2**32, 2**61 - 1, 2**61, 2**62, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1))
_POSITIONS = st.one_of(st.integers(0, 127), st.integers(0, 2**16))  # mostly the headers
_MUTATIONS = st.lists(st.tuples(st.sampled_from(["truncate", "flip", "u64"]), _POSITIONS, _U64), min_size=1, max_size=3)


def _mutate(blob: bytes, mutations, resign: bool) -> bytes:
    """Truncate, flip a byte or overwrite a little-endian u64; with `resign`
    the body is mutated and its SHA-256 trailer recomputed."""
    data = bytearray(blob[:-32] if resign else blob)
    for kind, pos, value in mutations:
        pos %= len(data) + 1
        if kind == "truncate":
            del data[pos:]
        elif kind == "flip" and pos < len(data):
            data[pos] ^= value % 255 + 1
        elif kind == "u64":
            data[pos : pos + 8] = value.to_bytes(8, "little")
    return bytes(data) + (hashlib.sha256(data).digest() if resign else b"")


class TestBinaryParsers:
    @settings(max_examples=300, deadline=None)
    @given(n_rows=st.sampled_from([3, 0]), mutations=_MUTATIONS, resign=st.booleans())
    @example(n_rows=3, mutations=[("u64", 8, 0), ("u64", 16, 2**62)], resign=True)
    def test_mutated_store_raises_only_store_errors(self, tmp_path_factory, n_rows, mutations, resign):
        tmp = tmp_path_factory.getbasetemp()
        path = tmp / "fuzz.semb"
        path.write_bytes(_mutate(_store_blob(tmp, n_rows), mutations, resign))
        try:
            read_store(path)
        except StoreError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(mutations=_MUTATIONS, resign=st.booleans())
    @example(mutations=[("u64", 49, 0), ("u64", 57, 2**62)], resign=True)  # level 0 rows, dim
    def test_mutated_tree_raises_only_bad_tree_file(self, mutations, resign):
        try:
            ClusterTree.from_bytes(_mutate(_tree_blob(), mutations, resign))
        except BadTreeFile:
            pass

    @pytest.mark.parametrize("n_rows,dim", [(0, 2**62), (2**62, 0), (2**64 - 1, 0)])
    def test_store_header_beyond_any_array(self, tmp_path, n_rows, dim):
        body = MAGIC + struct.pack("<QQ", n_rows, dim)
        path = tmp_path / "s.semb"
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(SizeMismatch):
            read_store(path)

    def test_empty_store_keeps_its_dimension(self, tmp_path):
        path = write_store(EmbeddingMatrix(np.zeros((0, 768), dtype=np.float32), []), tmp_path / "s.semb")
        assert read_store(path).data.shape == (0, 768)

    @pytest.mark.parametrize("rows,dim", [(0, 2**62), (2**62, 0)])
    def test_tree_level_beyond_any_array(self, rows, dim):
        body = TREE_MAGIC + struct.pack("<QQQdB", 1, 1, 0, 1e-4, 0) + struct.pack("<QQQ", rows, dim, 0)
        with pytest.raises(BadTreeFile, match="cannot fit"):
            ClusterTree.from_bytes(body + hashlib.sha256(body).digest())


def _file_writes(module: ast.AST):
    """(line, call) for every write_text/write_bytes call and every open()
    whose literal mode writes, appends, creates or updates."""
    for node in ast.walk(module):
        if not isinstance(node, ast.Call):
            continue
        name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
        if name in ("write_text", "write_bytes"):
            yield node.lineno, name
        elif name == "open":
            modes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
            if any(isinstance(m, ast.Constant) and set(str(m.value)) & set("wax+") for m in modes):
                yield node.lineno, "open"


def test_only_the_artifact_module_writes_files():
    assert len(list(_file_writes(ast.parse("open(p, 'a'); open(p, mode='wb'); p.write_text(t); open(p); os.open(p, f)")))) == 3
    package = Path(surgcurate.__file__).parent
    writes = [
        f"{path.name}:{line}: {call}"
        for path in sorted(package.glob("*.py"))
        if path.name != "artifact.py"
        for line, call in _file_writes(ast.parse(path.read_text("utf-8")))
    ]
    assert writes == [], "write through artifact.write_atomic instead"
