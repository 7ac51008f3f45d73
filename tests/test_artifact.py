"""The artifact I/O path: atomic writes, typed decoding, the binary parsers
under mutation, and a guard that no other module writes a file itself."""

import ast
import hashlib
import io
import json
import os
import stat
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import surgcurate
from surgcurate.artifact import (
    forget_digests,
    id_lines,
    iter_jsonl,
    noted_digests,
    read_json,
    read_lines,
    write_atomic,
)
from surgcurate.clustering import TREE_MAGIC, BadTreeFile, ClusterTree, build_hierarchy
from surgcurate.manifest import RunManifest, RunManifestError
from surgcurate.store import MAGIC, EmbeddingMatrix, SizeMismatch, StoreError, read_store, write_store

#: ids holding each line boundary of str.splitlines() but `\n` and `\r`
_LINE_BOUNDARY_IDS = ["a\x85b", "c\u2028d", "e\u2029f", "g\x1ch", "i\x1dj", "k\x1el", "m\x0bn", "o\x0cp"]


class Malformed(Exception):
    pass


def _json_loads(line: bytes):
    return json.loads(line.decode("utf-8"))


def _jsonl_reference(raw: bytes):
    """(documents, None), or (None, "line: Class: message") for the first bad
    line: json.loads on each line that is not bytes.isspace() whitespace."""
    docs = []
    for lineno, line in enumerate(io.BytesIO(raw), start=1):
        if line.isspace():
            continue
        try:
            docs.append(repr(_json_loads(line)))
        except ValueError as exc:
            return None, f"{lineno}: {type(exc).__name__}: {exc}"
    return docs, None


_LINES = [
    pytest.param(b'\xef\xbb\xbf{"id": "a"}\n', id="bom"),
    pytest.param(b"\xef\xbb\xbf\n", id="bom-only"),
    pytest.param(b"NaN\n", id="nan"),
    pytest.param(b'{"x": -Infinity, "y": Infinity, "z": 1e400}\n', id="infinity"),
    pytest.param(b'{"id": "a"} x\n', id="trailing-text"),
    pytest.param(b'{"id": "a"}{"id": "b"}\n', id="trailing-document"),
    pytest.param(b"1 2", id="trailing-number"),
    pytest.param(b'{"id": "a"}\x0b\n', id="trailing-vt"),
    pytest.param(b"\x0b\n", id="vt-only"),
    pytest.param(b"\x0c", id="ff-only"),
    pytest.param(b"\r\n", id="crlf-only"),
    pytest.param(b' \t{"id": "a"} \r\n', id="crlf-padded"),
    pytest.param(b'{"id": "\xff"}\n', id="not-utf8"),
    pytest.param(b'{"id": "\xc3', id="truncated-utf8"),
    pytest.param(b"", id="empty-final-line"),
    pytest.param(b"  \t\n", id="blank"),
    pytest.param(b'{"id": }\n', id="missing-value"),
    pytest.param(b'{"id": "a",}\n', id="trailing-comma"),
    pytest.param(b'"\\ud800"\n', id="lone-surrogate-escape"),
    pytest.param(b"\x00\n", id="nul"),
]

#: Lines from JSON-ish text, valid documents with whitespace or junk around
#: them, and arbitrary bytes.
_PADDING = st.sampled_from(["", " ", "\t", "\n", "\r\n", "\x0b", "\x0c", "\ufeff", "\xa0", "x", " 1", "{"])
_DOCUMENTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
).map(json.dumps)
_LINE_BYTES = st.one_of(
    st.tuples(_PADDING, _DOCUMENTS, _PADDING).map(lambda t: "".join(t).encode("utf-8")),
    st.text(alphabet=' \t\r\n\x0b\x0c\ufeff{}[]":,.-+eE019aflnrstuNIy\\', max_size=24).map(str.encode),
    st.binary(max_size=24),
)

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


class TestRunManifestLoad:
    @pytest.mark.parametrize("text", ["not json", "[]", '{"command": "x"}', '{"command": "x", "config": {}, "bogus": 1}'])
    def test_garbage_is_a_typed_error_naming_the_file(self, tmp_path, text):
        path = tmp_path / "out.run.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(RunManifestError, match=str(path)) as caught:
            RunManifest.load(path)
        assert isinstance(caught.value, surgcurate.artifact.SurgcurateError)


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

    @pytest.mark.parametrize("line", _LINES)
    def test_jsonl_names_the_json_loads_error_class(self, tmp_path, line):
        """A file of one good line and then `line`: the same documents as
        json.loads line by line, or the same class and message at path:2."""
        self._assert_jsonl_matches_reference(tmp_path / "x.jsonl", b'{"id": "a"}\n' + line)

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(_LINE_BYTES, max_size=4))
    def test_jsonl_matches_json_loads_on_any_bytes(self, tmp_path_factory, lines):
        """Any bytes, split into lines however they fall: the documents or
        the first bad line's path:line, class and message of json.loads."""
        path = tmp_path_factory.mktemp("jsonl") / "x.jsonl"
        self._assert_jsonl_matches_reference(path, b"\n".join(lines))

    @staticmethod
    def _assert_jsonl_matches_reference(path, raw):
        path.write_bytes(raw)
        want_docs, want_error = _jsonl_reference(raw)
        try:
            got_docs, got_error = [repr(doc) for doc in iter_jsonl(path, Malformed, lambda doc: doc)], None
        except Malformed as exc:
            got_docs, got_error = None, str(exc)
        if want_error is None:
            assert (got_docs, got_error) == (want_docs, None)
        else:
            assert got_error == f"{path}:{want_error}"

    def test_jsonl_notes_the_digest_of_a_whole_read_only(self, tmp_path):
        """Every line is hashed, blank ones too; a read that stops early or
        fails notes nothing."""
        path = tmp_path / "x.jsonl"
        raw = b'\n{"id": "a"}\r\n  \n{"id": "b"}'
        path.write_bytes(raw)
        forget_digests()
        partial = iter_jsonl(path, Malformed, lambda doc: doc["id"])
        assert next(partial) == "a"
        partial.close()
        assert noted_digests("read") == {}
        assert list(iter_jsonl(path, Malformed, lambda doc: doc["id"])) == ["a", "b"]
        assert noted_digests("read") == {str(path): hashlib.sha256(raw).hexdigest()}
        forget_digests()
        path.write_bytes(raw + b"\nnot json\n")
        with pytest.raises(Malformed):
            list(iter_jsonl(path, Malformed, lambda doc: doc["id"]))
        assert noted_digests("read") == {}

    def test_whole_file_helpers_note_the_bytes_they_read_or_wrote(self, tmp_path):
        forget_digests()
        ids, doc = tmp_path / "ids.txt", tmp_path / "x.json"
        write_atomic(ids, ["a\n", b"b\n"])
        write_atomic(doc, ['{"a": 1}'])
        assert noted_digests("written")[str(ids)] == hashlib.sha256(b"a\nb\n").hexdigest()
        assert read_lines(ids, Malformed) == ["a", "b"]
        assert read_json(doc, Malformed, lambda d: d["a"]) == 1
        digests = {str(path): hashlib.sha256(path.read_bytes()).hexdigest() for path in (ids, doc)}
        assert noted_digests("read") == noted_digests("written") == digests

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
        assert read_lines(path, Malformed) == ["a", "b"]
        path.write_bytes(b"a\r\n\nb\xc3\n")
        with pytest.raises(Malformed, match="ids.txt:3: UnicodeDecodeError: "):
            read_lines(path, Malformed)

    def test_read_lines_ends_lines_at_newline_only(self, tmp_path):
        """Every other boundary str.splitlines() knows stays inside its id."""
        path = tmp_path / "ids.txt"
        ids = _LINE_BOUNDARY_IDS
        path.write_text("\n".join(ids) + "\r\n", encoding="utf-8")
        assert read_lines(path, Malformed) == ids
        assert id_lines("\n".join(ids)) == ids


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

    @pytest.mark.parametrize("n_rows,dim", [(0, 2**62), (0, 2**60), (2**62, 0), (2**64 - 1, 0)])  # 2**60: past the f64 axis
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
