import hashlib
import io
import struct
import sys
import tempfile
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from surgcurate import store, storefile
from surgcurate.artifact import forget_digests, noted_digests
from surgcurate.store import (
    BadMagic,
    BadRowId,
    ChecksumMismatch,
    DuplicateRowId,
    EmbeddingMatrix,
    NonFiniteValue,
    SizeMismatch,
    StoreError,
    ZeroRow,
    l2_normalize,
    read_store,
    write_store,
)

from surgcurate.storefile import first_nonfinite_row, ingest_raw_blobs

from .oracles import l2_normalize_reference

B = 4  # ROW_BLOCK while a test runs, so small matrices span several blocks
BLOCK_SIZES = [0, 1, B - 1, B, B + 1, 3 * B + 7]


def _matrix(n=4, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, dim)).astype(np.float32)
    return EmbeddingMatrix(data, [f"clip{i:03d}" for i in range(n)])


def _rebuild_with_payload(path, transform):
    """Apply `transform` to the payload and re-sign the checksum, so the
    mutation is reachable by the post-checksum validators."""
    blob = bytearray(path.read_bytes())
    body = blob[:-32]
    transform(body)
    path.write_bytes(bytes(body) + hashlib.sha256(bytes(body)).digest())


class TestRoundtrip:
    def test_exact_layout_size(self, tmp_path):
        m = _matrix(2, 3)
        path = write_store(m, tmp_path / "s.semb")
        id_table = sum(4 + len(rid.encode()) for rid in m.row_ids)
        assert path.stat().st_size == 8 + 16 + 2 * 3 * 4 + id_table + 32

    def test_bit_exact_roundtrip(self, tmp_path):
        m = _matrix(7, 5, seed=3)
        path = write_store(m, tmp_path / "s.semb")
        back = read_store(path)
        assert back.row_ids == m.row_ids
        assert back.data.tobytes() == m.data.astype(np.float64).tobytes()

    def test_write_is_byte_deterministic(self, tmp_path):
        m = _matrix(6, 4, seed=9)
        p1 = write_store(m, tmp_path / "a.semb")
        p2 = write_store(m, tmp_path / "b.semb")
        assert p1.read_bytes() == p2.read_bytes()

    @settings(max_examples=30, deadline=None)
    @given(
        data=hnp.arrays(
            np.float32,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
            elements=st.floats(-1e6, 1e6, width=32),
        )
    )
    def test_roundtrip_property(self, tmp_path_factory, data):
        tmp = tmp_path_factory.mktemp("store")
        m = EmbeddingMatrix(data, [f"r{i}" for i in range(data.shape[0])])
        back = read_store(write_store(m, tmp / "s.semb"))
        assert back.data.tobytes() == m.data.astype(np.float64).tobytes()
        assert back.row_ids == m.row_ids

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_block_pass_lands_every_row_and_notes_the_file(self, tmp_path, monkeypatch, n):
        """ROW_BLOCK-row blocks land in their rows of the returned array,
        the last one short; the noted digest is the whole file's."""
        monkeypatch.setattr(store, "ROW_BLOCK", B)
        m = _matrix(n, 3, seed=n)
        path = write_store(m, tmp_path / "s.semb")
        forget_digests()
        back = read_store(path)
        assert back.data.shape == (n, 3) and back.data.flags.c_contiguous
        assert back.data.tobytes() == m.data.astype(np.float64).tobytes()
        assert back.row_ids == m.row_ids
        assert noted_digests("read") == {str(path): hashlib.sha256(path.read_bytes()).hexdigest()}


class TestCorruption:
    def test_truncation(self, tmp_path):
        path = write_store(_matrix(5, 4), tmp_path / "s.semb")
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(SizeMismatch):
            read_store(path)

    def test_bad_magic(self, tmp_path):
        path = write_store(_matrix(), tmp_path / "s.semb")
        blob = bytearray(path.read_bytes())
        blob[:8] = b"NOTMAGIC"
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagic):
            read_store(path)

    def test_checksum_flip(self, tmp_path):
        path = write_store(_matrix(), tmp_path / "s.semb")
        blob = bytearray(path.read_bytes())
        blob[30] ^= 0xFF  # payload byte; checksum no longer matches
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumMismatch):
            read_store(path)

    def test_nan_injection_names_the_row(self, tmp_path):
        m = _matrix(8, 3)
        path = write_store(m, tmp_path / "s.semb")

        def poison(body):
            offset = 24 + (5 * 3 + 1) * 4  # row 5, column 1
            body[offset : offset + 4] = struct.pack("<f", float("nan"))

        _rebuild_with_payload(path, poison)
        with pytest.raises(NonFiniteValue) as err:
            read_store(path)
        assert err.value.row == 5

    @pytest.mark.parametrize("rows", [(0,), (B - 1, 3 * B + 6), (B, 2 * B + 1), (3 * B + 6,)])
    def test_first_nonfinite_row_in_any_block_is_named(self, tmp_path, monkeypatch, rows):
        """The first NaN or Inf row is named whichever block it lands in,
        and a later one in another block does not replace it."""
        monkeypatch.setattr(store, "ROW_BLOCK", B)
        m = _matrix(3 * B + 7, 3)
        path = write_store(m, tmp_path / "s.semb")

        def poison(body):
            for row, value in zip(rows, (float("inf"), float("nan"))):
                offset = 24 + (row * 3 + 2) * 4  # last column
                body[offset : offset + 4] = struct.pack("<f", value)

        _rebuild_with_payload(path, poison)
        with pytest.raises(NonFiniteValue) as err:
            read_store(path)
        assert err.value.row == rows[0]
        assert err.value.clip_id == m.row_ids[rows[0]]

    def test_header_row_count_mismatch(self, tmp_path):
        path = write_store(_matrix(4, 3), tmp_path / "s.semb")

        def inflate(body):
            body[8:16] = struct.pack("<Q", 400)

        _rebuild_with_payload(path, inflate)
        with pytest.raises(SizeMismatch):
            read_store(path)

    def test_id_table_not_utf8(self, tmp_path):
        path = write_store(_matrix(4, 3), tmp_path / "s.semb")

        def garble(body):
            body[-1] = 0xFF  # last byte of the last id; never valid UTF-8

        _rebuild_with_payload(path, garble)
        with pytest.raises(BadRowId, match="row 3") as err:
            read_store(path)
        assert isinstance(err.value, StoreError)

    def test_short_read_is_a_size_mismatch(self, tmp_path, monkeypatch):
        path = write_store(_matrix(5, 4), tmp_path / "s.semb")

        class ShortReader(io.BufferedReader):
            def readinto(self, buffer):
                return max(super().readinto(buffer) - 1, 0)

        monkeypatch.setattr(store, "open", lambda p, mode: ShortReader(io.FileIO(p, mode)), raising=False)
        with pytest.raises(SizeMismatch, match="ended early"):
            read_store(path)

    def test_write_rejects_nonfinite(self, tmp_path):
        data = np.zeros((2, 2), dtype=np.float32)
        data[1, 0] = np.inf
        m = EmbeddingMatrix(data, ["a", "b"])
        with pytest.raises(NonFiniteValue):
            write_store(m, tmp_path / "s.semb")


class TestMatrixInvariants:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(DuplicateRowId):
            EmbeddingMatrix(np.zeros((2, 2), dtype=np.float32), ["a", "a"])

    def test_id_count_must_match_rows(self):
        with pytest.raises(SizeMismatch):
            EmbeddingMatrix(np.zeros((2, 2), dtype=np.float32), ["a"])

    def test_f64_input_is_rounded_to_f32(self, tmp_path):
        """The constructor rounds f64 rows to f32: a value past the f32 range
        becomes Inf there, and write_store refuses it."""
        with np.errstate(over="ignore"):
            m = EmbeddingMatrix(np.array([[0.1, 2.0], [1e39, 1.0]]), ["a", "b"])
        assert m.data.dtype == np.float32
        assert m.data[0].tobytes() == np.array([0.1, 2.0], dtype=np.float32).tobytes()
        with pytest.raises(NonFiniteValue) as err:
            write_store(m, tmp_path / "s.semb")
        assert (err.value.row, err.value.clip_id) == (1, "b")
        assert not (tmp_path / "s.semb").exists()


class TestNormalize:
    def test_three_four_five(self):
        m = EmbeddingMatrix(np.array([[3.0, 4.0]], dtype=np.float32), ["a"])
        out = l2_normalize(m)
        assert np.allclose(out.data, [[0.6, 0.8]], atol=1e-7)

    def test_idempotent(self, rng):
        m = EmbeddingMatrix(rng.standard_normal((20, 6)).astype(np.float32), [f"r{i}" for i in range(20)])
        once = l2_normalize(EmbeddingMatrix(m.data.copy(), m.row_ids))
        twice = l2_normalize(l2_normalize(EmbeddingMatrix(m.data.copy(), m.row_ids)))
        assert np.abs(twice.data - once.data).max() <= 1e-7
        assert np.abs(np.linalg.norm(once.data, axis=1) - 1.0).max() <= 1e-6

    def test_zero_row(self):
        data = np.zeros((3, 4), dtype=np.float32)
        data[0] = data[2] = 1.0
        with pytest.raises(ZeroRow) as err:
            l2_normalize(EmbeddingMatrix(data, ["a", "b", "c"]))
        assert err.value.row == 1

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_row_blocks_match_the_whole_matrix(self, data):
        n = data.draw(st.sampled_from(BLOCK_SIZES))
        dim = data.draw(st.integers(1, 6))
        values = st.one_of(st.sampled_from([1.0, -2.5]), st.floats(width=32, allow_nan=False, allow_infinity=False))
        arr = data.draw(hnp.arrays(np.float32, (n, dim), elements=values.filter(bool)))
        arr[sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=2)) if n else [])] = 0.0
        m = EmbeddingMatrix(arr, [f"r{i}" for i in range(n)])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(store, "ROW_BLOCK", B)
            try:
                expected = l2_normalize_reference(arr)
            except ValueError as exc:  # the reference names the first all-zero row
                with pytest.raises(ZeroRow) as err:
                    l2_normalize(m)
                assert err.value.row == exc.args[0]
            else:
                assert l2_normalize(m).data.tobytes() == expected.tobytes()

    def test_zero_row_in_a_later_block_names_its_global_row(self, monkeypatch, rng):
        monkeypatch.setattr(store, "ROW_BLOCK", B)
        data = rng.standard_normal((3 * B + 7, 3)).astype(np.float32)
        data[[2 * B + 1, 3 * B + 2]] = 0.0
        with pytest.raises(ZeroRow) as err:
            l2_normalize(EmbeddingMatrix(data, [f"r{i}" for i in range(len(data))]))
        assert err.value.row == 2 * B + 1

    def test_rescales_in_place(self, monkeypatch, rng):
        """The input's own rows are rescaled and the input is returned; a
        ZeroRow leaves the blocks before it rescaled and the rest as they were."""
        monkeypatch.setattr(store, "ROW_BLOCK", B)
        data = rng.standard_normal((3 * B, 4)).astype(np.float32)
        m = EmbeddingMatrix(data.copy(), [f"r{i}" for i in range(len(data))])
        assert l2_normalize(m) is m
        assert m.data.tobytes() == l2_normalize_reference(data).tobytes()
        data[B + 1] = 0.0
        m = EmbeddingMatrix(data.copy(), [f"r{i}" for i in range(len(data))])
        with pytest.raises(ZeroRow):
            l2_normalize(m)
        assert m.data[:B].tobytes() == l2_normalize_reference(data[:B]).tobytes()
        assert m.data[B:].tobytes() == data[B:].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.booleans())
    def test_read_rows_are_the_f32_rows_widened(self, data, normalize):
        """read_store's f64 rows, normalised in place or not, are bit for bit
        the f32 rows (the reference's f32 quotient) widened: every value is
        an f32, subnormals and -0.0 included."""
        n = data.draw(st.sampled_from(BLOCK_SIZES[1:]))
        dim = data.draw(st.integers(1, 6))
        values = st.one_of(st.sampled_from([-0.0, 1e-45, -1.2e-38, 3.4e38]), st.floats(width=32, allow_nan=False, allow_infinity=False))
        arr = data.draw(hnp.arrays(np.float32, (n, dim), elements=values))
        arr[np.abs(arr).max(axis=1) == 0.0, 0] = 1.0  # no all-zero row
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(store, "ROW_BLOCK", B)
            back = read_store(write_store(EmbeddingMatrix(arr, [f"r{i}" for i in range(n)]), Path(tmp) / "s.semb"))
            want = l2_normalize_reference(arr) if normalize else arr
            if normalize:
                assert l2_normalize(back) is back
        assert back.data.dtype == np.float64
        assert back.data.tobytes() == want.astype(np.float64).tobytes()

    def test_preserves_argmax_cosine_neighbor(self, rng):
        data = rng.standard_normal((30, 8)).astype(np.float32)
        data *= rng.uniform(0.1, 10.0, size=(30, 1)).astype(np.float32)  # varied norms
        normalized = l2_normalize(EmbeddingMatrix(data.copy(), [f"r{i}" for i in range(30)]))

        def argmax_cosine(x):
            sims = x @ x.T / (np.linalg.norm(x, axis=1)[:, None] * np.linalg.norm(x, axis=1)[None, :])
            np.fill_diagonal(sims, -np.inf)
            return sims.argmax(axis=1)

        before = argmax_cosine(data.astype(np.float64))
        after = argmax_cosine(normalized.data.astype(np.float64))
        assert np.array_equal(before, after)


def _blobs(tmp_path, *blobs: bytes, ids="c0\nc1\nc2\n"):
    """A blob directory holding a.f32, b.f32, ... and an id list."""
    blob_dir = tmp_path / "blobs"
    blob_dir.mkdir()
    for name, blob in zip("abcdefgh", blobs):
        (blob_dir / f"{name}.f32").write_bytes(blob)
    id_file = tmp_path / "ids.txt"
    id_file.write_bytes(ids if isinstance(ids, bytes) else ids.encode("utf-8"))
    return blob_dir, id_file


def _rows(*rows) -> bytes:
    return np.array(rows, dtype="<f4").tobytes()


#: u32 bit patterns of LE f32 values at the edges of the NaN/Inf test: +-Inf,
#: quiet and signalling NaNs with either sign and with payloads, the largest
#: finite magnitudes, exponents one short of all ones, subnormals and +-0.0.
_EDGE_BITS = [
    0x7F800000, 0xFF800000, 0x7FC00000, 0xFFC00000, 0x7F800001, 0xFF800001, 0x7FFFFFFF, 0xFFFFFFFF,
    0x7FA5A5A5, 0x7F7FFFFF, 0xFF7FFFFF, 0x7F000000, 0xFF000000, 0x7F00FFFF, 0x00000001, 0x807FFFFF,
    0x00000000, 0x80000000, 0x3F800000,
]


_REPEATS = ["a", "b", "c", "b", "a"]  # "b" is the first id seen a second time


@pytest.mark.parametrize("where", ["read-store", "ingest", "matrix"])
def test_a_repeated_row_id_is_named(tmp_path, where):
    """Each DuplicateRowId names the first id, in row order, that repeats."""
    rows = np.arange(10, dtype="<f4").reshape(5, 2)
    with pytest.raises(DuplicateRowId) as err:
        if where == "read-store":
            read_store(storefile.write_store_file(tmp_path / "s.semb", 2, [rows.tobytes()], _REPEATS))
        elif where == "ingest":
            blob_dir, id_file = _blobs(tmp_path, rows.tobytes(), ids="\n".join(_REPEATS))
            ingest_raw_blobs(blob_dir, id_file, 2, tmp_path / "s.semb")
        else:
            EmbeddingMatrix(rows, _REPEATS)
    prefix = f"{tmp_path / 's.semb'}: " if where == "read-store" else ""
    assert str(err.value) == prefix + "row ids must be unique: 'b' repeats"


class _SlowSha256:
    """hashlib.sha256 that sleeps 5 ms before each update."""

    def __init__(self):
        self._hasher = hashlib.sha256()

    def update(self, data):
        time.sleep(0.005)
        self._hasher.update(data)

    def hexdigest(self):
        return self._hasher.hexdigest()


class TestIngest:
    def test_raw_blob_assembly(self, tmp_path):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((10, 4)).astype(np.float32)
        blob_dir, ids = _blobs(tmp_path, ids="\n".join(f"c{i}" for i in range(10)))
        (blob_dir / "b.f32").write_bytes(data[6:].tobytes())
        (blob_dir / "a.f32").write_bytes(data[:6].tobytes())
        # files concatenate in sorted name order: a.f32 then b.f32
        assert ingest_raw_blobs(blob_dir, ids, 4, tmp_path / "s.semb") == 10
        back = read_store(tmp_path / "s.semb")
        assert back.data.tobytes() == data.astype(np.float64).tobytes()
        assert back.row_ids == [f"c{i}" for i in range(10)]

    def test_an_id_line_ends_at_newline_only(self, tmp_path):
        ids = ["a\x85b", "c\u2028d", "e\u2029f", "g\x1ch\x1di\x1ej", "k\x0bl\x0cm"]
        blob_dir, id_file = _blobs(tmp_path, _rows(*([1, 2] for _ in ids)), ids="\r\n".join(ids))
        assert ingest_raw_blobs(blob_dir, id_file, 2, tmp_path / "s.semb") == len(ids)
        assert read_store(tmp_path / "s.semb").row_ids == ids

    def test_the_store_is_the_one_write_store_writes(self, tmp_path):
        m = _matrix(9, 5, seed=4)
        blob_dir, ids = _blobs(tmp_path, m.data[:2].tobytes(), b"", m.data[2:].tobytes(), ids="\n".join(m.row_ids))
        ingest_raw_blobs(blob_dir, ids, 5, tmp_path / "ingested.semb")
        assert (tmp_path / "ingested.semb").read_bytes() == write_store(m, tmp_path / "written.semb").read_bytes()

    def test_blobs_and_store_digests_are_noted(self, tmp_path):
        blob_dir, ids = _blobs(tmp_path, _rows([1, 2]), _rows([3, 4], [5, 6]))
        forget_digests()
        ingest_raw_blobs(blob_dir, ids, 2, tmp_path / "s.semb")
        def digests(*paths):
            return {str(path): hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}

        assert noted_digests("read") == digests(blob_dir / "a.f32", blob_dir / "b.f32", ids)
        assert noted_digests("written") == digests(tmp_path / "s.semb")

    @pytest.mark.parametrize(
        "blobs, ids, error, message",
        [
            ((), "c0\n", SizeMismatch, "{dir}: no blob files found"),
            ((b"\x00" * 10,), "c0\n", SizeMismatch, "{dir}/a.f32: size 10 is not a multiple of 8"),
            ((_rows([1, 2]), _rows([3, 4])), "c0\nc1\nc2\n", SizeMismatch, "3 ids for 2 embedding rows"),
            ((_rows([1, 2], [3, 4], [5, 6]),), "c0\nc1\nc0\n", DuplicateRowId, "row ids must be unique"),
            ((_rows([1, 2]),), b"\xffc0\n", StoreError, "{ids}:1: UnicodeDecodeError: 'utf-8' codec can't decode "
             "byte 0xff in position 0: invalid start byte"),
            ((_rows([1, 2], [3, 4]), _rows([5, float("nan")])), "c0\nc1\nc2\n", NonFiniteValue,
             "non-finite value in row 2 (c2)"),
            # two defects each: the first check the parent made is the one raised
            ((b"\x00" * 10,), b"\xff\n", SizeMismatch, "{dir}/a.f32: size 10 is not a multiple of 8"),
            ((_rows([1, float("inf")]),), b"\xff\n", StoreError, "{ids}:1: UnicodeDecodeError"),
            ((_rows([float("-inf"), 2]),), "c0\nc1\n", SizeMismatch, "2 ids for 1 embedding rows"),
            ((_rows([1, 2], [float("nan"), 4]),), "c0\nc0\n", DuplicateRowId, "row ids must be unique"),
        ],
        ids=["no-blobs", "ragged-blob", "id-count", "duplicate-id", "ids-not-utf8", "nan-row",
             "ragged-before-ids", "ids-before-inf", "id-count-before-inf", "duplicate-before-nan"],
    )
    def test_bad_input_is_the_typed_error_and_writes_nothing(self, tmp_path, blobs, ids, error, message):
        blob_dir, id_file = _blobs(tmp_path, *blobs, ids=ids)
        threads = threading.active_count()
        with pytest.raises(StoreError) as err:
            ingest_raw_blobs(blob_dir, id_file, 2, tmp_path / "s.semb")
        assert type(err.value) is error
        assert str(err.value).startswith(message.format(dir=blob_dir, ids=id_file))
        assert not (tmp_path / "s.semb").exists()
        assert threading.active_count() == threads

    def test_a_nan_row_names_its_clip_id(self, tmp_path):
        blob_dir, ids = _blobs(tmp_path, _rows([1, 2], [3, 4]), _rows([5, 6], [float("nan"), 8]), ids="a\nb\nc\nd\n")
        with pytest.raises(NonFiniteValue) as err:
            ingest_raw_blobs(blob_dir, ids, 2, tmp_path / "s.semb")
        assert (err.value.row, err.value.clip_id) == (3, "d")

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_streamed_ingest_writes_the_store_write_store_writes(self, data):
        """With blocks of 1-3 rows, any blob row counts (empty blobs too) and
        NaN/Inf anywhere or nowhere: the store is write_store's and each
        noted digest is its file's SHA-256; or the first non-finite row is
        named with its clip id, and neither the store nor a temporary file
        is left. Either way the helper thread has ended."""
        dim = data.draw(st.integers(1, 4), label="dim")
        counts = data.draw(st.lists(st.integers(0, 7), min_size=1, max_size=4), label="blob rows")
        n = sum(counts)
        rows = np.random.default_rng(n).standard_normal((n, dim)).astype("<f4")
        if n:
            cell = st.tuples(st.integers(0, n - 1), st.integers(0, dim - 1), st.sampled_from(_EDGE_BITS[:9]))
            for r, c, bits in data.draw(st.lists(cell, max_size=3), label="non-finite cells"):
                rows.view("<u4")[r, c] = bits
        first_bad = next((r for r in range(n) if not np.isfinite(rows[r]).all()), None)
        ids = [f"clip{i:02d}" for i in np.random.default_rng(dim).permutation(n)]
        threads = threading.active_count()
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(storefile, "_INGEST_BLOCK", data.draw(st.integers(1, 3), label="block rows") * 4 * dim)
            bounds = np.cumsum([0, *counts])
            blob_dir, id_file = _blobs(Path(tmp), *(rows[s:e].tobytes() for s, e in zip(bounds, bounds[1:])), ids="\n".join(ids))
            out = Path(tmp) / "out"
            out.mkdir()
            forget_digests()
            if first_bad is None:
                assert ingest_raw_blobs(blob_dir, id_file, dim, out / "s.semb") == n
                written = write_store(EmbeddingMatrix(rows, ids), Path(tmp) / "w.semb")
                assert (out / "s.semb").read_bytes() == written.read_bytes()
                read = [*sorted(blob_dir.iterdir()), id_file]
                assert noted_digests("read") == {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in read}
                assert [p.name for p in out.iterdir()] == ["s.semb"]
            else:
                with pytest.raises(NonFiniteValue) as err:
                    ingest_raw_blobs(blob_dir, id_file, dim, out / "s.semb")
                assert (err.value.row, err.value.clip_id) == (first_bad, ids[first_bad])
                assert list(out.iterdir()) == []
        assert threading.active_count() == threads

    def test_streamed_ingest_under_rapid_thread_switches(self, tmp_path, monkeypatch):
        """One-row blocks with the interpreter switching threads every
        microsecond: the store and every blob digest still come out right."""
        rows = np.random.default_rng(3).standard_normal((240, 3)).astype("<f4")
        ids = [f"c{i:03d}" for i in range(len(rows))]
        blob_dir, id_file = _blobs(tmp_path, *(part.tobytes() for part in np.array_split(rows, 5)), ids="\n".join(ids))
        monkeypatch.setattr(storefile, "_INGEST_BLOCK", 12)
        forget_digests()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            ingest_raw_blobs(blob_dir, id_file, 3, tmp_path / "s.semb")
        finally:
            sys.setswitchinterval(interval)
        written = write_store(EmbeddingMatrix(rows, ids), tmp_path / "w.semb")
        assert (tmp_path / "s.semb").read_bytes() == written.read_bytes()
        read = [*sorted(blob_dir.iterdir()), id_file]
        assert noted_digests("read") == {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in read}

    def test_a_slow_helper_hashes_each_block_before_it_is_overwritten(self, tmp_path, monkeypatch):
        """The helper thread hashes each block 5 ms late, with two-row blocks
        over blobs of 7, 0 and 5 rows: the reader waits for it before it
        reads the next block into the one buffer, so every noted digest is
        its file's SHA-256 and the store is write_store's."""
        rows = np.random.default_rng(4).standard_normal((12, 3)).astype("<f4")
        ids = [f"c{i:02d}" for i in range(len(rows))]
        blob_dir, id_file = _blobs(tmp_path, rows[:7].tobytes(), b"", rows[7:].tobytes(), ids="\n".join(ids))

        def sha256():
            slow = threading.current_thread().name == "ingest-hasher"
            return _SlowSha256() if slow else hashlib.sha256()

        monkeypatch.setattr(storefile, "hashlib", SimpleNamespace(sha256=sha256))
        monkeypatch.setattr(storefile, "_INGEST_BLOCK", 2 * 4 * 3)
        forget_digests()
        ingest_raw_blobs(blob_dir, id_file, 3, tmp_path / "s.semb")
        read = [*sorted(blob_dir.iterdir()), id_file]
        assert noted_digests("read") == {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in read}
        written = write_store(EmbeddingMatrix(rows, ids), tmp_path / "w.semb")
        assert (tmp_path / "s.semb").read_bytes() == written.read_bytes()

    @pytest.mark.parametrize("change", [b"\x00" * 8, None], ids=["grown", "shrunk"])
    def test_a_blob_that_changes_size_once_sized_is_named(self, tmp_path, monkeypatch, change):
        """A blob that grows or shrinks between its stat and its read is a
        SizeMismatch naming it, and the target keeps its old bytes."""
        blob_dir, id_file = _blobs(tmp_path, _rows([1, 2]), _rows([3, 4], [5, 6]))
        changed = blob_dir / "b.f32"
        target = tmp_path / "s.semb"
        target.write_bytes(b"old")

        def read_lines_then_change(*args, _read_lines=storefile.read_lines):
            with open(changed, "r+b") as fh:
                fh.seek(0, 2) if change else fh.truncate(8)
                fh.write(change or b"")
            return _read_lines(*args)

        monkeypatch.setattr(storefile, "read_lines", read_lines_then_change)
        threads = threading.active_count()
        with pytest.raises(SizeMismatch, match=f"^{changed}: changed size while it was read$"):
            ingest_raw_blobs(blob_dir, id_file, 2, target)
        assert threading.active_count() == threads
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blobs", "ids.txt", "s.semb"]
        assert target.read_bytes() == b"old"

    def test_a_write_that_fails_mid_stream_stops_the_helper(self, tmp_path, monkeypatch):
        """The store's write raising between two payload blocks leaves no
        store, no temporary file and no helper thread."""
        blob_dir, id_file = _blobs(tmp_path, _rows([1, 2], [3, 4]), _rows([5, 6]), ids="a\nb\nc\n")
        monkeypatch.setattr(storefile, "_INGEST_BLOCK", 8)

        def write_until_the_third_chunk(path, chunks, hasher, _write=storefile.write_atomic):
            def cut():
                for i, chunk in enumerate(chunks):
                    if i == 2:
                        raise OSError("device full")
                    yield chunk

            return _write(path, cut(), hasher)

        monkeypatch.setattr(storefile, "write_atomic", write_until_the_third_chunk)
        threads = threading.active_count()
        with pytest.raises(OSError, match="device full"):
            ingest_raw_blobs(blob_dir, id_file, 2, tmp_path / "out.semb")
        assert threading.active_count() == threads
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blobs", "ids.txt"]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_byte_scan_finds_the_row_isfinite_finds(self, data):
        """first_nonfinite_row on the payload bytes names the row that
        store._first_nonfinite names on the array, for any bit patterns,
        shape and scan block."""
        n = data.draw(st.integers(0, 9))
        dim = data.draw(st.integers(1, 7))
        bits = st.one_of(st.sampled_from(_EDGE_BITS), st.integers(0, 2**32 - 1))
        words = data.draw(hnp.arrays(np.dtype("<u4"), (n, dim), elements=bits))
        rows = words.view("<f4")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(storefile, "_SCAN_BLOCK", data.draw(st.sampled_from([4, 8, 12, 1 << 20])))
            assert first_nonfinite_row(rows.tobytes(), dim) == store._first_nonfinite(rows)
            # bytes past `end` are not scanned
            tail = np.full(dim, np.nan, dtype="<f4").tobytes()
            assert first_nonfinite_row(bytearray(rows.tobytes() + tail), dim, 4 * n * dim) == store._first_nonfinite(rows)
