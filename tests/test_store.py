import hashlib
import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from surgcurate import store
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
    ingest_raw_blobs,
    l2_normalize,
    read_store,
    write_store,
)

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
        assert back.data.tobytes() == m.data.tobytes()

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
        assert back.data.tobytes() == m.data.tobytes()
        assert back.row_ids == m.row_ids


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


class TestIngest:
    def test_raw_blob_assembly(self, tmp_path):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((10, 4)).astype(np.float32)
        blob_dir = tmp_path / "blobs"
        blob_dir.mkdir()
        (blob_dir / "b.f32").write_bytes(data[6:].astype("<f4").tobytes())
        (blob_dir / "a.f32").write_bytes(data[:6].astype("<f4").tobytes())
        ids = tmp_path / "ids.txt"
        ids.write_text("\n".join(f"c{i}" for i in range(10)), encoding="utf-8")
        m = ingest_raw_blobs(blob_dir, ids, dim=4)
        # files concatenate in sorted name order: a.f32 then b.f32
        assert np.array_equal(m.data, data)
        assert m.row_ids == [f"c{i}" for i in range(10)]

    def test_ragged_blob_rejected(self, tmp_path):
        blob_dir = tmp_path / "blobs"
        blob_dir.mkdir()
        (blob_dir / "a.f32").write_bytes(b"\x00" * 10)
        ids = tmp_path / "ids.txt"
        ids.write_text("c0\n", encoding="utf-8")
        with pytest.raises(SizeMismatch):
            ingest_raw_blobs(blob_dir, ids, dim=4)
