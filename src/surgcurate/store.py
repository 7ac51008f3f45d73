"""Bit-exact binary storage of per-clip embedding vectors.

File layout (all integers little-endian):

    8 bytes   magic "SURGEMB1"
    u64       n_rows
    u64       dim
    f32[...]  row-major payload, n_rows * dim values
    id table  n_rows entries of (u32 byte length, UTF-8 clip id)
    32 bytes  SHA-256 of all preceding bytes

Stores are write-once and then shared read-only. Identical matrices
produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifact import read_lines, write_atomic

MAGIC = b"SURGEMB1"
CHECKSUM_BYTES = 32
DEFAULT_DIM = 768
_MAX_AXIS = np.iinfo(np.intp).max // 4  # the longest f32 axis numpy can shape


class StoreError(Exception):
    """Base for embedding-store failures."""


class BadMagic(StoreError):
    pass


class SizeMismatch(StoreError):
    pass


class ChecksumMismatch(StoreError):
    pass


class NonFiniteValue(StoreError):
    def __init__(self, row: int, clip_id: str | None = None):
        self.row = row
        self.clip_id = clip_id
        ident = f" ({clip_id})" if clip_id else ""
        super().__init__(f"non-finite value in row {row}{ident}")


class ZeroRow(StoreError):
    def __init__(self, row: int):
        self.row = row
        super().__init__(f"row {row} is all zeros and cannot be normalized")


class DuplicateRowId(StoreError):
    pass


class BadRowId(StoreError):
    """A row id in the id table is not valid UTF-8."""


@dataclass
class EmbeddingMatrix:
    """Dense row-major f32 matrix with one clip id per row."""

    data: np.ndarray
    row_ids: list[str]

    def __post_init__(self) -> None:
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        if self.data.ndim != 2:
            raise ValueError(f"embedding data must be 2-D, got shape {self.data.shape}")
        if len(self.row_ids) != self.data.shape[0]:
            raise SizeMismatch(
                f"{len(self.row_ids)} row ids for {self.data.shape[0]} rows"
            )
        if len(set(self.row_ids)) != len(self.row_ids):
            raise DuplicateRowId("row ids must be unique")

    @property
    def n_rows(self) -> int:
        return int(self.data.shape[0])

    @property
    def dim(self) -> int:
        return int(self.data.shape[1])

    def validate_finite(self) -> None:
        bad = ~np.isfinite(self.data).all(axis=1)
        if bad.any():
            row = int(np.argmax(bad))
            raise NonFiniteValue(row, self.row_ids[row])

    def row_index(self) -> dict[str, int]:
        return {rid: i for i, rid in enumerate(self.row_ids)}


def write_store(matrix: EmbeddingMatrix, path: str | Path) -> Path:
    """Serialize a validated matrix; byte-identical for identical input."""
    matrix.validate_finite()

    def chunks():
        """Header, payload, then one chunk per id; the checksum is taken as they stream."""
        hasher = hashlib.sha256()
        header = MAGIC + matrix.n_rows.to_bytes(8, "little") + matrix.dim.to_bytes(8, "little")
        ids = (len(raw).to_bytes(4, "little") + raw for raw in (rid.encode("utf-8") for rid in matrix.row_ids))
        for chunk in itertools.chain([header, matrix.data.astype("<f4", copy=False).tobytes(order="C")], ids):
            hasher.update(chunk)
            yield chunk
        yield hasher.digest()

    return write_atomic(path, chunks())


def read_store(path: str | Path) -> EmbeddingMatrix:
    """Parse and fully validate a store file (magic, sizes, checksum, finiteness)."""
    blob = Path(path).read_bytes()
    if len(blob) < len(MAGIC) + 16 + CHECKSUM_BYTES:
        raise SizeMismatch(f"{path}: file shorter than the fixed header")
    if blob[: len(MAGIC)] != MAGIC:
        raise BadMagic(f"{path}: bad magic {blob[:len(MAGIC)]!r}")

    body, checksum = blob[:-CHECKSUM_BYTES], blob[-CHECKSUM_BYTES:]
    n_rows = int.from_bytes(body[8:16], "little")
    dim = int.from_bytes(body[16:24], "little")
    payload_len = n_rows * dim * 4
    offset = 24
    if len(body) < offset + payload_len:
        raise SizeMismatch(f"{path}: payload truncated ({len(body) - offset} of {payload_len} bytes)")

    if hashlib.sha256(body).digest() != checksum:
        raise ChecksumMismatch(f"{path}: checksum does not match file contents")
    # every row has a 4-byte id length; a store without rows may claim any dim numpy can shape
    if len(body) < offset + payload_len + 4 * n_rows or dim > _MAX_AXIS:
        raise SizeMismatch(f"{path}: header claims {n_rows} rows of dim {dim}, more than the file holds")

    data = np.frombuffer(body, dtype="<f4", count=n_rows * dim, offset=offset)
    data = data.reshape(n_rows, dim).copy()
    offset += payload_len

    row_ids: list[str] = []
    for _ in range(n_rows):
        if len(body) < offset + 4:
            raise SizeMismatch(f"{path}: id table truncated")
        length = int.from_bytes(body[offset : offset + 4], "little")
        offset += 4
        if len(body) < offset + length:
            raise SizeMismatch(f"{path}: id table truncated")
        try:
            row_ids.append(body[offset : offset + length].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise BadRowId(f"{path}: id of row {len(row_ids)} is not UTF-8 ({exc.reason})") from exc
        offset += length
    if offset != len(body):
        raise SizeMismatch(f"{path}: {len(body) - offset} unexpected trailing bytes")

    matrix = EmbeddingMatrix(data, row_ids)
    matrix.validate_finite()
    return matrix


def l2_normalize(matrix: EmbeddingMatrix) -> EmbeddingMatrix:
    """Rescale every row to unit Euclidean norm (f64 norms, f32 result).

    Idempotent within float precision and order-preserving for cosine
    nearest-neighbor structure. All-zero rows are an error.
    """
    norms = np.linalg.norm(matrix.data.astype(np.float64), axis=1)
    zero = norms == 0.0
    if zero.any():
        raise ZeroRow(int(np.argmax(zero)))
    data = (matrix.data.astype(np.float64) / norms[:, None]).astype(np.float32)
    return EmbeddingMatrix(data, list(matrix.row_ids))


def ingest_raw_blobs(
    blob_dir: str | Path, id_file: str | Path, dim: int = DEFAULT_DIM
) -> EmbeddingMatrix:
    """Assemble one matrix from a directory of raw little-endian f32 blobs.

    Blob files are concatenated in sorted filename order; each file must
    hold a whole number of dim-sized rows. The sidecar id file lists one
    clip id per row, in the same order.
    """
    blob_dir = Path(blob_dir)
    files = sorted(p for p in blob_dir.iterdir() if p.is_file())
    if not files:
        raise SizeMismatch(f"{blob_dir}: no blob files found")
    parts = []
    for p in files:
        raw = p.read_bytes()
        if len(raw) % (4 * dim) != 0:
            raise SizeMismatch(f"{p}: size {len(raw)} is not a multiple of {4 * dim}")
        parts.append(np.frombuffer(raw, dtype="<f4").reshape(-1, dim))
    data = np.vstack(parts)
    row_ids = read_lines(id_file)
    if len(row_ids) != data.shape[0]:
        raise SizeMismatch(f"{len(row_ids)} ids for {data.shape[0]} embedding rows")
    matrix = EmbeddingMatrix(data, row_ids)
    matrix.validate_finite()
    return matrix
