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

Reading, ingesting and normalising hold one f32 copy of the payload plus
bounded temporaries: files are read straight into the one array,
normalising rescales that array in place, and whole-matrix passes walk the
rows in blocks of ROW_BLOCK rows.

Every store file and every blob is hashed whole as it is read or written,
and that SHA-256 is noted for the run manifest (manifest.note_digest), so a
command hashes each of those bytes once.
"""

from __future__ import annotations

import hashlib
import itertools
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .artifact import SurgcurateError, read_lines, write_atomic
from .manifest import note_digest

MAGIC = b"SURGEMB1"
HEADER_BYTES = len(MAGIC) + 16
CHECKSUM_BYTES = 32
DEFAULT_DIM = 768
_MAX_AXIS = np.iinfo(np.intp).max // 4  # the longest f32 axis numpy can shape
_READ_BLOCK = 1 << 22  # bytes hashed per payload read
#: Rows per block of a whole-matrix pass (1.5 MiB of f64 at d = 768). Kept
#: small: freeing much larger blocks raises glibc's mmap threshold, after
#: which other large temporaries stay resident in the heap.
ROW_BLOCK = 256


def row_blocks(n: int) -> Iterator[tuple[int, int]]:
    """(start, end) spans of ROW_BLOCK rows covering range(n), in order."""
    for s in range(0, n, ROW_BLOCK):
        yield s, min(s + ROW_BLOCK, n)


class StoreError(SurgcurateError):
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
        for s, e in row_blocks(self.n_rows):
            bad = ~np.isfinite(self.data[s:e]).all(axis=1)
            if bad.any():
                row = s + int(np.argmax(bad))
                raise NonFiniteValue(row, self.row_ids[row])


def write_store(matrix: EmbeddingMatrix, path: str | Path) -> Path:
    """Serialize a validated matrix; byte-identical for identical input."""
    matrix.validate_finite()
    hasher = hashlib.sha256()

    def chunks():
        """Header, payload, then one chunk per id; the checksum is taken as they stream."""
        header = MAGIC + matrix.n_rows.to_bytes(8, "little") + matrix.dim.to_bytes(8, "little")
        ids = (len(raw).to_bytes(4, "little") + raw for raw in (rid.encode("utf-8") for rid in matrix.row_ids))
        payload = np.ascontiguousarray(matrix.data, dtype="<f4").reshape(-1).view(np.uint8)
        for chunk in itertools.chain([header, payload], ids):
            hasher.update(chunk)
            yield chunk
        checksum = hasher.digest()
        hasher.update(checksum)  # now the whole file's hash
        yield checksum

    written = write_atomic(path, chunks())
    note_digest("written", written, hasher.hexdigest())
    return written


def read_store(path: str | Path) -> EmbeddingMatrix:
    """Parse and fully validate a store file (magic, sizes, checksum, finiteness).

    The payload is read once, straight into the returned array, and hashed
    block by block as it lands; the bytes hashed are the bytes used. The
    whole file's SHA-256 is noted for the run manifest.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < HEADER_BYTES + CHECKSUM_BYTES:
            raise SizeMismatch(f"{path}: file shorter than the fixed header")
        header = _read_exact(fh, HEADER_BYTES, path)
        if header[: len(MAGIC)] != MAGIC:
            raise BadMagic(f"{path}: bad magic {header[:len(MAGIC)]!r}")

        n_rows = int.from_bytes(header[8:16], "little")
        dim = int.from_bytes(header[16:24], "little")
        payload_len = n_rows * dim * 4
        table_len = size - HEADER_BYTES - payload_len - CHECKSUM_BYTES
        if table_len < 0:
            raise SizeMismatch(f"{path}: payload truncated ({table_len + payload_len} of {payload_len} bytes)")

        hasher = hashlib.sha256(header)
        flat = np.empty(n_rows * dim, dtype="<f4")  # bounded by the file size, checked above
        raw = flat.view(np.uint8)
        for s in range(0, payload_len, _READ_BLOCK):
            block = raw[s : s + _READ_BLOCK]
            if fh.readinto(block) != len(block):
                raise SizeMismatch(f"{path}: payload ended early")
            hasher.update(block)
        table = _read_exact(fh, table_len, path)
        hasher.update(table)
        checksum = _read_exact(fh, CHECKSUM_BYTES, path)
        if hasher.digest() != checksum:
            raise ChecksumMismatch(f"{path}: checksum does not match file contents")
    hasher.update(checksum)
    note_digest("read", path, hasher.hexdigest())
    # every row has a 4-byte id length; a store without rows may claim any dim numpy can shape
    if len(table) < 4 * n_rows or dim > _MAX_AXIS:
        raise SizeMismatch(f"{path}: header claims {n_rows} rows of dim {dim}, more than the file holds")
    data = flat.reshape(n_rows, dim)

    row_ids: list[str] = []
    offset = 0
    for _ in range(n_rows):
        if len(table) < offset + 4:
            raise SizeMismatch(f"{path}: id table truncated")
        length = int.from_bytes(table[offset : offset + 4], "little")
        offset += 4
        if len(table) < offset + length:
            raise SizeMismatch(f"{path}: id table truncated")
        try:
            row_ids.append(table[offset : offset + length].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise BadRowId(f"{path}: id of row {len(row_ids)} is not UTF-8 ({exc.reason})") from exc
        offset += length
    if offset != len(table):
        raise SizeMismatch(f"{path}: {len(table) - offset} unexpected trailing bytes")

    matrix = EmbeddingMatrix(data, row_ids)
    matrix.validate_finite()
    return matrix


def _read_exact(fh, nbytes: int, path: str | Path) -> bytes:
    """The next nbytes of fh; SizeMismatch if the file ends first."""
    chunk = fh.read(nbytes)
    if len(chunk) != nbytes:
        raise SizeMismatch(f"{path}: file ended early ({len(chunk)} of {nbytes} bytes)")
    return chunk


def l2_normalize(matrix: EmbeddingMatrix) -> EmbeddingMatrix:
    """Rescale every row of `matrix` to unit Euclidean norm in place (f64
    norms, f32 result) and return `matrix`.

    Idempotent within float precision and order-preserving for cosine
    nearest-neighbor structure. Rows are cast to f64 one block at a time,
    so no second payload copy is built. An all-zero row raises ZeroRow; the
    rows of the blocks before its block are already rescaled by then.
    """
    for s, e in row_blocks(matrix.n_rows):
        block = matrix.data[s:e].astype(np.float64)
        norms = np.linalg.norm(block, axis=1)
        zero = norms == 0.0
        if zero.any():
            raise ZeroRow(s + int(np.argmax(zero)))
        block /= norms[:, None]
        matrix.data[s:e] = block
    return matrix


def ingest_raw_blobs(
    blob_dir: str | Path, id_file: str | Path, dim: int = DEFAULT_DIM
) -> EmbeddingMatrix:
    """Assemble one matrix from a directory of raw little-endian f32 blobs.

    Blob files are concatenated in sorted filename order; each file must
    hold a whole number of dim-sized rows. The sidecar id file lists one
    clip id per row, in the same order. Each blob is hashed from the rows
    it was read into, and its SHA-256 noted for the run manifest.
    """
    blob_dir = Path(blob_dir)
    files = sorted(p for p in blob_dir.iterdir() if p.is_file())
    if not files:
        raise SizeMismatch(f"{blob_dir}: no blob files found")
    sizes = [p.stat().st_size for p in files]
    for p, size in zip(files, sizes):
        if size % (4 * dim) != 0:
            raise SizeMismatch(f"{p}: size {size} is not a multiple of {4 * dim}")
    data = np.empty((sum(sizes) // (4 * dim), dim), dtype="<f4")
    raw = data.reshape(-1).view(np.uint8)
    offset = 0
    for p, size in zip(files, sizes):
        block = raw[offset : offset + size]
        with open(p, "rb") as fh:
            if fh.readinto(block) != size:
                raise SizeMismatch(f"{p}: changed size while it was read")
        note_digest("read", p, hashlib.sha256(block).hexdigest())
        offset += size
    row_ids = read_lines(id_file, StoreError)
    if len(row_ids) != data.shape[0]:
        raise SizeMismatch(f"{len(row_ids)} ids for {data.shape[0]} embedding rows")
    matrix = EmbeddingMatrix(data, row_ids)
    matrix.validate_finite()
    return matrix
