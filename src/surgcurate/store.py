"""The array layer of the SURGEMB1 embedding store: an EmbeddingMatrix
in memory, its readers, and L2 normalisation.

The file format (layout, constants, typed errors, id table), its one
writer and the numpy-free ingest live in storefile; this module re-exports
the errors and its write_store(matrix, path) calls storefile's writer,
ROW_BLOCK f32 rows at a time, so it builds no f32 copy of f64 rows.
Stores are write-once and then shared read-only. Identical matrices
produce byte-identical files.

Every store is read by one pass, StoreReader.blocks, which reads each
ROW_BLOCK-row block into one reused f32 buffer, hashing and scanning it as
it lands. read_store widens each block straight into its rows of the one
f64 array it returns, so it builds no f32 copy of the payload; every value
in that array is an f32, and clustering works on it without another cast.
curate takes the blocks from the buffer itself, normalised there, so it
holds no payload copy. Normalising rescales the rows in place, in blocks
of ROW_BLOCK rows, and rounds each quotient to f32 whichever dtype holds
the rows.

Every store file is hashed whole as it is read or written, and that
SHA-256 is noted for the run manifest (artifact.note_digest), so a command
hashes each of those bytes once.
"""

from __future__ import annotations

import hashlib
import os
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .artifact import first_repeat, note_digest
from .storefile import (  # the errors are re-exported
    CHECKSUM_BYTES,
    HEADER_BYTES,
    MAGIC,
    BadMagic,
    BadRowId,
    ChecksumMismatch,
    DuplicateRowId,
    NonFiniteValue,
    SizeMismatch,
    StoreError,
    ZeroRow,
    decode_id_table,
    write_store_file,
)

_MAX_AXIS = np.iinfo(np.intp).max // 8  # the longest f64 axis numpy can shape (read_store's array)
#: Rows per block of a whole-matrix pass (1.5 MiB of f64 at d = 768). Kept
#: small: freeing much larger blocks raises glibc's mmap threshold, after
#: which other large temporaries stay resident in the heap.
ROW_BLOCK = 256


def row_blocks(n: int) -> Iterator[tuple[int, int]]:
    """(start, end) spans of ROW_BLOCK rows covering range(n), in order."""
    for s in range(0, n, ROW_BLOCK):
        yield s, min(s + ROW_BLOCK, n)


def id_order(row_ids: list[str]) -> np.ndarray:
    """The row indices sorted by clip id: the one canonical row order, in
    which K-means++ walks the rows and selection breaks distance ties."""
    return np.array(sorted(range(len(row_ids)), key=row_ids.__getitem__), dtype=np.intp)


@dataclass
class EmbeddingMatrix:
    """Dense row-major matrix of f32 values with one clip id per row.

    The constructor rounds any other dtype to f32. read_store's matrix
    holds its rows as f64 that holds f32 values (_of_f32_values), so
    clustering reads them with no further cast.
    """

    data: np.ndarray
    row_ids: list[str]

    def __post_init__(self) -> None:
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        self._check()

    @classmethod
    def _of_f32_values(cls, data: np.ndarray, row_ids: list[str]) -> "EmbeddingMatrix":
        """A matrix over C-order f64 `data` taken as it is, every value of
        which the caller knows to be an f32."""
        matrix = cls.__new__(cls)
        matrix.data, matrix.row_ids = data, row_ids
        matrix._check()
        return matrix

    def _check(self) -> None:
        if self.data.ndim != 2:
            raise ValueError(f"embedding data must be 2-D, got shape {self.data.shape}")
        if len(self.row_ids) != self.data.shape[0]:
            raise SizeMismatch(
                f"{len(self.row_ids)} row ids for {self.data.shape[0]} rows"
            )
        if (dup := first_repeat(self.row_ids)) is not None:
            raise DuplicateRowId(f"row ids must be unique: {dup!r} repeats")

    @property
    def n_rows(self) -> int:
        return int(self.data.shape[0])

    @property
    def dim(self) -> int:
        return int(self.data.shape[1])

    def validate_finite(self) -> None:
        for s, e in row_blocks(self.n_rows):
            bad = _first_nonfinite(self.data[s:e])
            if bad is not None:
                raise NonFiniteValue(s + bad, self.row_ids[s + bad])


def write_store(matrix: EmbeddingMatrix, path: str | Path) -> Path:
    """Serialize a validated matrix; byte-identical for identical input.
    The rows go to the writer ROW_BLOCK at a time, as little-endian f32,
    so f64 rows are never cast whole."""
    matrix.validate_finite()
    rows = matrix.data
    payload = (np.ascontiguousarray(rows[s:e], dtype="<f4").reshape(-1).view(np.uint8) for s, e in row_blocks(len(rows)))
    return write_store_file(path, matrix.dim, payload, matrix.row_ids)


class StoreReader:
    """One front-to-back pass over an open store file, hashed as it is read.

    Made by open_store. The constructor reads the header and checks that
    the sizes it claims fit the file. The payload comes next, ROW_BLOCK
    rows at a time (blocks). row_ids() then reads the id table and the
    checksum, notes the whole file's SHA-256 for the run manifest, and
    returns the ids once the checksum matches and the table parses (UTF-8,
    unique). A non-finite or all-zero row that blocks() met is raised only
    after that, so the bytes are known good first.
    """

    def __init__(self, fh, path: str | Path):
        self._fh, self.path = fh, path
        size = os.fstat(fh.fileno()).st_size
        if size < HEADER_BYTES + CHECKSUM_BYTES:
            raise SizeMismatch(f"{path}: file shorter than the fixed header")
        header = _read_exact(fh, HEADER_BYTES, path)
        if header[: len(MAGIC)] != MAGIC:
            raise BadMagic(f"{path}: bad magic {header[:len(MAGIC)]!r}")
        self.n_rows = int.from_bytes(header[8:16], "little")
        self.dim = int.from_bytes(header[16:24], "little")
        payload_len = self.n_rows * self.dim * 4
        self._table_len = size - HEADER_BYTES - payload_len - CHECKSUM_BYTES
        if self._table_len < 0:
            raise SizeMismatch(f"{path}: payload truncated ({self._table_len + payload_len} of {payload_len} bytes)")
        # every row has a 4-byte id length; a store without rows may claim any dim numpy can shape
        if self._table_len < 4 * self.n_rows or self.dim > _MAX_AXIS:
            raise SizeMismatch(f"{path}: header claims {self.n_rows} rows of dim {self.dim}, more than the file holds")
        self._hasher = hashlib.sha256(header)
        self._nonfinite: int | None = None  # first row with a NaN or Inf
        self._zero: int | None = None  # first all-zero row, when blocks() normalises

    def _fill(self, raw: np.ndarray) -> None:
        if self._fh.readinto(raw) != len(raw):
            raise SizeMismatch(f"{self.path}: payload ended early")
        self._hasher.update(raw)

    def blocks(self, normalize: bool = False, out: np.ndarray | None = None) -> Iterator[tuple[int, np.ndarray]]:
        """(start, rows) for each ROW_BLOCK-row block of the payload, in
        order. `rows` is one reused f32 buffer, valid until the next block,
        or with `out`, an (n_rows, dim) array, the block's own rows of
        `out`, copied from that buffer. With `normalize` the rows are
        rescaled in place to unit rows, as l2_normalize rescales them.

        After the first non-finite row, or all-zero row under `normalize`,
        no block is yielded; the rest of the payload is still read, hashed
        and scanned for the first non-finite row, and row_ids() raises.
        """
        buf = np.empty((min(ROW_BLOCK, self.n_rows), self.dim), dtype="<f4")
        for s, e in row_blocks(self.n_rows):
            rows = buf[: e - s]
            self._fill(rows.reshape(-1).view(np.uint8))
            if self._nonfinite is None and (bad := _first_nonfinite(rows)) is not None:
                self._nonfinite = s + bad
            if self._nonfinite is not None or self._zero is not None:
                continue
            if out is not None:
                out[s:e] = rows
                rows = out[s:e]
            if normalize and (zero := _normalize_rows(rows)) is not None:
                self._zero = s + zero
                continue
            yield s, rows

    def row_ids(self) -> list[str]:
        """The id table, once the payload has been read; see the class."""
        table = _read_exact(self._fh, self._table_len, self.path)
        self._hasher.update(table)
        checksum = _read_exact(self._fh, CHECKSUM_BYTES, self.path)
        if self._hasher.digest() != checksum:
            raise ChecksumMismatch(f"{self.path}: checksum does not match file contents")
        self._hasher.update(checksum)
        note_digest("read", self.path, self._hasher.hexdigest())

        row_ids = decode_id_table(table, self.n_rows, self.path)
        if self._nonfinite is not None:
            raise NonFiniteValue(self._nonfinite, row_ids[self._nonfinite])
        if self._zero is not None:
            raise ZeroRow(self._zero)
        return row_ids


@contextmanager
def open_store(path: str | Path) -> Iterator[StoreReader]:
    """A StoreReader over the store file at `path`, closed on exit."""
    with open(path, "rb") as fh:
        yield StoreReader(fh, path)


def read_store(path: str | Path) -> EmbeddingMatrix:
    """Parse and fully validate a store file (magic, sizes, checksum, ids,
    finiteness), in that order.

    The payload is read once (StoreReader.blocks), hashed and scanned as
    each block lands, and each block is widened straight into its rows of
    the returned f64 array; the bytes hashed are the bytes used, and the
    array holds exactly their f32 values. The whole file's SHA-256 is noted
    for the run manifest.
    """
    with open_store(path) as reader:
        data = np.empty((reader.n_rows, reader.dim), dtype=np.float64)  # bounded by the file size, checked on open
        deque(reader.blocks(out=data), maxlen=0)
        row_ids = reader.row_ids()
    return EmbeddingMatrix._of_f32_values(data, row_ids)


def _read_exact(fh, nbytes: int, path: str | Path) -> bytes:
    """The next nbytes of fh; SizeMismatch if the file ends first."""
    chunk = fh.read(nbytes)
    if len(chunk) != nbytes:
        raise SizeMismatch(f"{path}: file ended early ({len(chunk)} of {nbytes} bytes)")
    return chunk


def _first_nonfinite(rows: np.ndarray) -> int | None:
    """Index of the first row holding a NaN or Inf, or None."""
    bad = ~np.isfinite(rows).all(axis=1)
    return int(np.argmax(bad)) if bad.any() else None


def _normalize_rows(rows: np.ndarray) -> int | None:
    """Rescale rows of f32 values (held as f32 or f64) in place to unit
    Euclidean norm: f64 norms and quotient, each quotient rounded to f32.
    If a row is all zeros, return its index and leave every row as it was.

    The norms are np.linalg.norm(axis=1)'s, sqrt of the row sums of the
    squares, taken in the one f64 buffer that then holds the quotient.
    """
    block = rows.astype(np.float64)
    norms = np.sqrt(np.add.reduce(np.multiply(block, block, out=block), axis=1))
    zero = norms == 0.0
    if zero.any():
        return int(np.argmax(zero))
    np.divide(rows, norms[:, None], out=block)
    rows[...] = block if rows.dtype == np.float32 else block.astype(np.float32)  # f64 rows: round to f32 first
    return None


def l2_normalize(matrix: EmbeddingMatrix) -> EmbeddingMatrix:
    """Rescale every row of `matrix` to unit Euclidean norm in place (f64
    norms, each value rounded to f32, in the matrix's own dtype) and
    return `matrix`.

    Idempotent within float precision and order-preserving for cosine
    nearest-neighbor structure. Rows are rescaled one block at a time, so
    no second payload copy is built. An all-zero row raises ZeroRow; the
    rows of the blocks before its block are already rescaled by then.
    """
    for s, e in row_blocks(matrix.n_rows):
        zero = _normalize_rows(matrix.data[s:e])
        if zero is not None:
            raise ZeroRow(s + zero)
    return matrix
