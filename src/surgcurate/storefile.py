"""The SURGEMB1 embedding-store file format, without numpy.

File layout (all integers little-endian):

    8 bytes   magic "SURGEMB1"
    u64       n_rows
    u64       dim
    f32[...]  row-major payload, n_rows * dim values
    id table  n_rows entries of (u32 byte length, UTF-8 clip id)
    32 bytes  SHA-256 of all preceding bytes

This module holds what needs no array: the constants, the store's typed
errors, the id table both ways, the one writer (write_store_file, which
store.write_store also calls) and ingest_raw_blobs, which goes from raw
blob bytes to a store file without building an array. store.py holds the
array layer: EmbeddingMatrix, the readers and normalisation.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from .artifact import SurgcurateError, note_digest, read_lines, write_atomic

MAGIC = b"SURGEMB1"
HEADER_BYTES = len(MAGIC) + 16
CHECKSUM_BYTES = 32
_SCAN_BLOCK = 1 << 20  # payload bytes per step of first_nonfinite_row, a multiple of 4
#: byte -> 1 where bit 7 is set: in byte 2 of a LE f32, the exponent's lowest bit
_EXP_LOW = bytes(b >> 7 for b in range(256))
#: byte -> 2 where bits 0-6 are set: in byte 3 of a LE f32, the exponent's other seven bits
_EXP_HIGH = bytes(2 * (b & 0x7F == 0x7F) for b in range(256))


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


def encode_id_table(row_ids: list[str]) -> bytes:
    """The id table: (u32 byte length, UTF-8 bytes) for each id, in order."""
    return b"".join(len(raw).to_bytes(4, "little") + raw for raw in (rid.encode("utf-8") for rid in row_ids))


def decode_id_table(table: bytes, n_rows: int, path: str | Path) -> list[str]:
    """The n_rows ids of an id table that must fill `table` exactly:
    SizeMismatch when it is short or has bytes left over, BadRowId for an
    id that is not UTF-8, DuplicateRowId when an id repeats."""
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
    if len(set(row_ids)) != len(row_ids):
        raise DuplicateRowId(f"{path}: row ids must be unique")
    return row_ids


def write_store_file(path: str | Path, dim: int, payload, row_ids: list[str]) -> Path:
    """Write a store of len(row_ids) rows: `payload` is their row-major
    little-endian f32 values as a bytes-like object. Identical input gives
    byte-identical files. The caller has checked the payload: it is not
    scanned again here."""
    hasher = hashlib.sha256()

    def chunks():
        """Header, payload, id table, then the checksum: the digest
        write_atomic has taken of the chunks before it."""
        yield MAGIC + len(row_ids).to_bytes(8, "little") + dim.to_bytes(8, "little")
        yield payload
        yield encode_id_table(row_ids)
        yield hasher.digest()

    return write_atomic(path, chunks(), hasher)


def first_nonfinite_row(payload: bytes | bytearray, dim: int) -> int | None:
    """Row of the first NaN or Inf in a row-major little-endian f32 payload
    of `dim` values a row, or None.

    A LE f32 is NaN or Inf iff its exponent bits are all set: byte 3 & 0x7F
    is 0x7F and byte 2 & 0x80 is set. A block whose byte 3s hold neither
    0x7F nor 0xFF has no such value, which two finds tell. In a block that
    does, each value's byte 2 is mapped to 1 where its bit 7 is set and its
    byte 3 to 2 where bits 0-6 are, the two interleaved, and the first
    b"\\x01\\x02" is the first non-finite value: a mapped byte 3 is never
    1, so the pair cannot straddle two values.
    """
    for s in range(0, len(payload), _SCAN_BLOCK):
        e = s + _SCAN_BLOCK
        high = payload[s + 3 : e : 4]
        if high.find(0x7F) < 0 and high.find(0xFF) < 0:
            continue
        pairs = bytearray(2 * len(high))
        pairs[0::2] = payload[s + 2 : e : 4].translate(_EXP_LOW)
        pairs[1::2] = high.translate(_EXP_HIGH)
        at = pairs.find(b"\x01\x02")
        if at >= 0:
            return (s // 4 + at // 2) // dim
    return None


def ingest_raw_blobs(blob_dir: str | Path, id_file: str | Path, dim: int, out: str | Path) -> int:
    """Write the store at `out` from a directory of raw little-endian f32
    blobs and a sidecar id list, and return its row count.

    Blob files are concatenated in sorted filename order; each file must
    hold a whole number of dim-sized rows. The id file lists one clip id per
    row, in the same order, each once. The blobs are read straight into the
    one payload buffer; each is hashed from the bytes it was read into, and
    its SHA-256 noted for the run manifest. A row holding a NaN or Inf is a
    NonFiniteValue naming its clip id, and nothing is written.
    """
    blob_dir = Path(blob_dir)
    files = sorted(p for p in blob_dir.iterdir() if p.is_file())
    if not files:
        raise SizeMismatch(f"{blob_dir}: no blob files found")
    sizes = [p.stat().st_size for p in files]
    for p, size in zip(files, sizes):
        if size % (4 * dim) != 0:
            raise SizeMismatch(f"{p}: size {size} is not a multiple of {4 * dim}")
    payload = bytearray(sum(sizes))
    view = memoryview(payload)
    offset = 0
    for p, size in zip(files, sizes):
        block = view[offset : offset + size]
        with open(p, "rb") as fh:
            if fh.readinto(block) != size:
                raise SizeMismatch(f"{p}: changed size while it was read")
        note_digest("read", p, hashlib.sha256(block).hexdigest())
        offset += size
    n_rows = len(payload) // (4 * dim)
    row_ids = read_lines(id_file, StoreError)
    if len(row_ids) != n_rows:
        raise SizeMismatch(f"{len(row_ids)} ids for {n_rows} embedding rows")
    if len(set(row_ids)) != len(row_ids):
        raise DuplicateRowId("row ids must be unique")
    bad = first_nonfinite_row(payload, dim)
    if bad is not None:
        raise NonFiniteValue(bad, row_ids[bad])
    write_store_file(out, dim, payload, row_ids)
    return n_rows
