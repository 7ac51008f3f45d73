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

The writer takes the payload as an iterable of chunks, so neither caller
holds the payload whole. ingest_raw_blobs streams each blob in blocks of
whole rows (_INGEST_BLOCK bytes or less, one reused buffer): the main
thread scans each block for NaN/Inf, hashes it into the store checksum
and writes it, while one helper thread hashes the same block into its
blob's SHA-256; the next block is read once both are done with it. So
each blob byte is read once and the two digests run on two cores; ingest
loads no numpy, so the helper shares its core with no BLAS thread.
"""

from __future__ import annotations

import hashlib
import queue
import threading
from pathlib import Path
from typing import Iterable, Iterator

from .artifact import SurgcurateError, first_repeat, note_digest, read_lines, write_atomic

MAGIC = b"SURGEMB1"
HEADER_BYTES = len(MAGIC) + 16
CHECKSUM_BYTES = 32
_SCAN_BLOCK = 1 << 20  # payload bytes per step of first_nonfinite_row, a multiple of 4
_INGEST_BLOCK = 1 << 22  # payload bytes per block of ingest_raw_blobs, rounded down to whole rows (at least one)
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
    if (dup := first_repeat(row_ids)) is not None:
        raise DuplicateRowId(f"{path}: row ids must be unique: {dup!r} repeats")
    return row_ids


def write_store_file(path: str | Path, dim: int, payload: Iterable, row_ids: list[str]) -> Path:
    """Write a store of len(row_ids) rows: `payload` yields their
    row-major little-endian f32 values as bytes-like chunks, in order,
    each hashed and written before the next is asked for. Identical input
    gives byte-identical files. The caller has checked the payload: it is
    not scanned again here. If `payload` raises, nothing is written."""
    hasher = hashlib.sha256()

    def chunks():
        """Header, payload, id table, then the checksum: the digest
        write_atomic has taken of the chunks before it."""
        yield MAGIC + len(row_ids).to_bytes(8, "little") + dim.to_bytes(8, "little")
        yield from payload
        yield encode_id_table(row_ids)
        yield hasher.digest()

    return write_atomic(path, chunks(), hasher)


def first_nonfinite_row(payload: bytes | bytearray, dim: int, end: int | None = None) -> int | None:
    """Row of the first NaN or Inf in a row-major little-endian f32 payload
    of `dim` values a row, or None. Only payload[:end] is scanned when
    `end` (a multiple of 4) is given.

    A LE f32 is NaN or Inf iff its exponent bits are all set: byte 3 & 0x7F
    is 0x7F and byte 2 & 0x80 is set. A block whose byte 3s hold neither
    0x7F nor 0xFF has no such value, which two finds tell. In a block that
    does, each value's byte 2 is mapped to 1 where its bit 7 is set and its
    byte 3 to 2 where bits 0-6 are, the two interleaved, and the first
    b"\\x01\\x02" is the first non-finite value: a mapped byte 3 is never
    1, so the pair cannot straddle two values.
    """
    end = len(payload) if end is None else end
    for s in range(0, end, _SCAN_BLOCK):
        e = min(s + _SCAN_BLOCK, end)
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
    row, in the same order, each once. These checks come first, in that
    order. The blobs are then streamed into the store in blocks of whole
    rows (see the module docstring); a blob's SHA-256 is noted for the run
    manifest once its last block has been hashed. A row holding a NaN or
    Inf is a NonFiniteValue naming its clip id, and a blob whose size
    changed since it was sized is a SizeMismatch naming it; either way
    `out` keeps its old bytes and the temporary file is removed.
    """
    blob_dir = Path(blob_dir)
    files = sorted(p for p in blob_dir.iterdir() if p.is_file())
    if not files:
        raise SizeMismatch(f"{blob_dir}: no blob files found")
    sizes = [p.stat().st_size for p in files]
    for p, size in zip(files, sizes):
        if size % (4 * dim) != 0:
            raise SizeMismatch(f"{p}: size {size} is not a multiple of {4 * dim}")
    n_rows = sum(sizes) // (4 * dim)
    row_ids = read_lines(id_file, StoreError)
    if len(row_ids) != n_rows:
        raise SizeMismatch(f"{len(row_ids)} ids for {n_rows} embedding rows")
    if (dup := first_repeat(row_ids)) is not None:
        raise DuplicateRowId(f"row ids must be unique: {dup!r} repeats")

    block = max(1, _INGEST_BLOCK // (4 * dim)) * 4 * dim
    hashing: queue.Queue = queue.Queue()  # (blob, block, last block?) for the helper; None ends it
    failed: list[Exception] = []
    helper = threading.Thread(target=_hash_blobs, args=(hashing, failed), name="ingest-hasher")
    payload = _blob_blocks(files, sizes, bytearray(block), dim, row_ids, hashing)
    helper.start()
    try:
        write_store_file(out, dim, payload, row_ids)
    finally:
        payload.close()
        hashing.put(None)
        helper.join()
    if failed:
        raise failed[0]
    return n_rows


def _blob_blocks(files, sizes, buf, dim, row_ids, hashing) -> Iterator[memoryview]:
    """The payload of ingest_raw_blobs, one block of whole rows at a time.

    Each block is read into `buf`, handed to the helper thread
    (_hash_blobs), scanned for NaN/Inf and yielded to the writer. Before
    the next block is read into `buf`, hashing.join() waits until the
    helper has hashed the last one, so one buffer serves both threads: the
    writer has checksummed and written the block before it asks for the
    next, and the helper hashes it meanwhile. An empty blob is handed over
    as one empty block, so its digest is noted too."""
    block = len(buf)
    row = 0
    for path, size in zip(files, sizes):
        with open(path, "rb") as fh:
            for offset in range(0, max(size, 1), block):
                n = min(block, size - offset)
                last = offset + n == size
                hashing.join()
                view = memoryview(buf)[:n]
                if fh.readinto(view) != n or (last and fh.read(1)):
                    raise SizeMismatch(f"{path}: changed size while it was read")
                hashing.put((path, view, last))
                bad = first_nonfinite_row(buf, dim, n)
                if bad is not None:
                    raise NonFiniteValue(row + bad, row_ids[row + bad])
                yield view
                row += n // (4 * dim)


def _hash_blobs(hashing, failed: list[Exception]) -> None:
    """The helper thread of ingest_raw_blobs: fold each block into its
    blob's SHA-256, note the digest after the blob's last block, and mark
    the block done (task_done), so the reader may read the next one into
    its buffer. After an error it only marks blocks done."""
    hasher = hashlib.sha256()
    while (item := hashing.get()) is not None:
        path, view, last = item
        try:
            if not failed:
                hasher.update(view)
                if last:
                    note_digest("read", path, hasher.hexdigest())
                    hasher = hashlib.sha256()
        except Exception as exc:  # raised again on the main thread
            failed.append(exc)
        finally:
            hashing.task_done()
