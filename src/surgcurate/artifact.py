"""Artifact I/O: the one path by which the package writes a file, and the
one decoder for the JSON and plain-text inputs it reads.

write_atomic streams chunks into a temporary file next to the target and
then renames it over the target, so a reader sees the old file or the new
one, never a torn one. The temporary file is created with mode 0o666 and
the umask applies, as with open(). Writes are not fsynced: an artifact
survives a killed process, not a power loss.

read_json, iter_jsonl, read_text and read_lines turn malformed input
(bad JSON, text that is not UTF-8, a missing key, or a value of the wrong
type or range) into the caller's typed error, with a message naming the
file and line. Each layer's typed errors derive from SurgcurateError,
which the CLI maps to exit code 1.

Every file these helpers write or read whole is hashed in the same pass,
and its SHA-256 noted (note_digest). The digests noted while a command
runs (noted_digests) are its run manifest's inputs and outputs, with the
bytes as they were read and written. Data shipped under surgcurate/data
is part of the tool, not an input: shipped_text reads it and notes nothing.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

T = TypeVar("T")

#: What malformed input raises inside json.loads or a parse function.
_MALFORMED = (ValueError, KeyError, TypeError, AttributeError)


class SurgcurateError(Exception):
    """Root of the layers' typed errors: bad input or a failed operation,
    never a usage mistake."""


#: ("read" | "written", str(path)) -> SHA-256 hex digest of the whole file as
#: the running command read or wrote it, noted in passing by the layer that
#: did. cli._command empties it before each command body runs.
_digests: dict[tuple[str, str], str] = {}


def note_digest(how: str, path: str | Path, hexdigest: str) -> None:
    """Record the SHA-256 of the bytes just read from (how="read") or
    written to (how="written") the whole file at `path`."""
    _digests[how, str(Path(path))] = hexdigest


def noted_digests(how: str) -> dict[str, str]:
    """{str(path): SHA-256} of every file read (how="read") or written
    (how="written") whole since forget_digests."""
    return {path: digest for (noted, path), digest in _digests.items() if noted == how}


def forget_digests() -> None:
    _digests.clear()


def shipped_text(name: str) -> str:
    """The text of the data file `name` shipped under surgcurate/data: part
    of the tool, which tool_version names, so no digest is noted."""
    from importlib import resources  # here, not at import: it costs every command's start-up

    return resources.files("surgcurate.data").joinpath(name).read_text("utf-8")


def write_atomic(path: str | Path, chunks: Iterable[bytes | str], hasher=None) -> Path:
    """Write the chunks (bytes, or text encoded as UTF-8) to `path` as one
    atomic replacement, and note the SHA-256 of the bytes written. If
    anything raises, including the chunk iterator, the target keeps its old
    bytes and the temporary file is removed.

    Each chunk is hashed before the next is asked for, into `hasher` when
    one is given (a new hashlib.sha256() otherwise): a chunk generator that
    holds it reads there the digest of every chunk before it. No chunk is
    held while the next is built, so a writer that yields blocks holds one
    at a time."""
    path = Path(path)
    hasher = hashlib.sha256() if hasher is None else hasher
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            for chunk in chunks:
                data = chunk.encode("utf-8") if isinstance(chunk, str) else chunk
                hasher.update(data)
                fh.write(data)
                del chunk, data  # let go of this chunk before the iterator builds the next
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    note_digest("written", path, hasher.hexdigest())
    return path


def read_json(path: str | Path, error: type[Exception], parse: Callable[[Any], T]) -> T:
    """parse(document) for a UTF-8 JSON file; malformed input, or `error`
    raised by parse, raises `error` naming the file."""
    data = Path(path).read_bytes()
    try:
        value = parse(json.loads(data.decode("utf-8")))
    except (error, *_MALFORMED) as exc:
        raise error(f"{path}: {type(exc).__name__}: {exc}") from exc
    note_digest("read", path, hashlib.sha256(data).hexdigest())
    return value


def iter_jsonl(
    path: str | Path, error: type[Exception], parse: Callable[[Any], T], lines: Iterable[bytes] | None = None
) -> Iterator[T]:
    """parse(json.loads(line.decode("utf-8"))) for every non-blank byte
    line of a JSON-lines file; malformed input, or `error` raised by parse,
    raises `error` naming path:line.

    The file is read one buffered line at a time, so it is never held
    whole. A line of bytes.isspace() whitespace only (which also counts
    vertical tab and form feed, unlike JSON) is blank and skipped. Every
    line, blank or not, is hashed as it is read, and the file's SHA-256 is
    noted once the last line has been parsed; a read that stops early
    notes nothing. A caller that has begun reading the file passes its
    byte lines from line 1 on as `lines`, and the file is not opened again.
    """
    hasher = hashlib.sha256()
    update = hasher.update
    with open(path, "rb") if lines is None else nullcontext(lines) as lines:
        for lineno, line in enumerate(lines, start=1):
            update(line)
            if line.isspace():
                continue
            try:
                value = parse(json.loads(line.decode("utf-8")))
            except (error, *_MALFORMED) as exc:
                raise error(f"{path}:{lineno}: {type(exc).__name__}: {exc}") from exc
            yield value
    note_digest("read", path, hasher.hexdigest())


def text_field(doc: Any, key: str, error: type[Exception]) -> str:
    """doc[key] when it is a string; `error` naming the key otherwise."""
    value = doc[key]
    if not isinstance(value, str):
        raise error(f"{key} must be a string, got {type(value).__name__} {value!r}")
    return value


def decode_text(data: bytes, path: str | Path, error: type[Exception], first_line: int = 1) -> str:
    """data.decode("utf-8"), where data begins at line `first_line` of
    `path`; text that is not UTF-8 raises `error` naming path:line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = first_line + data.count(b"\n", 0, exc.start)
        raise error(f"{path}:{lineno}: {type(exc).__name__}: {exc}") from exc


def id_lines(text: str) -> list[str]:
    """The stripped, non-blank lines of `text`: one id per line. Lines end
    at `\n` only (a `\r` before it is stripped), so an id may hold any
    other character str.splitlines() would break at."""
    return [ln.strip() for ln in text.split("\n") if ln.strip()]


def first_repeat(ids: Sequence[T]) -> T | None:
    """The first id, in list order, that occurred earlier in `ids`, or None
    when each occurs once."""
    if len(set(ids)) != len(ids):
        seen: set[T] = set()
        for value in ids:
            if value in seen:
                return value
            seen.add(value)
    return None


def read_text(path: str | Path, error: type[Exception]) -> str:
    """The text of a UTF-8 file, read and hashed in one pass; text that is
    not UTF-8 raises `error` naming path:line."""
    data = Path(path).read_bytes()
    text = decode_text(data, path, error)
    note_digest("read", path, hashlib.sha256(data).hexdigest())
    return text


def read_lines(path: str | Path, error: type[Exception]) -> list[str]:
    """id_lines of a UTF-8 text file (read_text)."""
    return id_lines(read_text(path, error))
