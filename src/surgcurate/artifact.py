"""Artifact I/O: the one path by which the package writes a file, and the
one decoder for the JSON and plain-text inputs it reads.

write_atomic streams chunks into a temporary file next to the target and
then renames it over the target, so a reader sees the old file or the new
one, never a torn one. The temporary file is created with mode 0o666 and
the umask applies, as with open(). Writes are not fsynced: an artifact
survives a killed process, not a power loss.

read_json, iter_jsonl and read_lines turn malformed input (bad JSON,
text that is not UTF-8, a missing key, or a value of the wrong type or
range) into the caller's typed error, with a message naming the file and
line. Each layer's typed errors derive from SurgcurateError, which the
CLI maps to exit code 1.
decode_line decodes one JSON-lines line with json's C scanner and accepts
exactly what json.loads(line.decode("utf-8")) accepts, raising the same
exception class when it does not.
"""

from __future__ import annotations

import json
import os
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")

#: What malformed input raises inside json.loads or a parse function.
_MALFORMED = (ValueError, KeyError, TypeError, AttributeError)

_scan_once = json.JSONDecoder().scan_once
_skip_ws = json.decoder.WHITESPACE.match  # JSON's own whitespace: space, tab, LF, CR


class SurgcurateError(Exception):
    """Root of the layers' typed errors: bad input or a failed operation,
    never a usage mistake."""


def write_atomic(path: str | Path, chunks: Iterable[bytes | str]) -> Path:
    """Write the chunks (bytes, or text encoded as UTF-8) to `path` as one
    atomic replacement. If anything raises, including the chunk iterator,
    the target keeps its old bytes and the temporary file is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def read_json(path: str | Path, error: type[Exception], parse: Callable[[Any], T]) -> T:
    """parse(document) for a UTF-8 JSON file; malformed input, or `error`
    raised by parse, raises `error` naming the file."""
    try:
        return parse(json.loads(Path(path).read_bytes().decode("utf-8")))
    except (error, *_MALFORMED) as exc:
        raise error(f"{path}: {type(exc).__name__}: {exc}") from exc


def decode_line(line: bytes) -> Any:
    """json.loads(line.decode("utf-8")) without its per-call layers: the
    same document, or the same exception class (UnicodeDecodeError or
    json.JSONDecodeError, with json.loads's message for a BOM, a missing
    value and extra data)."""
    text = line.decode("utf-8")
    try:
        doc, end = _scan_once(text, _skip_ws(text, 0).end())
    except StopIteration as stop:
        if text.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0) from None
        raise json.JSONDecodeError("Expecting value", text, stop.value) from None
    if end != len(text):
        end = _skip_ws(text, end).end()
        if end != len(text):
            raise json.JSONDecodeError("Extra data", text, end)
    return doc


def iter_jsonl(
    path: str | Path, error: type[Exception], parse: Callable[[Any], T], lines: Iterable[bytes] | None = None
) -> Iterator[T]:
    """parse(document) for every non-blank line of a UTF-8 JSON-lines file;
    malformed input, or `error` raised by parse, raises `error` naming
    path:line.

    The file is read one buffered line at a time and each line is decoded
    once (decode_line), so the file's text is never held whole. A line of
    bytes.isspace() whitespace only (which also counts vertical tab and
    form feed, unlike JSON) is blank and skipped. A caller that has begun
    reading the file passes its byte lines from line 1 on as `lines`, and
    the file is not opened again.
    """
    with open(path, "rb") if lines is None else nullcontext(lines) as lines:
        for lineno, line in enumerate(lines, start=1):
            if line.isspace():
                continue
            try:
                value = parse(decode_line(line))
            except (error, *_MALFORMED) as exc:
                raise error(f"{path}:{lineno}: {type(exc).__name__}: {exc}") from exc
            yield value


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
    """The stripped, non-blank lines of `text`: one id per line."""
    return [ln.strip() for ln in text.splitlines() if ln.strip()]


def read_lines(path: str | Path, error: type[Exception]) -> list[str]:
    """id_lines of a UTF-8 text file; text that is not UTF-8 raises `error`
    naming path:line."""
    return id_lines(decode_text(Path(path).read_bytes(), path, error))
