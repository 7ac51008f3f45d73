"""Corpus data model: videos, clips, sources, domains, and inventory stats.

The corpus manifest is UTF-8 JSON-lines, one record per line, with a
"kind" field discriminating video records from clip records. It is read
in blocks of whole lines: one findall of a pattern for the line form
write_corpus_manifest writes takes every line of a block. A file with a
line in any other form is read again by the reference reader, json.loads
and record_from_json on each line, which gives the same records, or the
error at its path:line. Records are named tuples; everything in this
module is a pure function over them, and a CorpusIndex is built once and
then shared read-only.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import itertools
import json
import math
import re
import sys
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Union

from .apportion import as_fraction
from .artifact import (
    SurgcurateError,
    iter_jsonl,
    note_digest,
    read_json,
    shipped_text,
    text_field,
    write_atomic,
)


class CorpusError(SurgcurateError):
    """Base for corpus data-model failures."""


class ManifestParseError(CorpusError):
    """A manifest line could not be decoded into a known record."""


class UnknownDataset(CorpusError):
    """Dataset id missing from the domain mapping; never silently defaulted."""


class SourceStream(str, Enum):
    """Provenance stream of a video."""

    PUBLIC_CLINICAL = "PublicClinical"
    WEB_EDUCATIONAL = "WebEducational"
    PRIVATE = "Private"


class Domain(str, Enum):
    """Clinical domain of a dataset."""

    LAPAROSCOPY = "Laparoscopy"
    ENDOSCOPY = "Endoscopy"
    CATARACT = "Cataract"
    ROBOTIC = "Robotic"
    MIXED = "Mixed"


#: Domains entering macro-averaged evaluation (Mixed is corpus-only).
CLINICAL_DOMAINS = (
    Domain.LAPAROSCOPY,
    Domain.ENDOSCOPY,
    Domain.CATARACT,
    Domain.ROBOTIC,
)


class _VideoFields(NamedTuple):
    video_id: str
    source: SourceStream
    dataset_id: str
    domain: Domain
    frame_count: int
    fps: Fraction
    duration_s: float


class VideoRecord(_VideoFields):
    """One source video of the corpus.

    Records are named tuples: immutable, and they unpack and compare equal
    to a plain tuple of the same fields. Every way of making one (the call,
    _make, _replace, unpickling) runs the checks of __new__."""

    __slots__ = ()

    def __new__(
        cls, video_id: str, source: SourceStream, dataset_id: str, domain: Domain,
        frame_count: int, fps: Fraction, duration_s: float,
    ) -> "VideoRecord":
        if frame_count < 0:
            raise ValueError(f"{video_id}: frame_count must be >= 0")
        if fps.numerator <= 0:  # a Fraction's denominator is positive
            raise ValueError(f"{video_id}: fps must be positive")
        if duration_s < 0:
            raise ValueError(f"{video_id}: duration_s must be >= 0")
        return tuple.__new__(cls, (video_id, source, dataset_id, domain, frame_count, fps, duration_s))

    @classmethod
    def _make(cls, iterable: Iterable) -> "VideoRecord":
        return cls(*iterable)  # NamedTuple's own _make calls tuple.__new__, skipping the checks


class ClipRecord(NamedTuple):
    """A frame interval of a parent video; the unit of curation.

    Intervals within one video may overlap (sliding-window clipping is
    allowed); only clip ids must be unique.
    """

    clip_id: str
    video_id: str
    start_frame: int
    end_frame: int
    embedding_row: int | None = None


Record = Union[VideoRecord, ClipRecord]


@dataclass(frozen=True)
class Violation:
    code: str
    record_id: str
    message: str


@dataclass
class ValidationReport:
    """Violations are data, not failures; empty lists mean a valid record."""

    violations: list[Violation] = field(default_factory=list)
    warnings: list[Violation] = field(default_factory=list)

    @property
    def is_valid(self) -> bool:
        return not self.violations


def normalize_dataset_id(dataset_id: str) -> str:
    """Canonical lookup key: lowercase alphanumerics only."""
    return "".join(ch for ch in dataset_id.lower() if ch.isalnum())


class DomainMap:
    """Editable dataset-to-domain table; the shipped default covers the
    public datasets plus every benchmark dataset."""

    def __init__(self, mapping: Mapping[str, Domain]):
        self._table = {normalize_dataset_id(k): Domain(v) for k, v in mapping.items()}

    @classmethod
    def default(cls) -> "DomainMap":
        return cls(json.loads(shipped_text("domain_map.json"))["datasets"])

    @classmethod
    def from_file(cls, path: str | Path) -> "DomainMap":
        """A {"datasets": {dataset id: domain}} JSON file; CorpusError when malformed."""
        return read_json(path, CorpusError, lambda doc: cls(doc["datasets"]))

    def domain_of(self, dataset_id: str) -> Domain:
        key = normalize_dataset_id(dataset_id)
        try:
            return self._table[key]
        except KeyError:
            raise UnknownDataset(
                f"dataset {dataset_id!r} is not in the domain mapping; "
                "add it to the mapping config rather than assuming a domain"
            ) from None

    def items(self) -> Iterator[tuple[str, Domain]]:
        return iter(sorted(self._table.items()))


class CorpusIndex:
    """Read-shared index of a record set: the records in manifest order,
    the first record of each video and clip id, and the ids that repeat."""

    def __init__(self, records: Iterable[Record]):
        self.records: tuple[Record, ...] = tuple(records)
        self.videos: dict[str, VideoRecord] = {}
        self.clips: dict[str, ClipRecord] = {}
        self.repeated_video_ids: set[str] = set()
        self.repeated_clip_ids: set[str] = set()
        for rec in self.records:
            if isinstance(rec, ClipRecord):
                if rec.clip_id in self.clips:
                    self.repeated_clip_ids.add(rec.clip_id)
                else:
                    self.clips[rec.clip_id] = rec
            elif isinstance(rec, VideoRecord):
                if rec.video_id in self.videos:
                    self.repeated_video_ids.add(rec.video_id)
                else:
                    self.videos[rec.video_id] = rec
            else:
                raise TypeError(f"not a corpus record: {type(rec).__name__}")


def _as_index(corpus: CorpusIndex | Iterable[Record]) -> CorpusIndex:
    return corpus if isinstance(corpus, CorpusIndex) else CorpusIndex(corpus)


def _decimal_ratio(value: float) -> tuple[int, int]:
    """(n, m) with m > 0 and n/m == as_fraction(value), not reduced: the
    digits of repr(value) over the power of ten its point and exponent
    give, in integers only."""
    mantissa, _, exp = repr(value).partition("e")
    whole, _, frac = mantissa.partition(".")
    shift = int(exp or 0) - len(frac)
    n = int(whole + frac)
    return (n * 10**shift, 1) if shift >= 0 else (n, 10**-shift)


def _frame_count_mismatch(frame_count: int, fps: Fraction, duration_s: float) -> bool:
    """|frame_count - fps*duration| > max(duration, 1) in exact arithmetic:
    more than one frame per second of footage apart, and more than one.

    With fps = p/q and as_fraction(duration_s) = n/m (q, m > 0), both sides
    times q*m are integers: |F*q*m - p*n| > q*max(n, m). Scaling n and m by
    the same positive factor scales both sides alike, so n/m need not be
    in lowest terms.
    """
    p, q = fps.numerator, fps.denominator
    n, m = _decimal_ratio(duration_s)
    return abs(frame_count * q * m - p * n) > q * max(n, m)


def validate_corpus(corpus: CorpusIndex | Iterable[Record]) -> ValidationReport:
    """Check every record against the index of all of them; takes the index
    itself, or the records to build it from.

    Violations: duplicate id (once per id and record kind, at the id's first
    record), dangling foreign key, interval out of range. Metadata
    inconsistency (frame count vs fps x duration) is a warning, not a
    violation.
    """
    index = _as_index(corpus)
    report = ValidationReport()
    violations, warnings = report.violations, report.warnings
    unreported = {(VideoRecord, rid) for rid in index.repeated_video_ids}
    unreported |= {(ClipRecord, rid) for rid in index.repeated_clip_ids}
    for rec in index.records:
        is_video = isinstance(rec, VideoRecord)
        if unreported:
            key = (VideoRecord, rec.video_id) if is_video else (ClipRecord, rec.clip_id)
            if key in unreported:
                unreported.remove(key)
                violations.append(Violation("duplicate id", key[1], f"id {key[1]!r} occurs more than once"))

        if is_video:
            if _frame_count_mismatch(rec.frame_count, rec.fps, rec.duration_s):
                expected = rec.fps * as_fraction(rec.duration_s)
                warnings.append(
                    Violation(
                        "metadata mismatch",
                        rec.video_id,
                        f"frame_count {rec.frame_count} vs fps*duration ~ {float(expected):.1f}",
                    )
                )
            continue

        parent = index.videos.get(rec.video_id)
        if parent is None:
            violations.append(Violation("dangling foreign key", rec.clip_id, f"video {rec.video_id!r} not in corpus"))
        if rec.start_frame < 0 or rec.start_frame >= rec.end_frame or (
            parent is not None and rec.end_frame > parent.frame_count
        ):
            violations.append(
                Violation(
                    "interval out of range",
                    rec.clip_id,
                    f"[{rec.start_frame}, {rec.end_frame}) invalid"
                    + (f" for parent with {parent.frame_count} frames" if parent else ""),
                )
            )
    return report


@dataclass(frozen=True)
class CorpusCell:
    video_count: int = 0
    clip_count: int = 0
    frame_sum: int = 0


@dataclass
class CorpusStats:
    """Per (source, domain) counts plus corpus totals."""

    cells: dict[tuple[SourceStream, Domain], CorpusCell]

    @property
    def total_videos(self) -> int:
        return sum(c.video_count for c in self.cells.values())

    @property
    def total_clips(self) -> int:
        return sum(c.clip_count for c in self.cells.values())

    @property
    def total_frames(self) -> int:
        return sum(c.frame_sum for c in self.cells.values())

    def by_source(self, source: SourceStream) -> CorpusCell:
        video_count = clip_count = frame_sum = 0
        for (src, _), cell in self.cells.items():
            if src is source:
                video_count += cell.video_count
                clip_count += cell.clip_count
                frame_sum += cell.frame_sum
        return CorpusCell(video_count, clip_count, frame_sum)


def corpus_stats(corpus: CorpusIndex | Iterable[Record]) -> CorpusStats:
    """Count videos, clips, and frames per (source, domain) cell; takes the
    index itself, or the records to build it from.

    Every video record counts, repeats included. Clips are attributed to
    their parent video's cell (the first record of that id); clips with a
    missing parent are ignored here (they surface in validation instead).
    """
    index = _as_index(corpus)
    videos: Counter[tuple[SourceStream, Domain]] = Counter()
    clips: Counter[tuple[SourceStream, Domain]] = Counter()
    frames: Counter[tuple[SourceStream, Domain]] = Counter()
    clips_per_video: Counter[str] = Counter()
    for rec in index.records:
        if isinstance(rec, ClipRecord):
            clips_per_video[rec.video_id] += 1
        else:
            key = (rec.source, rec.domain)
            videos[key] += 1
            frames[key] += rec.frame_count
    for video_id, count in clips_per_video.items():
        parent = index.videos.get(video_id)
        if parent is not None:
            clips[(parent.source, parent.domain)] += count
    keys = set(videos) | set(clips) | set(frames)
    cells = {k: CorpusCell(videos[k], clips[k], frames[k]) for k in sorted(keys, key=lambda k: (k[0].value, k[1].value))}
    return CorpusStats(cells)


def inventory_report(stats: CorpusStats) -> str:
    """Markdown inventory table: one row per (source, domain), plus totals."""
    lines = [
        "| Source | Domain | Videos | Clips | Frames |",
        "| --- | --- | ---: | ---: | ---: |",
    ]
    for (src, dom), cell in stats.cells.items():
        lines.append(
            f"| {src.value} | {dom.value} | {cell.video_count:,} | {cell.clip_count:,} | {cell.frame_sum:,} |"
        )
    lines.append(
        f"| **Total** | | **{stats.total_videos:,}** | **{stats.total_clips:,}** | **{stats.total_frames:,}** |"
    )
    return "\n".join(lines) + "\n"


def _format_scale(stats: CorpusStats) -> str:
    videos_k = stats.total_videos / 1000.0
    frames_m = stats.total_frames / 1e6
    return f"{videos_k:.1f}K videos / {frames_m:.1f}M frames"


def scale_comparison_report(stats: CorpusStats, ours_label: str = "Ours") -> str:
    """Markdown table comparing this corpus against shipped reference scales."""
    rows = list(csv.DictReader(shipped_text("pretraining_scale_reference.csv").splitlines()))
    lines = [
        "| Method | Domain Focus | Reported Scale |",
        "| --- | --- | --- |",
    ]
    for row in rows:
        lines.append(f"| {row['method']} | {row['domain_focus']} | {row['reported_scale']} |")
    lines.append(f"| **{ours_label}** | **Multi-Domain (4 major)** | **{_format_scale(stats)}** |")
    return "\n".join(lines) + "\n"


# -- manifest I/O -------------------------------------------------------------


def _fps_to_json(fps: Fraction) -> int | str:
    return int(fps) if fps.denominator == 1 else f"{fps.numerator}/{fps.denominator}"


@functools.lru_cache(maxsize=64, typed=True)
def _parse_fps(value: int | float | str) -> Fraction:
    """as_fraction(value), parsed once per distinct value: the videos of a
    manifest share a handful of frame rates, and then their Fractions."""
    return as_fraction(value)


def _fps_from_json(value) -> Fraction:
    if isinstance(value, bool):
        raise ManifestParseError("fps must be a number or ratio string")
    if isinstance(value, (int, str, float)):
        return _parse_fps(value)
    raise ManifestParseError(f"fps has unsupported type {type(value).__name__}")


def record_to_json(record: Record) -> dict:
    if isinstance(record, VideoRecord):
        return {
            "kind": "video",
            "video_id": record.video_id,
            "source": record.source.value,
            "dataset_id": record.dataset_id,
            "domain": record.domain.value,
            "frame_count": record.frame_count,
            "fps": _fps_to_json(record.fps),
            "duration_s": record.duration_s,
        }
    return {
        "kind": "clip",
        "clip_id": record.clip_id,
        "video_id": record.video_id,
        "start_frame": record.start_frame,
        "end_frame": record.end_frame,
        "embedding_row": record.embedding_row,
    }


def _int_field(doc: Mapping, key: str) -> int:
    """doc[key] when it is a JSON integer, not a bool, float or string."""
    value = doc[key]
    if type(value) is not int:
        raise ManifestParseError(f"{key} must be an integer, got {type(value).__name__} {value!r}")
    return value


def _finite_field(doc: Mapping, key: str) -> float:
    """doc[key] as a float when it is a finite JSON number, not a bool or string."""
    value = doc[key]
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ManifestParseError(f"{key} must be a finite number, got {type(value).__name__} {value!r}")
    return float(value)


def record_from_json(doc: Mapping) -> Record:
    # video and dataset ids are interned: a clip shares its parent's id
    # string, so the records hold one copy and index lookups match by identity
    try:
        kind = doc["kind"]
        if kind == "video":
            return VideoRecord(
                video_id=sys.intern(text_field(doc, "video_id", ManifestParseError)),
                source=SourceStream(doc["source"]),
                dataset_id=sys.intern(text_field(doc, "dataset_id", ManifestParseError)),
                domain=Domain(doc["domain"]),
                frame_count=_int_field(doc, "frame_count"),
                fps=_fps_from_json(doc["fps"]),
                duration_s=_finite_field(doc, "duration_s"),
            )
        if kind == "clip":
            return ClipRecord(
                clip_id=text_field(doc, "clip_id", ManifestParseError),
                video_id=sys.intern(text_field(doc, "video_id", ManifestParseError)),
                start_frame=_int_field(doc, "start_frame"),
                end_frame=_int_field(doc, "end_frame"),
                embedding_row=None if doc.get("embedding_row") is None else _int_field(doc, "embedding_row"),
            )
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise ManifestParseError(f"bad corpus record: {exc}") from exc
    raise ManifestParseError(f"unknown record kind {doc.get('kind')!r}")


# The line write_corpus_manifest writes for each kind of record, one group
# per value in record_to_json's sorted key order. A string matches only
# without an escape, and a number only in JSON's grammar with ASCII digits;
# any other line, valid or not, takes the reference path, json.loads and
# record_from_json.
_CHARS = r'[^"\\\x00-\x1f]*'
_INT = r"-?(?:0|[1-9][0-9]*)"
_NUMBER = _INT + r"(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?"
_VALUE_FORMS = {
    **{key: f'"({_CHARS})"' for key in ("clip_id", "video_id", "dataset_id", "source", "domain")},
    **{key: f"({_INT})" for key in ("start_frame", "end_frame", "frame_count")},
    "embedding_row": f"(null|{_INT})",
    "duration_s": f"({_NUMBER})",
    "fps": f'({_NUMBER}|"{_CHARS}")',
}


def _line_form(record: Record) -> str:
    doc = record_to_json(record)
    fields = (f'"{key}": ' + (f'"{doc[key]}"' if key == "kind" else _VALUE_FORMS[key]) for key in sorted(doc))
    return r"\{" + ", ".join(fields) + r"\}"


#: One whole line in either form, with its newline: fullmatch takes a line,
#: findall every line of a block, one match per line. A match fills the
#: five clip groups (clip_id, embedding_row, end_frame, start_frame,
#: video_id) or the seven video groups (dataset_id, domain, duration_s,
#: fps, frame_count, source, video_id); a clip's embedding_row group is
#: never empty.
_RECORD_LINE = re.compile(
    rf"^(?:{_line_form(ClipRecord('', '', 0, 0))}"
    rf"|{_line_form(VideoRecord('', SourceStream.PRIVATE, '', Domain.MIXED, 0, Fraction(1), 0.0))})$\n?",
    re.MULTILINE,
)


def _json_number(text: str) -> int | float:
    """A JSON number as json decodes it: an int unless it has a fraction
    or an exponent (a character other than a sign or a digit)."""
    return float(text) if text.strip("-0123456789") else int(text)


_SOURCES = {member.value: member for member in SourceStream}
_DOMAINS = {member.value: member for member in Domain}


def _video(
    dataset_id: str, domain: str, duration: str, fps: str, frame_count: str, source: str, video_id: str
) -> VideoRecord:
    """The video of a line's video groups; ValueError, KeyError or
    OverflowError where record_from_json may give another outcome (a value
    out of range, an unknown enum value, a failed record check)."""
    duration_s = float(_json_number(duration))  # JSON -0 is the int 0, so 0.0
    if not math.isfinite(duration_s):
        raise ValueError(f"duration_s {duration} is not finite")
    fps_value = _parse_fps(fps[1:-1] if fps[0] == '"' else _json_number(fps))
    # the enum tables give what SourceStream(source) and Domain(domain) give a str
    return VideoRecord(
        sys.intern(video_id), _SOURCES[source], sys.intern(dataset_id), _DOMAINS[domain], int(frame_count), fps_value, duration_s
    )


def _parse_block(block: bytes, clips: bool, append: Callable[[Record], object]) -> None:
    """Append the record of each line of a block of whole lines (the last
    may lack its newline), or with clips=False of each video line, when
    every line is in write_corpus_manifest's form; a clip line is checked
    all the same. ValueError, KeyError or OverflowError where
    record_from_json may give another outcome: a line in another form,
    bytes that are not UTF-8, or a value _video or int rejects."""
    lines = _RECORD_LINE.findall(block.decode("utf-8"))
    if len(lines) != block.count(b"\n") + (not block.endswith(b"\n")):
        raise ValueError("a line is not in the written form")
    intern = sys.intern
    for clip_id, row, end, start, video_id, dataset_id, domain, duration, fps, frame_count, source, vid in lines:
        if not row:
            append(_video(dataset_id, domain, duration, fps, frame_count, source, vid))
        elif clips:
            clip = (clip_id, intern(video_id), int(start), int(end), None if row == "null" else int(row))
            append(tuple.__new__(ClipRecord, clip))
        else:  # the conversions the clip would make, so that the outcome is the same
            int(start), int(end), row == "null" or int(row)


#: Bytes read at a time by read_corpus_manifest.
_BLOCK = 1 << 16


def _blocks(fh) -> Iterator[bytes]:
    """A binary file's bytes in blocks of whole lines (the last one may
    lack its newline), each at most _BLOCK bytes unless it holds a longer
    line."""
    rest = b""
    while data := fh.read(_BLOCK - len(rest) if len(rest) < _BLOCK else len(rest)):
        data = rest + data
        cut = data.rfind(b"\n") + 1
        if cut:
            yield data[:cut]
        rest = data[cut:]
    if rest:
        yield rest


def read_corpus_manifest(path: str | Path, *, clips: bool = True) -> list[Record]:
    """Every record of a corpus manifest, or with clips=False only its
    video records (every clip line is still checked); a malformed line
    raises ManifestParseError naming path:line.

    The file is read in blocks of whole lines, each hashed and decoded
    once, and one findall builds the records of a block (_parse_block). A
    block with any other line (blank, CRLF, another JSON form, malformed),
    bytes that are not UTF-8, or a value that does not convert sends the
    whole file through the reference reader instead, iter_jsonl with
    record_from_json, which gives the records or the error."""
    records: list[Record] = []
    hasher = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for block in _blocks(fh):
                hasher.update(block)
                _parse_block(block, clips, records.append)
    except (ValueError, KeyError, OverflowError):  # what _parse_block raises
        read = iter_jsonl(path, ManifestParseError, record_from_json)
        return list(read) if clips else [rec for rec in read if isinstance(rec, VideoRecord)]
    note_digest("read", path, hasher.hexdigest())
    return records


_ascii = json.encoder.encode_basestring_ascii


def _manifest_line(record: Record) -> str:
    """json.dumps(record_to_json(record), sort_keys=True) + "\n", formatted
    straight from the fields when each has a type the template writes as
    json does: an exact str, int or finite float, a Fraction fps, the
    enums. Any other value (a bool, a NaN, an int subclass, an int duration
    past the largest float) takes json.dumps.
    An exact int or float formats as its __repr__, which is what json writes.

    A json.dumps line is read back through record_from_json: a record whose
    line read_corpus_manifest would reject (a bool or float count, a
    duration that is not a finite float) raises CorpusError naming its id."""
    if type(record) is ClipRecord:
        clip_id, video_id, start, end, row = record
        if type(clip_id) is type(video_id) is str and type(start) is type(end) is int and (row is None or type(row) is int):
            return (
                f'{{"clip_id": {_ascii(clip_id)}, "embedding_row": {"null" if row is None else row}, '
                f'"end_frame": {end}, "kind": "clip", "start_frame": {start}, "video_id": {_ascii(video_id)}}}\n'
            )
    elif type(record) is VideoRecord:
        video_id, source, dataset_id, domain, frame_count, fps, duration_s = record
        if (
            type(video_id) is type(dataset_id) is str
            and type(source) is SourceStream
            and type(domain) is Domain
            and type(frame_count) is int
            and type(fps) is Fraction
            # an int past the largest float is a duration the reader cannot take
            and (type(duration_s) is int and duration_s <= sys.float_info.max
                 or type(duration_s) is float and math.isfinite(duration_s))
        ):
            fps = _fps_to_json(fps)  # an int, or a "p/q" string
            return (
                f'{{"dataset_id": {_ascii(dataset_id)}, "domain": {_ascii(domain.value)}, "duration_s": {duration_s}, '
                f'"fps": {_ascii(fps) if type(fps) is str else fps}, "frame_count": {frame_count}, "kind": "video", '
                f'"source": {_ascii(source.value)}, "video_id": {_ascii(video_id)}}}\n'
            )
    line = json.dumps(record_to_json(record), sort_keys=True)
    try:
        record_from_json(json.loads(line))
    except ManifestParseError as exc:
        record_id = record.video_id if isinstance(record, VideoRecord) else record.clip_id
        raise CorpusError(f"record {record_id!r} would be written as a line the manifest reader rejects: {exc}") from exc
    return line + "\n"


def write_corpus_manifest(records: Iterable[Record], path: str | Path) -> None:
    lines = map(_manifest_line, records)
    # 1,024 lines to a chunk: write_atomic encodes, hashes and writes per chunk
    write_atomic(path, iter(lambda: "".join(itertools.islice(lines, 1024)), ""))
