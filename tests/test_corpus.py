import hashlib
import json
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surgcurate import corpus
from surgcurate.artifact import iter_jsonl, noted_digests
from surgcurate.corpus import (
    ClipRecord,
    CorpusError,
    CorpusIndex,
    Domain,
    DomainMap,
    ManifestParseError,
    SourceStream,
    UnknownDataset,
    VideoRecord,
    _frame_count_mismatch,
    corpus_stats,
    inventory_report,
    read_corpus_manifest,
    record_from_json,
    record_to_json,
    scale_comparison_report,
    validate_corpus,
    write_corpus_manifest,
)
from surgcurate.synthetic import make_fixture_corpus, paper_scale_inventory

from .oracles import frame_count_mismatch_fraction


def _video(video_id="v1", frame_count=3000, dataset="cholec80", domain=Domain.LAPAROSCOPY):
    return VideoRecord(
        video_id=video_id,
        source=SourceStream.PUBLIC_CLINICAL,
        dataset_id=dataset,
        domain=domain,
        frame_count=frame_count,
        fps=Fraction(30),
        duration_s=frame_count / 30.0,
    )


class TestDomainMap:
    def test_known_lookups(self):
        assert DomainMap.default().domain_of("cholec80") is Domain.LAPAROSCOPY
        assert DomainMap.default().domain_of("jigsaws") is Domain.ROBOTIC
        assert DomainMap.default().domain_of("avos") is Domain.MIXED

    def test_normalization(self):
        assert DomainMap.default().domain_of("Cholec80") is Domain.LAPAROSCOPY
        assert DomainMap.default().domain_of("SAR-RARP50") is Domain.ROBOTIC
        assert DomainMap.default().domain_of("CATARACTS-1k") is Domain.CATARACT

    def test_unknown_is_an_error(self):
        with pytest.raises(UnknownDataset):
            DomainMap.default().domain_of("not-a-dataset")

    def test_every_benchmark_dataset_resolves(self):
        benchmark = [
            "aixsuture", "autolaparo", "cataract-21", "cataract-101", "cataracts-1k",
            "cholec80", "colonoscopic", "hyperkvasir", "jigsaws", "kvasir-capsule",
            "lapgyn4", "ldpolypvideo", "m2cai16", "multibypass140",
            "surgicalactions160", "sar-rarp50",
        ]
        mapping = DomainMap.default()
        domains = {d: mapping.domain_of(d) for d in benchmark}
        assert len(domains) == 16
        assert all(d is not Domain.MIXED for d in domains.values())


class TestValidation:
    def test_interval_out_of_range(self):
        video = _video(frame_count=100)
        clip = ClipRecord("c1", "v1", start_frame=50, end_frame=150)
        report = validate_corpus(CorpusIndex([video, clip]))
        assert [(v.code, v.record_id) for v in report.violations] == [("interval out of range", "c1")]

    def test_duplicate_video_id(self):
        records = [_video(), _video()]
        report = validate_corpus(records)
        assert [v.code for v in report.violations] == ["duplicate id"]

    def test_dangling_clip(self):
        clip = ClipRecord("c1", "ghost", 0, 10)
        report = validate_corpus(CorpusIndex([clip]))
        assert [v.code for v in report.violations] == ["dangling foreign key"]

    def test_wellformed_record_is_clean(self):
        video = _video()
        clip = ClipRecord("c1", "v1", 0, 100)
        report = validate_corpus(CorpusIndex([video, clip]))
        assert report.is_valid
        assert report.warnings == []

    def test_metadata_mismatch_warns_not_fails(self):
        video = VideoRecord("v1", SourceStream.PRIVATE, "cholec80", Domain.LAPAROSCOPY,
                            frame_count=10_000, fps=Fraction(30), duration_s=10.0)
        report = validate_corpus(CorpusIndex([video]))
        assert report.is_valid
        assert [w.code for w in report.warnings] == ["metadata mismatch"]

    def test_overlapping_clips_are_allowed(self):
        video = _video(frame_count=200)
        clips = [ClipRecord("c1", "v1", 0, 100), ClipRecord("c2", "v1", 50, 150)]
        assert validate_corpus([video, *clips]).is_valid

    def test_duplicate_ids_are_reported_once_per_record_kind(self):
        """A video and a clip may carry the same id string; each kind's
        repeat is its own violation."""
        records = [_video("a"), _video("a"), ClipRecord("a", "a", 0, 10), ClipRecord("a", "a", 0, 10)]
        report = validate_corpus(records)
        assert [(v.code, v.record_id) for v in report.violations] == [("duplicate id", "a")] * 2

    def test_index_and_records_give_the_same_report(self):
        mismatch = VideoRecord("v2", SourceStream.PRIVATE, "cholec80", Domain.LAPAROSCOPY,
                               frame_count=10_000, fps=Fraction(30), duration_s=10.0)
        records = [
            _video("v1"), _video("v1", frame_count=10), ClipRecord("c1", "v1", 0, 100),
            ClipRecord("c1", "v1", 5, 2), ClipRecord("c2", "ghost", 0, 1), mismatch,
        ]
        report = validate_corpus(CorpusIndex(records))
        assert report == validate_corpus(records) == validate_corpus(iter(records))
        assert [(v.code, v.record_id) for v in report.violations] == [
            ("duplicate id", "v1"),
            ("duplicate id", "c1"),
            ("interval out of range", "c1"),
            ("dangling foreign key", "c2"),
        ]
        assert [(w.code, w.record_id) for w in report.warnings] == [("metadata mismatch", "v2")]


_FPS_NTSC = Fraction(30000, 1001)


class TestFrameCountRule:
    """The integer frame-count check against the Fraction rule it replaces."""

    @pytest.mark.parametrize(
        "fps,duration_s,frame_count",
        [
            # slack boundary, and one frame either side of it
            *[(Fraction(30), 10.0, f) for f in (289, 290, 291, 309, 310, 311)],
            *[(_FPS_NTSC, 1001.0, f) for f in (28998, 28999, 29000, 31000, 31001, 31002)],
            # under one second of footage the slack is one frame
            *[(_FPS_NTSC, 1e-05, f) for f in (0, 1, 2)],
            *[(Fraction(25), 0.5, f) for f in (11, 12, 13, 14)],
            *[(Fraction(25), 0.0, f) for f in (0, 1, 2)],
            # frame counts past 2^53 and far past any float
            *[(Fraction(30), 1e15, f) for f in (31 * 10**15, 31 * 10**15 + 1, 29 * 10**15 - 1)],
            (Fraction(30), 3e14, 2**53 + 1),
            *[(Fraction(30), 1e300, f) for f in (31 * 10**300, 31 * 10**300 + 1)],
            (_FPS_NTSC, 572.08, 10**400),
            (Fraction(1, 10**9), 1e-05, 0),
        ],
    )
    def test_cases(self, fps, duration_s, frame_count):
        want = frame_count_mismatch_fraction(frame_count, fps, duration_s)
        assert _frame_count_mismatch(frame_count, fps, duration_s) is want

    @settings(max_examples=500, deadline=None)
    @given(
        p=st.integers(1, 10**6),
        q=st.integers(1, 10**4),
        duration_s=st.floats(0, allow_nan=False, allow_infinity=False),
        offset=st.integers(-3, 3),
        far=st.booleans(),
    )
    # every repr form: exponents, a subnormal, the largest float, zero, integral floats
    @example(p=30, q=1, duration_s=1e-05, offset=0, far=False)
    @example(p=30, q=1, duration_s=1e22, offset=1, far=True)
    @example(p=30000, q=1001, duration_s=5e-324, offset=0, far=True)
    @example(p=30000, q=1001, duration_s=1.7976931348623157e308, offset=-1, far=False)
    @example(p=25, q=1, duration_s=0.0, offset=2, far=False)
    @example(p=25, q=1, duration_s=4.0e15, offset=1, far=True)
    @example(p=25, q=1, duration_s=1e16, offset=-1, far=True)
    def test_random_near_the_boundary(self, p, q, duration_s, offset, far):
        """Frame counts one or two frames around either edge of the slack,
        for any finite duration."""
        fps = Fraction(p, q)
        duration = Fraction(repr(duration_s))
        edge = fps * duration + (1 if far else -1) * max(duration, Fraction(1))
        frame_count = max(0, math.floor(edge) + offset)
        want = frame_count_mismatch_fraction(frame_count, fps, duration_s)
        assert _frame_count_mismatch(frame_count, fps, duration_s) is want


class TestCorpusStats:
    def test_paper_scale_inventory_totals(self):
        records = paper_scale_inventory()
        stats = corpus_stats(records)
        assert stats.total_videos == 10_535
        assert stats.total_frames == 214_500_000
        public = stats.by_source(SourceStream.PUBLIC_CLINICAL)
        assert public.video_count == 2_790
        assert public.frame_sum == 39_900_000
        web = stats.by_source(SourceStream.WEB_EDUCATIONAL)
        assert web.video_count == 7_745
        assert web.frame_sum == 174_600_000

    def test_totals_equal_cell_sums(self):
        stats = corpus_stats(paper_scale_inventory())
        assert stats.total_videos == sum(c.video_count for c in stats.cells.values())
        assert stats.total_frames == sum(c.frame_sum for c in stats.cells.values())

    def test_empty_input(self):
        stats = corpus_stats([])
        assert stats.total_videos == 0
        assert stats.total_clips == 0
        assert stats.total_frames == 0

    def test_clip_attribution(self):
        video = _video()
        clips = [ClipRecord(f"c{i}", "v1", 0, 10) for i in range(5)]
        stats = corpus_stats([video, *clips])
        cell = stats.cells[(SourceStream.PUBLIC_CLINICAL, Domain.LAPAROSCOPY)]
        assert cell.clip_count == 5
        assert cell.video_count == 1

    def test_reports_render(self):
        stats = corpus_stats(make_fixture_corpus().records)
        inventory = inventory_report(stats)
        assert "| Source | Domain |" in inventory
        assert f"{stats.total_videos:,}" in inventory
        comparison = scale_comparison_report(stats)
        assert "Ours" in comparison and "videos" in comparison


class TestManifestIO:
    def test_roundtrip(self, tmp_path, fixture_corpus):
        path = tmp_path / "corpus.jsonl"
        write_corpus_manifest(fixture_corpus.records, path)
        back = read_corpus_manifest(path)
        assert back == fixture_corpus.records

    def test_unknown_kind_rejected(self):
        with pytest.raises(ManifestParseError):
            record_from_json({"kind": "audio"})

    def test_unknown_source_tag_rejected(self):
        doc = {
            "kind": "video", "video_id": "v", "source": "Telepathic", "dataset_id": "cholec80",
            "domain": "Laparoscopy", "frame_count": 1, "fps": 30, "duration_s": 0.03,
        }
        with pytest.raises(ManifestParseError):
            record_from_json(doc)

    @pytest.mark.parametrize(
        "kind,key",
        [("video", "video_id"), ("video", "dataset_id"), ("clip", "clip_id"), ("clip", "video_id")],
    )
    def test_non_string_id_rejected(self, kind, key):
        docs = {
            "video": {"kind": "video", "video_id": "v", "source": "Private", "dataset_id": "cholec80",
                      "domain": "Laparoscopy", "frame_count": 1, "fps": 30, "duration_s": 0.03},
            "clip": {"kind": "clip", "clip_id": "c", "video_id": "v", "start_frame": 0, "end_frame": 1},
        }
        record_from_json(docs[kind])
        with pytest.raises(ManifestParseError, match=f"{key} must be a string, got int"):
            record_from_json({**docs[kind], key: 5})

    @pytest.mark.parametrize(
        "kind,key,value,message",
        [
            ("video", "frame_count", 1.9, "frame_count must be an integer, got float"),
            ("video", "frame_count", "30", "frame_count must be an integer, got str"),
            ("clip", "start_frame", 1.9, "start_frame must be an integer, got float"),
            ("clip", "end_frame", True, "end_frame must be an integer, got bool"),
            ("clip", "embedding_row", "7", "embedding_row must be an integer, got str"),
            ("video", "duration_s", "nan", "duration_s must be a finite number, got str"),
            ("video", "duration_s", float("nan"), "duration_s must be a finite number, got float nan"),
            ("video", "duration_s", float("inf"), "duration_s must be a finite number, got float inf"),
            ("video", "duration_s", False, "duration_s must be a finite number, got bool"),
            pytest.param("video", "duration_s", 10**400, "too large", id="duration_s-beyond-float"),
        ],
    )
    def test_non_numeric_field_rejected(self, kind, key, value, message):
        docs = {
            "video": {"kind": "video", "video_id": "v", "source": "Private", "dataset_id": "cholec80",
                      "domain": "Laparoscopy", "frame_count": 1, "fps": 30, "duration_s": 0.03},
            "clip": {"kind": "clip", "clip_id": "c", "video_id": "v", "start_frame": 0, "end_frame": 1,
                     "embedding_row": 7},
        }
        record_from_json(docs[kind])
        with pytest.raises(ManifestParseError, match=message):
            record_from_json({**docs[kind], key: value})

    def test_fractional_fps_roundtrip(self, tmp_path):
        video = VideoRecord("v1", SourceStream.PRIVATE, "cholec80", Domain.LAPAROSCOPY,
                            frame_count=2997, fps=Fraction(30000, 1001), duration_s=100.0)
        path = tmp_path / "one.jsonl"
        write_corpus_manifest([video], path)
        assert read_corpus_manifest(path)[0].fps == Fraction(30000, 1001)

    def test_garbage_line_is_a_parse_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json at all\n", encoding="utf-8")
        with pytest.raises(ManifestParseError):
            read_corpus_manifest(path)


def _reference_records(path):
    return list(iter_jsonl(path, ManifestParseError, record_from_json))


def _outcome(read, path) -> tuple[str, str]:
    """("ok", repr of the records) or (exception class, message); repr
    tells -0.0 from 0.0, which == does not."""
    try:
        return "ok", repr(read(path))
    except Exception as exc:
        return type(exc).__name__, str(exc)


#: Id characters a JSON string may carry raw or must escape.
_ID_TEXT = st.text(
    alphabet=st.sampled_from(["a", "7", "é", '"', "\\", "\x00", "\x1f", "\x7f", " ", "٣", "\U0001f600"])
    | st.characters(exclude_categories=("Cs",)),
    max_size=5,
)


@st.composite
def _string_token(draw, text=_ID_TEXT):
    """A JSON string as write_corpus_manifest writes it, with raw UTF-8, or
    with its characters unescaped (invalid when it holds a quote, a
    backslash or a control character)."""
    value = draw(text)
    form = draw(st.sampled_from(["ascii", "utf-8", "raw"]))
    if form == "raw":
        return f'"{value}"'
    return json.dumps(value, ensure_ascii=form == "ascii")


_BIG = "1" + "0" * 4999  # 5,000 digits: past int's default conversion limit
_ODD_NUMBERS = ["0", "-0", "-0.0", "007", "1.", ".5", "1e3", "1E+2", "2.5e-3", "1e400", "-1e400", "Infinity", "NaN",
                "1" + "0" * 400, _BIG, "-" + _BIG, "٣", "1٣", "true", "null", '"5"']
_INT_TOKEN = st.integers(min_value=-(10**20), max_value=10**20).map(str) | st.sampled_from(_ODD_NUMBERS)
_DURATION_TOKEN = (
    st.integers(min_value=-3, max_value=10**6).map(str)
    | st.floats(allow_nan=False, allow_infinity=False).map(repr)
    | st.sampled_from(_ODD_NUMBERS)
)
_FPS_TOKEN = (
    st.integers(min_value=-2, max_value=10**20).map(str)
    | st.floats(min_value=-1, max_value=120, allow_nan=False).map(repr)
    | st.sampled_from(['"30000/1001"', '"30"', '"1/0"', '"abc"', '"\\u0033"', "12345678901234567891", *_ODD_NUMBERS])
)
_ENUM_TOKEN = _string_token(
    st.sampled_from([*(s.value for s in SourceStream), *(d.value for d in Domain), "Telepathic"])
)


@st.composite
def _record_line(draw) -> str:
    """One line in write_corpus_manifest's key order, each value one JSON
    text of the form the fast path takes, or of another form."""
    strings = _string_token()
    if draw(st.booleans()):
        values = {
            "clip_id": draw(strings), "embedding_row": draw(st.just("null") | _INT_TOKEN),
            "end_frame": draw(_INT_TOKEN), "kind": '"clip"', "start_frame": draw(_INT_TOKEN),
            "video_id": draw(strings),
        }
    else:
        values = {
            "dataset_id": draw(strings), "domain": draw(_ENUM_TOKEN), "duration_s": draw(_DURATION_TOKEN),
            "fps": draw(_FPS_TOKEN), "frame_count": draw(_INT_TOKEN), "kind": '"video"',
            "source": draw(_ENUM_TOKEN), "video_id": draw(strings),
        }
    return "{" + ", ".join(f'"{key}": {value}' for key, value in values.items()) + "}"


_RECORDS = st.one_of(
    st.builds(
        ClipRecord, _ID_TEXT, _ID_TEXT, st.integers(-(10**30), 10**30), st.integers(-(10**30), 10**30),
        st.none() | st.integers(-1, 10**12),
    ),
    st.builds(
        VideoRecord, _ID_TEXT, st.sampled_from(SourceStream), _ID_TEXT, st.sampled_from(Domain),
        st.integers(0, 10**30),
        st.sampled_from([Fraction(25), Fraction(30000, 1001), Fraction(1, 3)])
        | st.fractions(min_value=Fraction(1, 10**6), max_value=10**6),
        st.floats(min_value=0, max_value=1e300) | st.integers(0, 10**6).map(float),
    ),
)


def _mutate(line: bytes, how: str, cut: int) -> bytes:
    """One canonical line (with its newline) altered as a hand-edited or
    damaged manifest might be."""
    doc = json.loads(line)
    if how == "reordered":
        return json.dumps(dict(reversed(doc.items()))).encode() + b"\n"
    if how == "duplicate-key":
        key = sorted(doc)[cut % len(doc)]
        return line[:1] + json.dumps({key: None}).encode()[1:-1] + b", " + line[1:]
    if how == "spaces":
        return line.replace(b", ", b" ,  ", 1 + cut % 3)
    if how == "crlf":
        return line[:-1] + b"\r\n"
    if how == "bom":
        return b"\xef\xbb\xbf" + line
    if how == "not-utf8":
        return line[: cut % len(line)] + b"\xff" + line[cut % len(line):]
    assert how == "truncated"  # the file's last line, cut short, without a newline
    return line[: cut % len(line)]


class TestManifestFastPath:
    """read_corpus_manifest against the reference reader, json.loads and
    record_from_json on every line: the same records (by repr), or the
    same exception class and message."""

    @settings(max_examples=400, deadline=None)
    @given(line=_record_line())
    @example(line='{"dataset_id": "d", "domain": "Mixed", "duration_s": -0, "fps": 30, "frame_count": 1, '
                  '"kind": "video", "source": "Private", "video_id": "v"}')
    @example(line='{"dataset_id": "d", "domain": "Mixed", "duration_s": -0.0, "fps": 30.0, "frame_count": -0, '
                  '"kind": "video", "source": "Private", "video_id": "v"}')
    @example(line='{"clip_id": "c", "embedding_row": null, "end_frame": ' + _BIG + ', "kind": "clip", '
                  '"start_frame": 0, "video_id": "v"}')
    @example(line='{"dataset_id": "d", "domain": "Mixed", "duration_s": 1e400, "fps": "30000/1001", '
                  '"frame_count": 1, "kind": "video", "source": "Private", "video_id": "v"}')
    @example(line='{"dataset_id": "d", "domain": "Mixed", "duration_s": 1, "fps": 12345678901234567891, '
                  '"frame_count": 1, "kind": "video", "source": "Private", "video_id": "v"}')
    def test_generated_lines(self, tmp_path_factory, line):
        path = tmp_path_factory.mktemp("fast") / "c.jsonl"
        path.write_bytes(b'{"kind": "clip", "clip_id": "c0", "video_id": "v", "start_frame": 0, "end_frame": 1}\n'
                         + line.encode("utf-8") + b"\n")
        assert _outcome(read_corpus_manifest, path) == _outcome(_reference_records, path)

    @settings(max_examples=300, deadline=None)
    @given(
        records=st.lists(_RECORDS, min_size=1, max_size=4),
        how=st.sampled_from(["none", "reordered", "duplicate-key", "spaces", "crlf", "bom", "not-utf8", "truncated"]),
        at=st.integers(0, 3),
        cut=st.integers(0, 10**6),
    )
    def test_written_and_mutated_lines(self, tmp_path_factory, records, how, at, cut):
        path = tmp_path_factory.mktemp("fast") / "c.jsonl"
        write_corpus_manifest(records, path)
        lines = path.read_bytes().splitlines(keepends=True)
        if how == "truncated":
            lines[-1] = _mutate(lines[-1], how, cut)
        elif how != "none":
            at %= len(lines)
            lines[at] = _mutate(lines[at], how, cut)
        path.write_bytes(b"".join(lines))
        assert _outcome(read_corpus_manifest, path) == _outcome(_reference_records, path)

    @pytest.mark.parametrize("records", ["fixture", "paper-scale"])
    def test_written_lines_all_take_the_fast_path(self, tmp_path, monkeypatch, fixture_corpus, records):
        """If record_to_json gains a field, this fails rather than every
        line silently taking the reference path."""
        records = fixture_corpus.records if records == "fixture" else paper_scale_inventory()
        path = tmp_path / "c.jsonl"
        write_corpus_manifest(records, path)
        decoded = []
        decode = corpus.record_from_json
        monkeypatch.setattr(corpus, "record_from_json", lambda doc: decoded.append(doc) or decode(doc))
        assert repr(read_corpus_manifest(path)) == repr(records)
        assert decoded == []

    def test_parse_error_names_the_line(self, tmp_path, fixture_corpus):
        path = tmp_path / "c.jsonl"
        write_corpus_manifest(fixture_corpus.records[:3], path)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[0] + b"\n" + lines[1].replace(b'"kind": "', b'"kind": "x') + lines[2])
        with pytest.raises(ManifestParseError, match=rf"^{path}:3: ManifestParseError: unknown record kind 'x"):
            read_corpus_manifest(path)


def _reference_videos(path):
    return [rec for rec in _reference_records(path) if isinstance(rec, VideoRecord)]


def _read_videos(path):
    return read_corpus_manifest(path, clips=False)


def _damage(lines: list[bytes], how: str, at: int, cut: int) -> list[bytes]:
    """A written manifest's lines with one line damaged, or a line of
    whitespace put before it; the last line loses its newline with
    "no-final-newline"."""
    lines = list(lines)
    if how == "no-final-newline":
        lines[-1] = lines[-1][:-1]
    elif how in ("blank", "whitespace"):
        lines.insert(at, b"\n" if how == "blank" else b" \t\x0b\x0c \n")
    elif how != "none":
        lines[at] = _mutate(lines[at], how, cut)
    return lines


class TestBlockReader:
    """read_corpus_manifest reads blocks of whole lines; whatever the block
    size and wherever a line a block cannot take sits, it gives the
    reference reader's records or its exception, and clips=False gives the
    same filtered to the videos."""

    @settings(max_examples=300, deadline=None)
    @given(
        records=st.lists(_RECORDS, min_size=1, max_size=8),
        block=st.integers(1, 128),
        how=st.sampled_from(
            ["none", "no-final-newline", "blank", "whitespace", "crlf", "reordered", "spaces", "not-utf8", "truncated"]
        ),
        back=st.integers(0, 7),
        cut=st.integers(0, 10**6),
    )
    def test_any_block_size_reads_as_the_reference(self, tmp_path_factory, records, block, how, back, cut):
        path = tmp_path_factory.mktemp("blocks") / "c.jsonl"
        write_corpus_manifest(records, path)
        lines = path.read_bytes().splitlines(keepends=True)
        at = len(lines) - 1 if how == "truncated" else max(len(lines) - 1 - back, 0)  # mostly in a late block
        data = b"".join(_damage(lines, how, at, cut))
        path.write_bytes(data)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(corpus, "_BLOCK", block)
            records_read, videos_read = _outcome(read_corpus_manifest, path), _outcome(_read_videos, path)
        assert records_read == _outcome(_reference_records, path)
        assert videos_read == _outcome(_reference_videos, path)
        if records_read[0] == "ok":
            assert noted_digests("read")[str(path)] == hashlib.sha256(data).hexdigest()

    def test_written_lines_take_the_block_path_at_every_block_size(self, tmp_path, monkeypatch, fixture_corpus):
        """No block size, however it cuts the lines, sends a written
        manifest to the line-at-a-time path."""
        path = tmp_path / "c.jsonl"
        write_corpus_manifest(fixture_corpus.records, path)
        monkeypatch.setattr(corpus, "iter_jsonl", None)  # the reference path would raise TypeError
        for block in range(1, 129):
            monkeypatch.setattr(corpus, "_BLOCK", block)
            assert read_corpus_manifest(path) == fixture_corpus.records
            assert read_corpus_manifest(path, clips=False) == [r for r in fixture_corpus.records if isinstance(r, VideoRecord)]

    def test_videos_only_is_the_full_read_filtered(self, tmp_path, fixture_corpus):
        path = tmp_path / "c.jsonl"
        write_corpus_manifest(fixture_corpus.records, path)
        videos = read_corpus_manifest(path, clips=False)
        assert videos == [rec for rec in read_corpus_manifest(path) if isinstance(rec, VideoRecord)]
        assert all(isinstance(rec, VideoRecord) for rec in videos) and videos

    @pytest.mark.parametrize(
        "old,new,message",
        [
            pytest.param(b'"end_frame": 9', b'"end_frame": 9.5', "end_frame must be an integer, got float", id="float"),
            pytest.param(b'"end_frame": 9', b'"end_frame": 1' + b"0" * 5000, "Exceeds the limit", id="past-digit-limit"),
            pytest.param(b'"start_frame": 0', b'"start_frame": true', "start_frame must be an integer, got bool", id="bool"),
        ],
    )
    def test_videos_only_still_checks_every_clip_line(self, tmp_path, old, new, message):
        path = tmp_path / "c.jsonl"
        write_corpus_manifest([_video(), ClipRecord("c1", "v1", 0, 9), ClipRecord("c2", "v1", 1, 9)], path)
        path.write_bytes(path.read_bytes().replace(old, new, 1))
        for clips in (True, False):
            with pytest.raises(ManifestParseError, match=rf"^{path}:2: .*{message}"):
                read_corpus_manifest(path, clips=clips)


class TestRecords:
    """Records are immutable named tuples; a VideoRecord checks its fields
    however it is made."""

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("frame_count", -1, "v1: frame_count must be >= 0"),
            ("fps", Fraction(0), "v1: fps must be positive"),
            ("fps", Fraction(-25), "v1: fps must be positive"),
            ("duration_s", -0.5, "v1: duration_s must be >= 0"),
        ],
    )
    def test_an_invalid_video_is_a_value_error_every_way(self, field, value, message):
        good = _video()
        fields = {**good._asdict(), field: value}
        makers = {
            "call": lambda: VideoRecord(**fields),
            "_make": lambda: VideoRecord._make(fields.values()),
            "_replace": lambda: good._replace(**{field: value}),
        }
        for how, make in makers.items():
            with pytest.raises(ValueError, match=f"^{message}$"):
                make()
                pytest.fail(how)

    def test_fields_cannot_be_assigned(self):
        for rec in (_video(), ClipRecord("c", "v1", 0, 10)):
            with pytest.raises(AttributeError):
                rec.video_id = "x"
            with pytest.raises(AttributeError):
                rec.note = "x"

    def test_pickle_round_trips(self, fixture_corpus):
        records = [*fixture_corpus.records, ClipRecord("c", "v1", 0, 10, 3)]
        back = pickle.loads(pickle.dumps(records))
        assert back == records
        assert [type(rec) for rec in back] == [type(rec) for rec in records]
        assert repr(back) == repr(records)

    def test_repr_and_tuple_semantics(self):
        clip = ClipRecord("c", "v1", 0, 10)
        assert repr(clip) == "ClipRecord(clip_id='c', video_id='v1', start_frame=0, end_frame=10, embedding_row=None)"
        assert clip == ("c", "v1", 0, 10, None)
        video = VideoRecord("v1", SourceStream.PRIVATE, "d", Domain.MIXED, 30, Fraction(30000, 1001), 1.5)
        assert repr(video) == (
            "VideoRecord(video_id='v1', source=<SourceStream.PRIVATE: 'Private'>, dataset_id='d', "
            "domain=<Domain.MIXED: 'Mixed'>, frame_count=30, fps=Fraction(30000, 1001), duration_s=1.5)"
        )
        video_id, source, *_ = video
        assert (video_id, source) == ("v1", SourceStream.PRIVATE)


class _Text(str):
    pass


class _Count(int):
    pass


#: ints as json writes them, and values the template leaves to json.dumps:
#: bools, an int subclass, floats (an int past the digit limit has no repr
#: for Hypothesis to report, so test_an_int_past_the_digit_limit has those)
_WRITER_INTS = st.integers(-(10**30), 10**30) | st.sampled_from([True, False, _Count(7), 1.5, -0.0, float("nan"), 10**400])
_WRITER_TEXT = _ID_TEXT | _ID_TEXT.map(_Text)

_WRITER_RECORDS = st.one_of(
    st.builds(ClipRecord, _WRITER_TEXT, _WRITER_TEXT, _WRITER_INTS, _WRITER_INTS, st.none() | _WRITER_INTS),
    st.builds(
        VideoRecord, _WRITER_TEXT, st.sampled_from(SourceStream), _WRITER_TEXT, st.sampled_from(Domain),
        st.integers(0, 10**30) | st.sampled_from([True, _Count(3), 2.5]),
        st.sampled_from([Fraction(25), Fraction(30000, 1001), Fraction(1, 3), 30, True, _Count(24)])
        | st.fractions(min_value=Fraction(1, 10**6), max_value=10**6),
        st.floats(min_value=0) | st.sampled_from([-0.0, float("nan"), 0, 7, 10**400, True, _Count(2)]),
    ),
)


def _write_outcome(write, record) -> tuple[str, str]:
    try:
        return "ok", write(record)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _writer_video(video_id="v", frame_count=1, duration_s=1.0):
    return VideoRecord(video_id, SourceStream.PRIVATE, "d", Domain.MIXED, frame_count, Fraction(25), duration_s)


class TestManifestWriter:
    """write_corpus_manifest formats each line from the record; the bytes
    are json.dumps's with sorted keys, or its exception, or CorpusError
    for a record whose line read_corpus_manifest would reject."""

    @settings(max_examples=400, deadline=None)
    @given(record=_WRITER_RECORDS)
    @example(record=ClipRecord('a"\\\n\x00', "é\U0001f600", -0, 10**30, None))
    @example(record=VideoRecord("v", SourceStream.PRIVATE, "d", Domain.MIXED, 1, Fraction(30000, 1001), -0.0))
    @example(record=VideoRecord("v", SourceStream.PRIVATE, "d", Domain.MIXED, 1, Fraction(25), float("nan")))
    @example(record=VideoRecord("v", SourceStream.PRIVATE, "d", Domain.MIXED, 1, Fraction(25), float("inf")))
    @example(record=VideoRecord("v", SourceStream.PRIVATE, "d", Domain.MIXED, True, Fraction(25), 1.0))
    @example(record=VideoRecord("v", SourceStream.PRIVATE, "d", Domain.MIXED, 1, Fraction(25), 2**1024 - 2**970))
    @example(record=VideoRecord("v", SourceStream.PRIVATE, "d", Domain.MIXED, 1, Fraction(25), 2**1024 - 2**971))
    @example(record=ClipRecord("c", "v", 0, 9.0))
    def test_each_line_is_json_dumps_sorted(self, tmp_path_factory, record):
        reference = _write_outcome(lambda r: json.dumps(record_to_json(r), sort_keys=True) + "\n", record)
        got = _write_outcome(corpus._manifest_line, record)
        tmp = tmp_path_factory.mktemp("writer")
        if reference[0] == "ok":
            (tmp / "ref.jsonl").write_text(reference[1], encoding="utf-8")
        if reference[0] == "ok" and _outcome(read_corpus_manifest, tmp / "ref.jsonl")[0] != "ok":
            assert got[0] == "CorpusError" and repr(record[0]) in got[1]
            with pytest.raises(CorpusError):
                write_corpus_manifest([record], tmp / "c.jsonl")
            assert sorted(p.name for p in tmp.iterdir()) == ["ref.jsonl"]
        else:
            assert got == reference

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: _writer_video(frame_count=True), id="bool-frame-count"),
            pytest.param(lambda: _writer_video(frame_count=3.0), id="float-frame-count"),
            pytest.param(lambda: _writer_video(duration_s=True), id="bool-duration"),
            pytest.param(lambda: _writer_video(duration_s=float("nan")), id="nan-duration"),
            pytest.param(lambda: _writer_video(duration_s=float("inf")), id="inf-duration"),
            pytest.param(lambda: _writer_video(duration_s=2**1024), id="int-duration-past-float"),
            pytest.param(lambda: ClipRecord("c", "v", True, 9), id="bool-start-frame"),
            pytest.param(lambda: ClipRecord("c", "v", 0, 9.0), id="float-end-frame"),
            pytest.param(lambda: ClipRecord("c", "v", 0, 9, False), id="bool-embedding-row"),
        ],
    )
    def test_an_unreadable_record_leaves_the_target_as_it_was(self, tmp_path, make):
        """A record whose line read_corpus_manifest would reject, after a
        good one: CorpusError naming its id, the old manifest untouched and
        no temporary file left beside it."""
        record = make()
        path = tmp_path / "c.jsonl"
        path.write_bytes(b"old\n")
        with pytest.raises(CorpusError, match=f"record {record[0]!r} .*reader rejects"):
            write_corpus_manifest([_writer_video(video_id="good"), record], path)
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["c.jsonl"]

    def test_an_int_past_the_digit_limit(self):
        huge = 10**5000

        def video(frame_count=1, fps=Fraction(25), duration_s=1.0):
            return VideoRecord("v", SourceStream.PRIVATE, "d", Domain.MIXED, frame_count, fps, duration_s)

        records = [
            video(frame_count=huge), video(fps=Fraction(huge)), video(fps=Fraction(1, huge)), video(duration_s=huge),
            ClipRecord("c", "v", -huge, 0), ClipRecord("c", "v", 0, huge), ClipRecord("c", "v", 0, 1, huge),
        ]
        for record in records:
            reference = _write_outcome(lambda r: json.dumps(record_to_json(r), sort_keys=True) + "\n", record)
            assert reference[0] == "ValueError"
            assert _write_outcome(corpus._manifest_line, record) == reference

    def test_a_manifest_is_its_lines(self, tmp_path, fixture_corpus):
        records = [*paper_scale_inventory(), *fixture_corpus.records]  # past one 1,024-line chunk
        path = tmp_path / "c.jsonl"
        write_corpus_manifest(records, path)
        assert path.read_text("utf-8") == "".join(json.dumps(record_to_json(r), sort_keys=True) + "\n" for r in records)
        write_corpus_manifest([], path)
        assert path.read_bytes() == b""
