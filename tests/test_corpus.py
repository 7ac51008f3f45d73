import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surgcurate.corpus import (
    ClipRecord,
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
