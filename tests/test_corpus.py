from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from surgcurate.corpus import (
    ClipRecord,
    CorpusIndex,
    Domain,
    DomainMap,
    FrameTooSmall,
    ManifestParseError,
    SourceStream,
    UnknownDataset,
    VideoRecord,
    ZeroDimension,
    corpus_stats,
    domain_of,
    inventory_report,
    random_crop_rect,
    read_corpus_manifest,
    record_from_json,
    resize_shortest_side,
    scale_comparison_report,
    validate_corpus,
    validate_record,
    write_corpus_manifest,
)
from surgcurate.synthetic import make_fixture_corpus, paper_scale_inventory


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
        assert domain_of("cholec80") is Domain.LAPAROSCOPY
        assert domain_of("jigsaws") is Domain.ROBOTIC
        assert domain_of("avos") is Domain.MIXED

    def test_normalization(self):
        assert domain_of("Cholec80") is Domain.LAPAROSCOPY
        assert domain_of("SAR-RARP50") is Domain.ROBOTIC
        assert domain_of("CATARACTS-1k") is Domain.CATARACT

    def test_unknown_is_an_error(self):
        with pytest.raises(UnknownDataset):
            domain_of("not-a-dataset")

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
        index = CorpusIndex([video, clip])
        report = validate_record(clip, index)
        assert [v.code for v in report.violations] == ["interval out of range"]

    def test_duplicate_video_id(self):
        records = [_video(), _video()]
        report = validate_corpus(records)
        assert [v.code for v in report.violations] == ["duplicate id"]

    def test_dangling_clip(self):
        clip = ClipRecord("c1", "ghost", 0, 10)
        report = validate_record(clip, CorpusIndex([clip]))
        assert [v.code for v in report.violations] == ["dangling foreign key"]

    def test_wellformed_record_is_clean(self):
        video = _video()
        clip = ClipRecord("c1", "v1", 0, 100)
        index = CorpusIndex([video, clip])
        assert validate_record(clip, index).is_valid
        assert validate_record(video, index).is_valid

    def test_metadata_mismatch_warns_not_fails(self):
        video = VideoRecord("v1", SourceStream.PRIVATE, "cholec80", Domain.LAPAROSCOPY,
                            frame_count=10_000, fps=Fraction(30), duration_s=10.0)
        report = validate_record(video, CorpusIndex([video]))
        assert report.is_valid
        assert [w.code for w in report.warnings] == ["metadata mismatch"]

    def test_overlapping_clips_are_allowed(self):
        video = _video(frame_count=200)
        clips = [ClipRecord("c1", "v1", 0, 100), ClipRecord("c2", "v1", 50, 150)]
        assert validate_corpus([video, *clips]).is_valid


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


class TestResize:
    def test_identity_when_short_side_matches(self):
        assert resize_shortest_side(320, 320) == (320, 320)

    def test_derived_examples(self):
        assert resize_shortest_side(640, 480) == (427, 320)
        assert resize_shortest_side(1920, 1080) == (569, 320)

    def test_portrait(self):
        assert resize_shortest_side(480, 640) == (320, 427)

    def test_zero_dimension(self):
        with pytest.raises(ZeroDimension):
            resize_shortest_side(0, 480)

    @given(st.integers(1, 4000), st.integers(1, 4000))
    def test_short_side_is_target_and_idempotent(self, w, h):
        w1, h1 = resize_shortest_side(w, h)
        assert min(w1, h1) == 320
        assert resize_shortest_side(w1, h1) == (w1, h1)

    @given(st.integers(321, 4000), st.integers(321, 4000))
    def test_rounding_matches_exact_rational(self, w, h):
        w1, h1 = resize_shortest_side(w, h)
        short, long = min(w, h), max(w, h)
        exact = Fraction(long * 320, short)
        long_out = max(w1, h1)
        assert abs(Fraction(long_out) - exact) <= Fraction(1, 2)


class TestRandomCrop:
    def test_exact_fit_is_forced(self, rng):
        rect = random_crop_rect(224, 224, rng=rng)
        assert (rect.x, rect.y, rect.size) == (0, 0, 224)

    def test_y_forced_when_height_matches(self, rng):
        for _ in range(50):
            rect = random_crop_rect(324, 224, rng=rng)
            assert rect.y == 0
            assert 0 <= rect.x <= 100

    def test_too_small(self, rng):
        with pytest.raises(FrameTooSmall):
            random_crop_rect(200, 320, rng=rng)

    def test_monte_carlo_moments_and_uniformity(self):
        # 427x320 after resize: x in [0, 203], y in [0, 96]
        rng = np.random.default_rng(99)
        n = 100_000
        xs = np.empty(n, dtype=np.int64)
        ys = np.empty(n, dtype=np.int64)
        for i in range(n):
            rect = random_crop_rect(427, 320, rng=rng)
            xs[i], ys[i] = rect.x, rect.y
        assert abs(xs.mean() - 101.5) < 2.0
        assert abs(ys.mean() - 48.0) < 1.0
        assert xs.min() >= 0 and xs.max() <= 203
        assert ys.min() >= 0 and ys.max() <= 96
        # chi-square against uniform; critical values frozen from the
        # inverse chi-square CDF at alpha=0.01 for df=203 and df=96
        x_counts = np.bincount(xs, minlength=204)
        y_counts = np.bincount(ys, minlength=97)
        chi_x = float(((x_counts - n / 204) ** 2 / (n / 204)).sum())
        chi_y = float(((y_counts - n / 97) ** 2 / (n / 97)).sum())
        assert chi_x < 252.79
        assert chi_y < 131.14


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
