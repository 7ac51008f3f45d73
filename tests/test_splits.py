import hashlib
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surgcurate.corpus import ClipRecord
from surgcurate.seeding import derive_seed, permutation
from surgcurate.splits import (
    EmptyDataset,
    Split,
    SplitError,
    SplitManifest,
    SplitSizeWarning,
    SplitTier,
    generate_split_manifest,
    make_manifest,
    parse_ratios,
    ratio_split,
    read_video_list,
    resolve_tier,
    split_counts_for,
    verify_disjoint,
    version_manifest,
)


def _counts(assignment):
    return Counter(s for s in assignment.values())


class TestResolveTier:
    def test_official_wins(self):
        assert resolve_tier(official=True, community=False) is SplitTier.OFFICIAL

    def test_community_when_no_official(self):
        assert resolve_tier(official=False, community=True) is SplitTier.COMMUNITY

    def test_ours_when_neither(self):
        assert resolve_tier(official=False, community=False) is SplitTier.OURS

    def test_tier_monotonicity(self):
        # adding a community split never changes the outcome under official
        assert resolve_tier(True, False) == resolve_tier(True, True)


class TestRatioSplit:
    def test_ten_videos(self):
        assignment = ratio_split([f"v{i}" for i in range(10)], seed=0)
        counts = _counts(assignment)
        assert (counts[Split.TRAIN], counts[Split.VAL], counts[Split.TEST]) == (7, 2, 1)

    def test_fifteen_videos(self):
        assignment = ratio_split([f"v{i}" for i in range(15)], seed=0)
        counts = _counts(assignment)
        assert (counts[Split.TRAIN], counts[Split.VAL], counts[Split.TEST]) == (11, 3, 1)

    def test_single_video_warns(self):
        with pytest.warns(SplitSizeWarning):
            assignment = ratio_split(["only"], seed=0)
        assert assignment == {"only": Split.TRAIN}

    def test_empty_is_an_error(self):
        with pytest.raises(EmptyDataset):
            ratio_split([], seed=0)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(SplitError, match="^video id 'b' is listed twice$"):
            ratio_split(["c", "b", "a", "b", "c"], seed=0)

    def test_video_list_lines_end_at_newline_only(self, tmp_path):
        """Every other boundary str.splitlines() knows stays inside its id,
        and path:line counts `\\n` lines."""
        ids = ["a\x85b", "c\u2028d", "e\u2029f", "g\x1ch\x1di\x1ej", "k\x0bl\x0cm"]
        path = tmp_path / "v.txt"
        path.write_text("\n".join(ids) + "\r\n", encoding="utf-8")
        assert read_video_list(path) == ids
        path.write_text("\n".join(ids + ["", ids[1]]), encoding="utf-8")
        with pytest.raises(SplitError, match=f"^{path}:7: video id 'c\\\\u2028d' is listed twice$"):
            read_video_list(path)

    def test_seed_determinism_and_set_semantics(self):
        ids = [f"v{i}" for i in range(20)]
        a = ratio_split(ids, seed=5)
        b = ratio_split(list(reversed(ids)), seed=5)
        assert a == b
        c = ratio_split(ids, seed=6)
        assert a != c

    def test_custom_ratios(self):
        assignment = ratio_split([f"v{i}" for i in range(10)], ratios=(8, 1, 1), seed=1)
        counts = _counts(assignment)
        assert (counts[Split.TRAIN], counts[Split.VAL], counts[Split.TEST]) == (8, 1, 1)

    def test_parse_ratios(self):
        assert parse_ratios("7:2:1") == (7, 2, 1)
        with pytest.raises(ValueError):
            parse_ratios("7:2")

    def test_stratified_split_keeps_ratios_per_stratum(self):
        ids = [f"a{i}" for i in range(10)] + [f"b{i}" for i in range(20)]
        strata = {vid: vid[0] for vid in ids}
        assignment = ratio_split(ids, seed=3, strata=strata)
        for label, expected in (("a", (7, 2, 1)), ("b", (14, 4, 2))):
            counts = _counts({v: s for v, s in assignment.items() if v.startswith(label)})
            assert (counts[Split.TRAIN], counts[Split.VAL], counts[Split.TEST]) == expected

    def test_stratum_seed_is_derived_from_root_seed_and_label(self):
        ids = [f"a{i}" for i in range(10)] + [f"b{i}" for i in range(20)] + [f"c{i}" for i in range(7)]
        strata = {vid: vid[0] for vid in ids}
        seed = 0xDEADBEEFCAFEF00D
        expected = {}
        for label in "abc":
            group = [v for v in ids if strata[v] == label]
            expected.update(ratio_split(group, seed=derive_seed(seed, label)))
        assert ratio_split(ids, seed=seed, strata=strata) == expected
        manifest = generate_split_manifest("d", ids, seed=seed, strata=strata, created_at="2026-01-01T00:00:00+00:00")
        assert manifest.version == "bb7e834c9492910673b90cdbaf44d2564b816f6dc4075fdd61d364279931c766"

    def test_stratified_split_requires_full_labeling(self):
        with pytest.raises(SplitError):
            ratio_split(["v1", "v2", "v3"], seed=0, strata={"v1": "x"})

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 500), seed=st.integers(0, 2**32 - 1))
    def test_partition_and_count_properties(self, n, seed):
        ids = [f"v{i:04d}" for i in range(n)]
        assignment = ratio_split(ids, seed=seed)
        assert sorted(assignment) == ids  # every video exactly once
        counts = _counts(assignment)
        assert (counts[Split.TRAIN], counts[Split.VAL], counts[Split.TEST]) == split_counts_for(n)
        # identical seeds give identical manifests and versions
        again = ratio_split(ids, seed=seed)
        assert assignment == again
        assert version_manifest(assignment) == version_manifest(again)


#: (seed, n) -> numpy.random.default_rng(seed).permutation(n), recorded
#: with numpy 2.4; literals, so the split draw stays pinned whatever numpy
#: is installed, or none.
_KNOWN_PERMUTATIONS = {
    (0, 10): [4, 6, 2, 7, 3, 5, 9, 0, 8, 1],
    (2**32 - 1, 12): [1, 4, 0, 6, 8, 7, 10, 3, 11, 5, 2, 9],
    (2**32, 12): [0, 7, 1, 11, 3, 10, 4, 6, 9, 8, 2, 5],
    (2**64 - 1, 9): [8, 7, 3, 0, 4, 6, 1, 2, 5],
    (2**200 + 1, 8): [6, 2, 4, 3, 1, 5, 7, 0],
    (derive_seed(7, "split-cholec80"), 16): [14, 13, 1, 7, 9, 2, 10, 0, 4, 8, 6, 11, 15, 5, 3, 12],
}


class TestSplitDraw:
    @pytest.mark.parametrize("seed, n", _KNOWN_PERMUTATIONS)
    def test_known_permutations(self, seed, n):
        assert permutation(seed, n) == _KNOWN_PERMUTATIONS[seed, n]

    def test_known_paper_scale_versions(self):
        """The manifest versions numpy's draw gave for the paper's 10,535
        videos at the split-web-edu seed of root 7, and for 8:1:1 over 101."""
        ids = [f"v{i:05d}" for i in range(10535)]
        manifest = generate_split_manifest(
            "web-edu", ids, seed=derive_seed(7, "split-web-edu"), created_at="2026-01-01T00:00:00+00:00"
        )
        assert manifest.version == "67bb98931be5751d4faa5ddf9459126ed8108dfe136931c3b89703bbaac13ab6"
        assert version_manifest(ratio_split(ids[:101], ratios=(8, 1, 1), seed=0)) == (
            "f2d14aee9dc53daa9b10a01fab7f76d7454fcf74c75ea982647c099c5537e497"
        )

    @pytest.mark.parametrize("seed", [None, 1.0, "7"])
    def test_seed_that_is_not_an_integer_is_a_type_error(self, seed):
        with pytest.raises(TypeError):
            ratio_split(["a", "b", "c"], seed=seed)

    def test_negative_seed_is_a_value_error(self):
        with pytest.raises(ValueError, match="non-negative"):
            ratio_split(["a", "b", "c"], seed=-1)


class TestVersioning:
    def test_key_order_does_not_matter(self):
        a = {"v1": Split.TRAIN, "v2": Split.VAL}
        b = {"v2": Split.VAL, "v1": Split.TRAIN}
        assert version_manifest(a) == version_manifest(b)

    def test_reassignment_changes_version(self):
        a = {"v1": Split.TRAIN, "v2": Split.VAL}
        b = {"v1": Split.VAL, "v2": Split.VAL}
        assert version_manifest(a) != version_manifest(b)

    def test_empty_assignment_constant(self):
        assert version_manifest({}) == hashlib.sha256(b"{}").hexdigest()

    def test_version_is_64_hex_chars(self):
        v = version_manifest({"v": Split.TEST})
        assert len(v) == 64
        int(v, 16)


class TestManifest:
    def test_save_load_roundtrip(self, tmp_path):
        manifest = generate_split_manifest("cholec80", [f"v{i}" for i in range(10)], seed=4)
        path = manifest.save(tmp_path / "split.json")
        back = SplitManifest.load(path)
        assert back.assignment == manifest.assignment
        assert back.version == manifest.version
        assert back.tier is SplitTier.OURS
        assert back.seed == 4
        assert back.ratios == (7, 2, 1)

    def test_tampered_manifest_rejected(self, tmp_path):
        manifest = generate_split_manifest("d", [f"v{i}" for i in range(5)], seed=1)
        doc = json.loads(manifest.to_json_text())
        doc["assignment"]["v0"] = "test"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(SplitError):
            SplitManifest.load(path)

    def test_external_tier_manifest_skips_seed_fields(self):
        manifest = make_manifest("d", {"v": Split.TRAIN}, SplitTier.OFFICIAL, created_at="2026-01-01T00:00:00+00:00")
        doc = json.loads(manifest.to_json_text())
        assert "seed" not in doc and "ratios" not in doc

    def test_created_at_override_makes_bytes_reproducible(self, tmp_path):
        kwargs = dict(ratios=(7, 2, 1), seed=9, created_at="2026-01-02T00:00:00+00:00")
        a = generate_split_manifest("d", [f"v{i}" for i in range(12)], **kwargs)
        b = generate_split_manifest("d", [f"v{i}" for i in range(12)], **kwargs)
        assert a.to_json_text() == b.to_json_text()


class TestVerifyDisjoint:
    def _clips(self, *video_ids):
        return [ClipRecord(f"c{i}", vid, 0, 10) for i, vid in enumerate(video_ids)]

    def test_video_in_two_splits(self):
        pairs = [("v1", Split.TRAIN), ("v1", Split.TEST), ("v2", Split.VAL)]
        violations = verify_disjoint(pairs, self._clips("v1", "v2"))
        assert [v.code for v in violations] == ["video in multiple splits"]

    def test_valid_manifest_is_clean(self):
        manifest = generate_split_manifest("d", ["v1", "v2", "v3"], seed=0)
        assert verify_disjoint(manifest, self._clips("v1", "v2", "v3")) == []

    def test_unassigned_video(self):
        manifest = generate_split_manifest("d", ["v1", "v2", "v3"], seed=0)
        violations = verify_disjoint(manifest, self._clips("v1", "ghost"))
        assert [v.code for v in violations] == ["unassigned video"]
        assert violations[0].subject == "ghost"
