import json
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surgcurate import store
from surgcurate.clustering import ClusterModel, ClusterTree, build_hierarchy
from surgcurate.curation import (
    CurationError,
    FractionOutOfRange,
    allocate_budget,
    curate,
    read_pool_ids,
)
from surgcurate.store import EmbeddingMatrix, l2_normalize, write_store

from .oracles import curate_reference, l2_normalize_reference, simulate_equal_split_allocation


def manual_tree(level_assignments, dim=2, centroids=None, normalized=False):
    """Tree with given assignments and placeholder (zero) or given level-0
    centroids, for testing allocation and selection in isolation from
    K-means."""
    levels = []
    for level, assign in enumerate(level_assignments):
        assign = np.asarray(assign)
        k = int(assign.max()) + 1
        levels.append(
            ClusterModel(
                k=k,
                centroids=np.asarray(centroids, dtype=np.float32) if level == 0 and centroids is not None
                else np.zeros((k, dim), dtype=np.float32),
                assignments=assign.astype(np.uint32),
                inertia=0.0,
                iterations_run=0,
                seed=0,
            )
        )
    return ClusterTree(
        levels=levels,
        level_sizes=[m.k for m in levels],
        seed=0,
        tol=1e-4,
        normalized=normalized,
    )


class TestAllocateBudget:
    def test_full_fraction_saturates_every_leaf(self):
        assign = np.repeat([0, 1, 2], [5, 3, 2])
        tree = manual_tree([assign])
        plan = allocate_budget(tree, 1)
        assert plan.quotas[0].tolist() == [5, 3, 2]
        assert plan.total_budget == 10

    def test_waterfilling_between_two_leaves(self):
        assign = np.repeat([0, 1], [100, 10])
        tree = manual_tree([assign])
        plan = allocate_budget(tree, Fraction(40, 110))
        assert plan.total_budget == 40
        assert plan.quotas[0].tolist() == [30, 10]

    def test_paper_scale_budget(self):
        assign = np.zeros(554_000, dtype=np.uint32)
        tree = manual_tree([assign])
        plan = allocate_budget(tree, Fraction(1, 10))
        assert plan.total_budget == 55_400

    def test_two_level_recursion(self):
        # leaves sized 6/6/1/1; parents group (0,1) and (2,3)
        leaf_assign = np.repeat([0, 1, 2, 3], [6, 6, 1, 1])
        parent_assign = np.array([0, 0, 1, 1])
        tree = manual_tree([leaf_assign, parent_assign])
        plan = allocate_budget(tree, Fraction(8, 14))
        # top: equal split of 8 -> (4, 4); right parent capped at 2, surplus
        # water-fills back to the left parent
        assert plan.quotas[1].tolist() == [6, 2]
        assert plan.quotas[0].tolist() == [3, 3, 1, 1]

    def test_quota_conservation_levels(self, four_blobs):
        matrix, _ = four_blobs
        tree = build_hierarchy(matrix, [8, 4, 2], seed=1)
        plan = allocate_budget(tree, Fraction(30, 100))
        for level in range(3):
            assert plan.level_total(level) == plan.total_budget
        for level in range(3):
            reachable = tree.reachable_counts(level)
            assert (plan.quotas[level] <= reachable).all()

    def test_matches_independent_simulation(self, four_blobs):
        matrix, _ = four_blobs
        tree = build_hierarchy(matrix, [8, 4, 2], seed=1)
        plan = allocate_budget(tree, Fraction(25, 100))
        leaf_sizes = np.bincount(tree.levels[0].assignments, minlength=8).tolist()
        groups = [
            [children.tolist() for children in tree.children(level)]
            for level in (1, 2)
        ]
        expected = simulate_equal_split_allocation(leaf_sizes, groups, plan.total_budget)
        for level in range(3):
            assert plan.quotas[level].tolist() == expected[level]

    def test_fraction_bounds(self):
        tree = manual_tree([np.zeros(10, dtype=np.uint32)])
        with pytest.raises(FractionOutOfRange):
            allocate_budget(tree, 0)
        with pytest.raises(FractionOutOfRange):
            allocate_budget(tree, Fraction(11, 10))

    def test_proportional_mode_tracks_raw_distribution(self):
        assign = np.repeat([0, 1], [90, 10])
        tree = manual_tree([assign])
        plan = allocate_budget(tree, Fraction(1, 10), mode="proportional")
        assert plan.quotas[0].tolist() == [9, 1]


def picked(matrix, centroid, quota):
    """The clip ids curate takes, in rank order, from one leaf holding every
    row of `matrix` around `centroid`."""
    tree = manual_tree([np.zeros(matrix.n_rows, dtype=np.uint32)], centroids=[centroid])
    curated = curate(tree, matrix, Fraction(quota, matrix.n_rows))
    return sorted(curated.selected, key=lambda cid: curated.provenance[cid].rank)


class TestSelectLeaf:
    def test_quota_equals_members(self):
        m = EmbeddingMatrix(np.array([[0.0], [1.0], [2.0]], dtype=np.float32), ["a", "b", "c"])
        assert picked(m, [0.0], 3) == ["a", "b", "c"]

    def test_forced_ordering(self):
        m = EmbeddingMatrix(np.array([[2.0], [0.1], [0.5]], dtype=np.float32), ["r", "p", "q"])
        assert picked(m, [0.0], 2) == ["p", "q"]

    def test_matches_full_sort_oracle(self, rng):
        data = rng.standard_normal((50, 4)).astype(np.float32)
        ids = [f"m{i:02d}" for i in range(50)]
        m = EmbeddingMatrix(data, ids)
        centroid = rng.standard_normal(4).astype(np.float32)
        got = picked(m, centroid, 7)
        dists = ((data.astype(np.float64) - centroid) ** 2).sum(axis=1)
        expected = [ids[i] for i in sorted(range(50), key=lambda i: (dists[i], ids[i]))[:7]]
        assert got == expected

    def test_tie_prefers_smaller_clip_id(self):
        data = np.array([[1.0], [1.0], [0.0]], dtype=np.float32)
        m = EmbeddingMatrix(data, ["zz", "aa", "mm"])
        assert picked(m, [1.0], 1) == ["aa"]

    def test_id_with_trailing_nul_is_kept_and_ordered_as_a_string(self, tmp_path):
        """Ids stay Python strings: "a" sorts before "a\x00" on a tie, and
        both come out as stored, from a matrix and from a store file."""
        m = EmbeddingMatrix(np.ones((3, 2), dtype=np.float32), ["a\x00", "b", "a"])
        assert picked(m, [0.0, 0.0], 2) == ["a", "a\x00"]
        tree = manual_tree([np.zeros(3, dtype=np.uint32)], centroids=[[0.0, 0.0]])
        streamed = curate(tree, write_store(m, tmp_path / "s.semb"), Fraction(2, 3))
        assert streamed.selected == ["a", "a\x00"]


class TestCurate:
    def test_full_fraction_selects_everything(self, four_blobs):
        matrix, _ = four_blobs
        tree = build_hierarchy(matrix, [4], seed=3)
        curated = curate(tree, matrix, 1)
        assert curated.selected == sorted(matrix.row_ids)

    def test_exact_budget_and_provenance(self, four_blobs):
        matrix, labels = four_blobs
        tree = build_hierarchy(matrix, [4], seed=3)
        curated = curate(tree, matrix, Fraction(1, 4))
        assert len(curated) == 100
        assert curated.tree_fingerprint == tree.fingerprint()
        for cid in curated.selected:
            rec = curated.provenance[cid]
            assert rec.distance >= 0.0
            assert 0 <= rec.leaf < 4

    def test_balance_property(self, four_blobs):
        matrix, labels = four_blobs
        tree = build_hierarchy(matrix, [4], seed=3)
        curated = curate(tree, matrix, Fraction(1, 4))
        raw_share = {b: (labels == b).mean() for b in range(4)}
        ids = np.asarray(matrix.row_ids)
        selected = set(curated.selected)
        sel_mask = np.array([cid in selected for cid in ids])
        for blob in range(4):
            share = (labels[sel_mask] == blob).mean()
            if raw_share[blob] < 0.25:  # the three minority blobs
                assert share > raw_share[blob]

    def test_identical_points_tie_at_quota_boundary(self):
        data = np.array([[0.0], [0.0], [3.0]], dtype=np.float32)
        m = EmbeddingMatrix(data, ["zz", "aa", "bb"])
        tree = manual_tree([np.zeros(3, dtype=np.uint32)], dim=1)
        curated = curate(tree, m, Fraction(1, 3))
        # centroid is 1.0: the two zeros tie; the smaller clip id wins
        assert curated.selected == ["aa"]

    def test_jsonl_roundtrip_and_determinism(self, tmp_path, four_blobs):
        matrix, _ = four_blobs
        tree = build_hierarchy(matrix, [4], seed=3)
        curated = curate(tree, matrix, Fraction(1, 4))
        p1 = curated.to_jsonl(tmp_path / "a.jsonl")
        p2 = curate(tree, matrix, Fraction(1, 4)).to_jsonl(tmp_path / "b.jsonl")
        assert p1.read_bytes() == p2.read_bytes()
        assert read_pool_ids(p1) == curated.selected
        plain = tmp_path / "ids.txt"
        plain.write_text("\n".join(curated.selected) + "\n", encoding="utf-8")
        assert read_pool_ids(plain) == curated.selected

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(8, 60),
        k=st.integers(2, 6),
        numerator=st.integers(1, 10),
        seed=st.integers(0, 100),
    )
    def test_exact_budget_property(self, n, k, numerator, seed):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((n, 3)).astype(np.float32)
        ids = [f"x{i:03d}" for i in range(n)]
        m = EmbeddingMatrix(data, ids)
        k = min(k, n)
        tree = build_hierarchy(m, [k], seed=seed)
        fraction = Fraction(numerator, 10)
        curated = curate(tree, m, fraction)
        expected = (fraction * n).numerator // (fraction * n).denominator
        remainder = fraction * n - expected
        if remainder >= Fraction(1, 2):
            expected += 1
        assert len(curated) == expected
        assert curated.plan.level_total(0) == expected


def _pool_ids_reference(raw: bytes) -> list[str]:
    """read_pool_ids as two whole-file passes: the stripped non-blank lines
    of the decoded text and, when the first starts with '{', the clip ids
    of every non-blank newline-separated line parsed as JSON."""
    ids = [ln.strip() for ln in raw.decode("utf-8").split("\n") if ln.strip()]
    if not ids or not ids[0].startswith("{"):
        return ids
    docs = [json.loads(line.decode("utf-8")) for line in raw.split(b"\n") if line.strip()]
    return [doc["clip_id"] for doc in docs if doc.get("kind") != "header"]


_CURATED_POOL = st.tuples(
    st.sampled_from(["", "\n", " \n", "\r", "\x0c\n", "\u2028\n", "\x1c\n"]),
    st.lists(st.text(alphabet="ab\xe9 \x85{", max_size=3), max_size=4),
).map(lambda t: (t[0] + '{"kind": "header"}\n' + "".join(json.dumps({"clip_id": c}) + "\n" for c in t[1])).encode("utf-8"))
_POOL_BYTES = st.one_of(
    st.text(alphabet=" \t\r\n\x0b\x0c\x1c\x85\u2028\xe9ab{", max_size=30).map(lambda t: t.encode("utf-8")),
    _CURATED_POOL,
    st.binary(max_size=24),
)


class TestReadPoolIds:
    @settings(max_examples=200, deadline=None)
    @given(raw=_POOL_BYTES)
    def test_same_ids_as_the_whole_file_rule(self, raw):
        """One read, the format picked from the first non-blank line: the
        ids of the two-pass rule, or CurationError where it fails."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "pool.txt"
            path.write_bytes(raw)
            try:
                want = _pool_ids_reference(raw)
            except (ValueError, KeyError, TypeError, AttributeError):
                with pytest.raises(CurationError, match="pool.txt:"):
                    read_pool_ids(path)
            else:
                assert read_pool_ids(path) == want

    @pytest.mark.parametrize(
        "raw,line",
        [
            (b"\xc3(\n", 1),
            (b"a\n\n\xffb\nc\n", 3),
            (b'\n{"kind": "header"}\n{"clip_id": "\xe2\x82"}\n', 3),
        ],
        ids=["plain-first-line", "plain-later-line", "curated"],
    )
    def test_text_that_is_not_utf8_names_the_line(self, tmp_path, raw, line):
        path = tmp_path / "pool.txt"
        path.write_bytes(raw)
        with pytest.raises(CurationError, match=f"pool.txt:{line}: UnicodeDecodeError: "):
            read_pool_ids(path)

    def test_a_plain_pool_line_ends_at_newline_only(self, tmp_path):
        """U+0085, U+2028, U+2029, \\x1c-\\x1e, \\v and \\f stay inside their id,
        on the first line as on later ones."""
        ids = ["a\x85b", "c\u2028d", "e\u2029f", "g\x1ch\x1di\x1ej", "k\x0bl\x0cm"]
        path = tmp_path / "pool.txt"
        path.write_text("\r\n".join(ids) + "\n", encoding="utf-8")
        assert read_pool_ids(path) == ids


def _assert_curate_equals_the_per_leaf_loop(tmp_dir, rows, ids, assign, centroids, normalized, fraction, block):
    """curate over the store file and over the matrix both give exactly the
    oracle's ids, leaves, ranks and recorded distances, with ROW_BLOCK =
    `block` so that leaves span several blocks."""
    tree = manual_tree([assign], centroids=centroids, normalized=normalized)
    path = write_store(EmbeddingMatrix(rows, ids), Path(tmp_dir) / "s.semb")
    in_memory = EmbeddingMatrix(rows.copy(), ids)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(store, "ROW_BLOCK", block)
        streamed = curate(tree, path, fraction)
        from_matrix = curate(tree, l2_normalize(in_memory) if normalized else in_memory, fraction)
    data = l2_normalize_reference(rows) if normalized else rows
    want = curate_reference(data, ids, tree.levels[0].centroids, assign, streamed.plan.quotas[0])
    want = {cid: (leaf, rank, distance.hex()) for cid, (leaf, rank, distance) in want.items()}
    for got in (streamed, from_matrix):
        assert got.selected == sorted(want)
        assert {cid: (r.leaf, r.rank, r.distance.hex()) for cid, r in got.provenance.items()} == want
    return streamed.plan


class TestCurateOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        dim=st.sampled_from([1, 2, 3, 32, 768]),
        n=st.integers(1, 40),
        k=st.integers(1, 6),
        distinct=st.integers(1, 40),
        normalized=st.booleans(),
        block=st.sampled_from([1, 3, 8, 256]),
        numerator=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_streamed_and_in_memory_equal_the_per_leaf_loop(self, dim, n, k, distinct, normalized, block, numerator, seed):
        """A few distinct rows repeated under different ids give distance
        ties; random leaf sizes give empty, quota-0 and capped leaves."""
        rng = np.random.default_rng(seed)
        pool = (rng.standard_normal((min(distinct, n), dim)) * rng.uniform(0.25, 4.0, (min(distinct, n), 1))).astype(np.float32)
        rows = pool[rng.integers(0, len(pool), n)]
        ids = [f"id{p:03d}" for p in rng.permutation(n)]
        assign = rng.integers(0, k, n).astype(np.uint32)
        centroids = rng.standard_normal((int(assign.max()) + 1, dim)).astype(np.float32)
        with tempfile.TemporaryDirectory() as tmp:
            _assert_curate_equals_the_per_leaf_loop(
                tmp, rows, ids, assign, centroids, normalized, Fraction(min(numerator, n), n), block
            )

    @pytest.mark.parametrize("normalized", [False, True])
    def test_quota_zero_and_capped_leaves(self, tmp_path, normalized):
        """Leaves of 12, 1 and 1 rows: a budget of 2 leaves the last leaf at
        quota 0, and a budget of 9 caps the two small leaves at their one
        row each; every row is one of two values."""
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((2, 768)).astype(np.float32)[np.arange(14) % 2]
        ids = [f"c{p:02d}" for p in rng.permutation(14)]
        assign = np.repeat([0, 1, 2], [12, 1, 1]).astype(np.uint32)
        centroids = rng.standard_normal((3, 768)).astype(np.float32)
        plan = _assert_curate_equals_the_per_leaf_loop(tmp_path, rows, ids, assign, centroids, normalized, Fraction(2, 14), 5)
        assert plan.quotas[0].tolist() == [1, 1, 0]
        plan = _assert_curate_equals_the_per_leaf_loop(tmp_path, rows, ids, assign, centroids, normalized, Fraction(9, 14), 5)
        assert plan.quotas[0].tolist() == [7, 1, 1]
