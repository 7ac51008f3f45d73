import hashlib
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from surgcurate import clustering
from surgcurate.clustering import (
    BadTreeFile,
    ClusterTree,
    KTooLarge,
    TREE_MAGIC,
    build_hierarchy,
    kmeans,
    kmeanspp_init,
)
from surgcurate.store import EmbeddingMatrix, read_store, write_store
from surgcurate.synthetic import make_blobs

from .oracles import (
    brute_force_best_lloyd,
    cluster_sums_row_order,
    kmeanspp_init_reference,
    nearest_assignments,
)


class TestKmeansPlusPlus:
    def test_k_equals_n_uses_every_point(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((6, 3)).astype(np.float32)
        cents = kmeanspp_init(pts, 6, seed=1)
        assert sorted(map(tuple, cents.tolist())) == sorted(map(tuple, pts.tolist()))

    def test_k_one_draws_uniformly(self):
        pts = np.arange(10, dtype=np.float32).reshape(-1, 1)
        picks = {float(kmeanspp_init(pts, 1, seed=s)[0, 0]) for s in range(200)}
        assert len(picks) == 10  # every point reachable across seeds

    def test_two_blobs_seed_both_sides(self):
        data, labels = make_blobs([30, 30], dim=4, seed=11)
        means = np.stack([data[labels == 0].mean(0), data[labels == 1].mean(0)])
        hits = 0
        for seed in range(100):
            cents = kmeanspp_init(data, 2, seed=seed)
            sides, _ = nearest_assignments(cents, means)
            hits += set(sides.tolist()) == {0, 1}
        assert hits >= 95

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            kmeanspp_init(np.zeros((3, 2), dtype=np.float32), 4, seed=0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 50), st.integers(1, 6), st.data())
    def test_exact_distances_make_ingest_order_irrelevant(self, seed, n, dim, data):
        """Small-integer rows make every D^2 exact whatever the summation
        order, so permuting ingest order picks the same points. (Otherwise a
        row's D^2 can differ in its last ulp with its storage position.)"""
        rng = np.random.default_rng(seed)
        points = rng.integers(-8, 9, (n, dim)).astype(np.float32)
        ids = [f"clip{i:03d}" for i in range(n)]
        perm = rng.permutation(n)
        k = data.draw(st.integers(1, n))
        a = kmeanspp_init(EmbeddingMatrix(points, ids), k, seed)
        b = kmeanspp_init(EmbeddingMatrix(points[perm], [ids[i] for i in perm]), k, seed)
        assert a.tobytes() == b.tobytes()

    def test_order_independent_with_row_ids(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((40, 3)).astype(np.float32)
        ids = [f"r{i:02d}" for i in range(40)]
        perm = rng.permutation(40)
        a = kmeanspp_init(EmbeddingMatrix(data, ids), 5, seed=9)
        b = kmeanspp_init(EmbeddingMatrix(data[perm], [ids[i] for i in perm]), 5, seed=9)
        assert np.array_equal(a, b)


def _seeding_points(seed: int, n: int, dim: int, distinct: int | None = None) -> np.ndarray:
    """n f32 rows at a random scale; with `distinct`, only that many
    different rows, repeated."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((distinct or n, dim)) * 10.0 ** rng.uniform(-3, 3)
    rows = rng.integers(0, len(base), n) if distinct else np.arange(n)
    return base[rows].astype(np.float32)


def _with_ids(points, row_ids):
    """The points as kmeanspp_init takes them: with row ids, an EmbeddingMatrix."""
    return points if row_ids is None else EmbeddingMatrix(points, row_ids)


def _same_seeds(points, k, seed, row_ids=None) -> None:
    """kmeanspp_init returns the reference's bytes, also when given the
    squared norms kmeans computes."""
    ours = kmeanspp_init(_with_ids(points, row_ids), k, seed)
    with_norms = kmeanspp_init(_with_ids(points, row_ids), k, seed, clustering._row_sq_norms(points.astype(np.float64)))
    ref = kmeanspp_init_reference(points, k, seed, row_ids=row_ids)
    assert ours.dtype == ref.dtype == np.float32
    assert ours.shape == ref.shape
    assert ours.tobytes() == ref.tobytes() == with_norms.tobytes()


class TestKmeansPlusPlusReference:
    """The seeding picks exactly what the per-pick reference
    (tests/oracles.py) picks: the same rows from the same generator draws."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.integers(1, 12), st.data())
    def test_random_shapes_and_seeds(self, seed, n, dim, data):
        k = data.draw(st.integers(1, n))
        _same_seeds(_seeding_points(seed, n, dim), k, seed)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(2, 40), st.data())
    def test_duplicate_rows_take_the_zero_total_branch(self, seed, distinct, n, data):
        # more centroids than distinct rows: once each distinct row is picked, d2 is all zero
        k = data.draw(st.integers(min(distinct + 1, n), n))
        _same_seeds(_seeding_points(seed, n, 3, distinct=distinct), k, seed)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 50), st.data())
    def test_permuted_ingest_order_with_row_ids(self, seed, n, data):
        points = _seeding_points(seed, n, 4)
        ids = [f"clip{i:03d}" for i in range(n)]
        perm = np.random.default_rng(seed).permutation(n)
        k = data.draw(st.integers(1, n))
        _same_seeds(points[perm], k, seed, row_ids=[ids[i] for i in perm])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points_raise(self, bad):
        # the reference raised (from rng.choice) on an infinite total only;
        # a NaN total failed its `total > 0` test and drew uniformly, and
        # k = 1 makes no draw at all
        points = _seeding_points(1, 12, 3)
        points[7, 1] = bad
        for k in (1, 2):
            with pytest.raises(ValueError, match="finite"):
                kmeanspp_init(points, k, seed=0)
        with pytest.raises(ValueError, match="finite"):
            kmeans(points, 1, seed=0)

    @staticmethod
    def _peak_bytes(fn) -> int:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("n", [100, 256, 300, 512, 700, 1500])
    @pytest.mark.parametrize("with_ids", [False, True])
    def test_peak_memory_is_one_f64_copy_plus_vectors(self, n, with_ids):
        """Seeding f32 points holds their one f64 copy, in storage order,
        plus O(n) f64 vectors: no canonical-order copy of the rows."""
        dim = 48
        points = _seeding_points(n, n, dim)
        ids = [f"r{i:05d}" for i in np.random.default_rng(n).permutation(n)] if with_ids else None
        given = _with_ids(points, ids)  # wraps `points` without a copy
        peak = self._peak_bytes(lambda: kmeanspp_init(given, 6, seed=2))
        assert peak <= n * dim * 8 + 10 * n * 8 + 8192, (peak - n * dim * 8) / (8 * n)


class TestLloydStep:
    @staticmethod
    def step(points, centroids):
        points = np.asarray(points, dtype=np.float32).astype(np.float64)
        return clustering._lloyd_step(points, clustering._row_sq_norms(points), np.asarray(centroids, dtype=np.float64), None)

    def test_fixed_point(self):
        pts = np.array([[0.0, 0.0], [4.0, 4.0]], dtype=np.float32)
        assign, means, inertia, empty = self.step(pts, pts)
        assert inertia == 0.0
        assert np.array_equal(means, pts)
        assert assign.tolist() == [0, 1]
        assert empty == 0

    def test_hand_example(self):
        pts = np.array([[0.0], [2.0], [10.0], [12.0]], dtype=np.float32)
        assign, means, inertia, empty = self.step(pts, [[1.0], [11.0]])
        assert assign.tolist() == [0, 0, 1, 1]
        assert means.ravel().tolist() == [1.0, 11.0]
        assert inertia == 4.0
        assert empty == 0
        # independently: every point is 1 away from its centroid
        _, dists = nearest_assignments(pts, [[1.0], [11.0]])
        assert dists.sum() == 4.0

    def test_empty_cluster_is_repaired(self):
        pts = np.array([[0.0], [0.5], [1.0], [10.0]], dtype=np.float32)
        far = np.array([[0.5], [100.0]], dtype=np.float32)  # nobody picks 100
        assign, _, _, empty = self.step(pts, far)
        assert empty == 1
        counts = np.bincount(assign, minlength=2)
        assert (counts > 0).all()

    def test_tie_goes_to_lowest_index(self):
        pts = np.array([[0.0]], dtype=np.float32)
        assign, _, _, _ = self.step(pts, [[1.0], [-1.0]])
        assert assign.tolist() == [0]


def _chunk_sums(rows32: np.ndarray, k: int, seed: int):
    """_assign_chunk over f32 rows widened to f64, with k of the rows as
    centroids; also returns the f64 rows for the oracle."""
    xb = rows32.astype(np.float64)
    c = xb[np.random.default_rng(seed).choice(len(xb), k, replace=False)]
    assign, _, uniq, sums, counts, _ = clustering._assign_chunk(
        xb, np.einsum("ij,ij->i", xb, xb), c, np.einsum("ij,ij->i", c, c)
    )
    return xb, assign, uniq, sums, counts


class TestChunkSums:
    """A chunk's per-cluster f64 sums add each cluster's rows in row order.
    At d = 1 numpy's own 1-D reduction decides the order, so d >= 2 only."""

    @pytest.mark.parametrize("dim", [2, 768])
    @pytest.mark.parametrize("k", [1, 8, 256])
    def test_sums_add_rows_in_row_order(self, dim, k):
        # magnitudes spread over ~48 binades per element, so the sum order shows in the bits
        rng = np.random.default_rng(1000 * dim + k)
        shape = (clustering.CHUNK_ROWS, dim)
        rows = (rng.standard_normal(shape) * np.exp(rng.uniform(-30, 3, shape))).astype(np.float32)
        xb, assign, uniq, sums, counts = _chunk_sums(rows, k, seed=k)
        want = cluster_sums_row_order(xb, assign)
        assert uniq.tolist() == sorted(want)
        assert counts.tolist() == np.bincount(assign)[uniq].tolist()
        for cluster, got in zip(uniq.tolist(), sums):
            assert np.array_equal(got, want[cluster]), cluster

    @pytest.mark.parametrize("dim", [2, 768])
    @pytest.mark.parametrize("k", [1, 8, 256])
    def test_exact_sums_equal_the_sorted_reduceat(self, dim, k):
        """With magnitudes in [2^-8, 2^4), every f64 sum of f32 members is
        exact, so any order gives the same bits: the row-order sums equal
        np.add.reduceat over the cluster-sorted copy, the form used before."""
        rng = np.random.default_rng(1000 * dim + k)
        shape = (clustering.CHUNK_ROWS, dim)
        rows = (rng.choice([-1.0, 1.0], shape) * np.exp2(rng.uniform(-8, 4, shape))).astype(np.float32)
        xb, assign, uniq, sums, _ = _chunk_sums(rows, k, seed=k)
        order = np.argsort(assign, kind="stable")
        _, starts = np.unique(assign[order], return_index=True)
        assert np.array_equal(sums, np.add.reduceat(xb[order], starts, axis=0))


#: what a coordinate becomes: a random f32 of wide exponent spread (0), or
#: one of these, -0.0 and subnormals
_SPECIAL_VALUES = np.array([0.0, -0.0, 1e-45, -1e-45, -1.1754942e-38, 5.9e-39], dtype=np.float32)


class TestGatheredClusterSums:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 60), st.integers(1, 5), st.integers(1, 4), st.integers(0, 2**32 - 1), st.data())
    def test_block_gathered_sums_equal_one_reduce(self, n, dim, k, seed, data):
        """Gathering ROW_BLOCK = 4 rows at a time, each cluster's sum has the
        bits of one np.add.reduce over all its rows: -0.0 and subnormal
        coordinates included, and clusters of many gather blocks."""
        rng = np.random.default_rng(seed)
        rows = (rng.standard_normal((n, dim)) * np.exp(rng.uniform(-30, 3, (n, dim)))).astype(np.float32)
        kinds = data.draw(hnp.arrays(np.intp, (n, dim), elements=st.integers(0, len(_SPECIAL_VALUES) - 1)))
        rows = np.where(kinds > 0, _SPECIAL_VALUES[kinds], rows).astype(np.float64)
        assign = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1)))
        order = np.argsort(assign, kind="stable")
        uniq, starts = np.unique(assign[order], return_index=True)
        counts = np.diff(np.append(starts, n))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clustering, "ROW_BLOCK", 4)
            sums = clustering._cluster_sums(rows, order, starts, counts)
        for j, (s, c) in enumerate(zip(starts.tolist(), counts.tolist())):
            assert sums[j].tobytes() == np.add.reduce(rows[order[s : s + c]], axis=0).tobytes(), uniq[j]


@pytest.fixture
def openblas():
    """The getter of numpy's OpenBLAS thread count, with the count set to 2
    for the test and restored after it; skips when numpy has no OpenBLAS."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in blas["name"].lower():
        pytest.skip(f"numpy BLAS is {blas['name']}")
    api = clustering._openblas_threads()
    assert api is not None, f"numpy names {blas['name']}, but its thread-count functions were not found"
    get, set_ = api
    before = get()
    set_(2)
    yield get
    set_(before)


class TestBlasThreads:
    """A worker pool runs BLAS on one thread; the bits do not depend on it."""

    def test_pool_runs_on_one_blas_thread_and_restores_the_count(self, openblas):
        get = openblas
        before = get()
        assert clustering.ordered_map(lambda _: get(), range(4), 2) == [1, 1, 1, 1]
        assert get() == before
        assert clustering.ordered_map(lambda _: get(), range(4), 1) == [before] * 4  # the serial path is untouched

        def fail(item):
            if item == 2:
                raise RuntimeError("worker failed")
            return get()

        with pytest.raises(RuntimeError, match="worker failed"):
            clustering.ordered_map(fail, range(4), 2)
        assert get() == before

    def test_pooled_pass_matches_the_serial_pass_bit_for_bit(self, openblas, monkeypatch):
        """Serial at two BLAS threads, pooled at one: same assignments, sums,
        counts and inertia, over three 1,024-row chunks."""
        monkeypatch.setattr(clustering, "CHUNK_ROWS", 1024)
        rng = np.random.default_rng(64)
        points = rng.standard_normal((3000, 768)).astype(np.float32).astype(np.float64)
        centroids64 = points[rng.choice(len(points), 64, replace=False)]
        x2 = clustering._row_sq_norms(points)
        serial_threads = openblas()
        serial = clustering._assignment_pass(points, x2, centroids64, 1)
        pooled = clustering._assignment_pass(points, x2, centroids64, 2)
        assert openblas() == serial_threads
        for name, a, b in zip(("assign", "mind", "sums", "counts"), serial, pooled):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert serial[4] == pooled[4]


class TestKmeans:
    def test_n_equals_k_zero_inertia(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((5, 4)).astype(np.float32)
        model = kmeans(pts, 5, seed=0)
        assert model.inertia == 0.0
        assert sorted(model.assignments.tolist()) == list(range(5))

    def test_recovers_three_blobs(self):
        data, labels = make_blobs([20, 20, 20], dim=5, seed=21)
        model = kmeans(data, 3, seed=4)
        # verify against the exhaustive nearest-centroid oracle
        oracle_assign, _ = nearest_assignments(data, model.centroids)
        assert np.array_equal(model.assignments, oracle_assign)
        # same partition as the generating blobs, up to relabeling
        mapping = {}
        for blob in range(3):
            clusters = set(model.assignments[labels == blob].tolist())
            assert len(clusters) == 1
            mapping[blob] = clusters.pop()
        assert len(set(mapping.values())) == 3

    def test_inertia_history_non_increasing(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            pts = rng.standard_normal((50, 4)).astype(np.float32)
            model = kmeans(pts, 6, seed=trial)
            hist = model.inertia_history
            assert all(a >= b for a, b in zip(hist, hist[1:]))

    def test_assignment_optimal_at_convergence(self):
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((400, 6)).astype(np.float32)
        model = kmeans(pts, 8, seed=13)
        oracle_assign, _ = nearest_assignments(pts, model.centroids)
        assert np.array_equal(model.assignments, oracle_assign)
        counts = model.counts()
        assert (counts > 0).all()

    def test_close_to_brute_force_oracle(self):
        # best of 50 seeded runs must land within 5% of the exhaustive
        # multi-start oracle (single Lloyd runs may stall in local optima)
        rng = np.random.default_rng(17)
        for trial in range(10):
            n = int(rng.integers(4, 13))
            k = int(rng.integers(1, 4))
            dim = int(rng.integers(1, 3))
            pts = rng.standard_normal((n, dim)).astype(np.float32)
            ours = min(kmeans(pts, k, seed=s).inertia for s in range(50))
            best = brute_force_best_lloyd(pts, k)
            assert ours <= best * 1.05 + 1e-9

    def test_bit_identical_across_workers_and_reruns(self, monkeypatch):
        monkeypatch.setattr(clustering, "CHUNK_ROWS", 32)  # 150 points -> 5 chunks on the pool
        data, _ = make_blobs([50, 50, 50], dim=6, seed=30)
        runs = [kmeans(data, 5, seed=7, workers=w) for w in (1, 8, 1)]
        for other in runs[1:]:
            assert runs[0].centroids.tobytes() == other.centroids.tobytes()
            assert np.array_equal(runs[0].assignments, other.assignments)
            assert runs[0].inertia == other.inertia
        trees = [build_hierarchy(data, [12, 4], seed=7, workers=w).fingerprint() for w in (1, 8)]
        assert trees[0] == trees[1]

    def test_f64_matrix_clusters_as_its_f32_cast(self, tmp_path):
        """f64 rows whose values are not f32 values give one tree as an
        EmbeddingMatrix, as its f32 cast, as a bare array and through a
        store round trip (read_store's f64 rows)."""
        data = np.random.default_rng(21).standard_normal((300, 8))
        ids = [f"c{i:03d}" for i in range(len(data))]
        stored = read_store(write_store(EmbeddingMatrix(data, ids), tmp_path / "s.semb"))
        assert stored.data.dtype == np.float64
        given = [EmbeddingMatrix(data, ids), EmbeddingMatrix(data.astype(np.float32), ids), data, stored]
        trees = [build_hierarchy(p, [12, 3], seed=4).fingerprint() for p in given]
        assert len(set(trees)) == 1, trees

    def test_permutation_equivariance(self):
        data, _ = make_blobs([30, 30, 30], dim=4, seed=12)
        ids = [f"clip{i:03d}" for i in range(len(data))]
        m = EmbeddingMatrix(data, ids)
        base = kmeans(m, 3, seed=5)
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(data))
        permuted = EmbeddingMatrix(data[perm], [ids[i] for i in perm])
        moved = kmeans(permuted, 3, seed=5)
        # assignments permute correspondingly
        assert np.array_equal(moved.assignments, base.assignments[perm])
        # sorted centroid sets agree within 1e-6
        order_a = np.lexsort(base.centroids.T)
        order_b = np.lexsort(moved.centroids.T)
        assert np.allclose(base.centroids[order_a], moved.centroids[order_b], atol=1e-6)

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            kmeans(np.zeros((3, 2), dtype=np.float32), 5, seed=0)


class TestHierarchy:
    def test_single_trivial_level(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((8, 3)).astype(np.float32)
        tree = build_hierarchy(pts, [8], seed=0)
        assert len(tree.levels) == 1
        assert sorted(tree.levels[0].assignments.tolist()) == list(range(8))
        assert tree.levels[0].inertia == 0.0

    def test_super_pairs(self):
        # 4 blobs arranged as 2 far-apart super-pairs: the second level
        # must group the first level's centroids by super-pair
        rng = np.random.default_rng(9)
        offsets = np.array([[0.0, 0.0], [6.0, 0.0], [200.0, 0.0], [206.0, 0.0]])
        pts = np.vstack([o + rng.standard_normal((25, 2)) * 0.4 for o in offsets]).astype(np.float32)
        tree = build_hierarchy(pts, [4, 2], seed=3)
        top = tree.compose_assignments()
        left = set(top[:50].tolist())
        right = set(top[50:].tolist())
        assert len(left) == 1 and len(right) == 1 and left != right

    def test_level_sizes_must_decrease(self):
        with pytest.raises(ValueError):
            build_hierarchy(np.zeros((10, 2), dtype=np.float32), [4, 4], seed=0)

    def test_structure_shape(self, four_blobs):
        matrix, _ = four_blobs
        tree = build_hierarchy(matrix, [8, 4, 2], seed=1)
        assert tree.level_sizes == [8, 4, 2]
        assert [m.k for m in tree.levels] == [8, 4, 2]
        assert len(tree.levels[1].assignments) == 8
        assert len(tree.levels[2].assignments) == 4
        top = tree.compose_assignments()
        assert top.shape == (matrix.n_rows,)
        assert set(top.tolist()) <= {0, 1}
        assert tree.reachable_counts(2).sum() == matrix.n_rows

    def test_serialization_roundtrip(self, tmp_path, four_blobs):
        matrix, _ = four_blobs
        tree = build_hierarchy(matrix, [6, 2], seed=4, normalized=True)
        path = tree.save(tmp_path / "tree.sctree")
        back = ClusterTree.load(path)
        assert back.level_sizes == tree.level_sizes
        assert back.seed == tree.seed
        assert back.tol == tree.tol
        assert back.normalized is True
        for a, b in zip(tree.levels, back.levels):
            assert a.centroids.tobytes() == b.centroids.tobytes()
            assert np.array_equal(a.assignments, b.assignments)
        assert back.fingerprint() == tree.fingerprint()

    def test_corrupted_tree_rejected(self, tmp_path, four_blobs):
        matrix, _ = four_blobs
        tree = build_hierarchy(matrix, [4], seed=4)
        path = tree.save(tmp_path / "tree.sctree")
        blob = bytearray(path.read_bytes())
        blob[40] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(BadTreeFile):
            ClusterTree.load(path)

    def test_header_past_body_rejected(self):
        # re-signed, so the checksum passes: 3 levels claimed, body ends after one size
        body = TREE_MAGIC + struct.pack("<QQ", 3, 16)
        with pytest.raises(BadTreeFile, match="header"):
            ClusterTree.from_bytes(body + hashlib.sha256(body).digest())

    @pytest.mark.parametrize(
        "breaks",
        [
            lambda t: np.put(t.levels[0].assignments, 3, 40),  # past level size 8
            lambda t: setattr(t.levels[1], "centroids", t.levels[1].centroids[:-1]),  # 3 rows for size 4
            lambda t: setattr(t.levels[1], "assignments", t.levels[1].assignments[:-1]),  # 7 for 8 clusters
            lambda t: setattr(t.levels[1], "centroids", t.levels[1].centroids[:, :-1]),  # narrower than level 0
            lambda t: (t.levels.clear(), t.level_sizes.clear()),
        ],
        ids=["assignment-past-size", "centroid-rows", "assignment-count", "dimension", "no-levels"],
    )
    def test_bad_structure_rejected(self, four_blobs, breaks):
        matrix, _ = four_blobs
        tree = build_hierarchy(matrix, [8, 4], seed=1)
        breaks(tree)
        with pytest.raises(BadTreeFile, match="level"):
            ClusterTree.from_bytes(tree.to_bytes())  # to_bytes re-signs the broken tree

    def test_children_group_points_and_clusters(self, four_blobs):
        matrix, _ = four_blobs
        tree = build_hierarchy(matrix, [8, 4, 2], seed=1)
        for level in range(3):
            groups = tree.children(level)
            assign = tree.levels[level].assignments
            assert len(groups) == tree.level_sizes[level]
            for cluster, members in enumerate(groups):
                assert members.tolist() == np.flatnonzero(assign == cluster).tolist()
        with pytest.raises(ValueError):
            tree.children(3)

    def test_fingerprint_tracks_content(self, four_blobs):
        matrix, _ = four_blobs
        t1 = build_hierarchy(matrix, [4], seed=4)
        t2 = build_hierarchy(matrix, [4], seed=5)
        assert t1.fingerprint() != t2.fingerprint()
        assert t1.fingerprint() == build_hierarchy(matrix, [4], seed=4).fingerprint()
