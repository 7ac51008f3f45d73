"""Peak traced memory of the store-layer passes, of curating a store, of
one Lloyd assignment pass on a 2,000x768 store, and of reading a corpus
manifest.

numpy reports its buffers to tracemalloc, so a peak counts every array a
call allocates. read_store's bound is the one f64 copy of the payload it
returns, the only payload copy `cluster` holds; normalising rescales its
input in place and adds a few row blocks; curating from the store's path
holds no payload copy at all; the Lloyd bound is the pass's one n x k
distance block plus one gather block, however the rows split between
clusters; the manifest bound is the records read plus one MiB, so the read
never holds the file's text.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from surgcurate.clustering import ClusterModel, ClusterTree, _assignment_pass, _row_sq_norms
from surgcurate.corpus import (
    ClipRecord,
    Domain,
    SourceStream,
    VideoRecord,
    read_corpus_manifest,
    write_corpus_manifest,
)
from surgcurate.curation import curate
from surgcurate.store import ROW_BLOCK, EmbeddingMatrix, l2_normalize, read_store, write_store
from surgcurate.synthetic import make_blobs

N, DIM = 2000, 768
PAYLOAD = N * DIM * 4
MiB = 1 << 20


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    rng = np.random.default_rng(0)
    matrix = EmbeddingMatrix(rng.standard_normal((N, DIM)).astype(np.float32), [f"clip{i:05d}" for i in range(N)])
    return write_store(matrix, tmp_path_factory.mktemp("memory") / "s.semb"), matrix


def _peak(fn, *args):
    """fn(*args) and its peak traced bytes above the baseline just before the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_read_store_holds_one_payload_copy(stored):
    path, matrix = stored
    id_table = sum(4 + len(rid.encode()) for rid in matrix.row_ids)
    back, peak = _peak(read_store, path)
    assert back.data.tobytes() == matrix.data.astype(np.float64).tobytes()
    assert peak <= 2 * PAYLOAD + id_table + MiB, peak / PAYLOAD


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_l2_normalize_holds_one_payload_copy(stored, dtype):
    """Normalising rescales the rows in place, f32 rows or read_store's f64
    rows: the one payload copy is the input's own, and the call adds only
    row blocks."""
    path, matrix = stored
    copy = EmbeddingMatrix(matrix.data.copy(), matrix.row_ids) if dtype == np.float32 else read_store(path)
    assert copy.data.dtype == dtype
    out, peak = _peak(l2_normalize, copy)
    assert peak <= 4 * MiB, peak / MiB
    assert out is copy


def test_curate_from_a_store_path_holds_row_blocks_only(stored):
    """curate reads the store ROW_BLOCK rows at a time, normalising each
    block: its peak is a few row blocks plus O(n) scalars, well under one
    payload."""
    path, matrix = stored
    assign = (np.arange(N) % 8).astype(np.uint32)
    centroids = np.stack([matrix.data[assign == j].mean(axis=0) for j in range(8)])
    model = ClusterModel(k=8, centroids=centroids, assignments=assign, inertia=0.0, iterations_run=0, seed=0)
    tree = ClusterTree(levels=[model], level_sizes=[8], seed=0, tol=0.0, normalized=True)
    curated, peak = _peak(curate, tree, path, Fraction(1, 2))
    assert len(curated) == N // 2
    block64 = ROW_BLOCK * DIM * 8
    assert peak <= 2 * block64 + 256 * N, (peak / block64, peak / PAYLOAD)
    assert peak <= PAYLOAD // 2


@pytest.mark.parametrize(
    "sizes",
    [[N // 8] * 8, [N], [7 * N // 8, N // 8]],
    ids=["k8-balanced", "k1", "k2-seven-eighths-in-one"],
)
def test_assignment_pass_holds_one_f64_chunk(sizes):
    """One worker: the 2,000 f64 rows are one chunk, a slice of the rows, so
    the pass copies none of them. It holds the chunk's one n x k distance
    block and one gather block of ROW_BLOCK rows for the cluster sums, so
    one cluster holding most of the chunk costs no chunk-sized gather."""
    points, labels = make_blobs(sizes, dim=DIM, seed=3)
    points = points.astype(np.float64)
    centroids64 = np.stack([points[labels == j].mean(axis=0) for j in range(len(sizes))])
    x2 = _row_sq_norms(points)
    (assign, *_), peak = _peak(_assignment_pass, points, x2, centroids64, 1)
    assert np.array_equal(assign, labels)
    block, gather = N * len(sizes) * 8, (ROW_BLOCK + 1) * DIM * 8
    assert peak <= block + gather + MiB // 4, (peak - block) / gather


def test_corpus_read_holds_the_records_not_the_text(tmp_path):
    """The manifest (20,000 records, 2.6 MiB of text) is read one line at a
    time: the peak is what the returned records hold, plus one MiB."""
    videos = [
        VideoRecord(f"video{v:05d}", SourceStream.PRIVATE, "cholec80", Domain.LAPAROSCOPY, 3000, Fraction(25), 120.0)
        for v in range(4_000)
    ]
    clips = [ClipRecord(f"{v.video_id}c{c}", v.video_id, 10 * c, 10 * c + 9, None) for v in videos for c in range(4)]
    path = tmp_path / "corpus.jsonl"
    write_corpus_manifest(videos + clips, path)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        records = read_corpus_manifest(path)
        held, peak = (b - base for b in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert records == videos + clips
    assert path.stat().st_size > 2 * MiB
    assert peak <= held + MiB, (peak / MiB, held / MiB)
