"""Peak traced memory of the store-layer passes, of curating a store, of
one Lloyd assignment pass on a 2,000x768 store, and of reading a corpus
manifest.

numpy reports its buffers to tracemalloc, so a peak counts every array a
call allocates. Each store bound is one f32 payload copy (where the call
returns one; normalising rescales its input in place) plus a few row
blocks; curating from the store's path holds no payload copy at all; the Lloyd bound is the pass's one f64 chunk plus a quarter of it,
however the rows split between clusters; the manifest bound is the records
read plus one MiB, so the read never holds the file's text.
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
    assert back.data.tobytes() == matrix.data.tobytes()
    assert peak <= PAYLOAD + id_table + MiB, peak / PAYLOAD


def test_l2_normalize_holds_one_payload_copy(stored):
    """Normalising rescales the rows in place: the one payload copy is the
    input's own, and the call adds only row blocks."""
    _, matrix = stored
    copy = EmbeddingMatrix(matrix.data.copy(), matrix.row_ids)
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
    """One worker: the 2,000 rows are one chunk. A cluster's sum gathers its
    rows in f32 after the chunk's f64 copy is released, so one cluster
    holding most of the chunk costs no second f64 chunk."""
    points, labels = make_blobs(sizes, dim=DIM, seed=3)
    centroids64 = np.stack([points[labels == j].mean(axis=0, dtype=np.float64) for j in range(len(sizes))])
    x2 = _row_sq_norms(points)
    (assign, *_), peak = _peak(_assignment_pass, points, x2, centroids64, 1)
    assert np.array_equal(assign, labels)
    chunk64 = N * DIM * 8
    assert peak <= 1.25 * chunk64 + MiB, peak / chunk64


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
