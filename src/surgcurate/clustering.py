"""Deterministic K-means and the multi-level centroid hierarchy.

Design constraints that shape this module:

* squared Euclidean distances on rows of f32 values with all accumulation
  in f64: each K-means holds its rows as one f64 array, either the one
  store.read_store returns (taken as it is) or an f32 input widened once,
  and its seeding and every Lloyd pass read that array with no further
  cast;
* nearest-centroid ties go to the lowest cluster index;
* empty clusters are repaired by stealing the point farthest from its
  centroid out of the largest cluster;
* every Lloyd pass runs through one step helper, _lloyd_step (assign,
  repair empties, take means), both in the main loop and in the final
  alignment against the stored f32 centroids; the alignment repeats until
  a pass leaves no cluster empty before repair;
* points are processed in chunks of CHUNK_ROWS = 4,096 rows, fixed in code,
  each a slice of the f64 rows; a chunk's distances are built in place in
  its one rows x k product block; within a chunk each cluster's f64 sum
  adds its member rows in row order, gathered store.ROW_BLOCK rows at a
  time, and the per-chunk sums merge in chunk order, so results are
  bit-identical for a fixed seed no matter how many worker threads run the
  chunks;
* each K-means takes its rows' f64 squared norms once, and its seeding and
  every Lloyd pass read them;
* while a worker pool runs, the OpenBLAS that numpy loaded is held to one
  thread, so each worker's matrix products stay on its own core; seeding
  and serial passes keep the default count. A BLAS product can differ in
  its last ulp with the thread count (and with the CPU kernel), where the
  work splits between threads; the tests pin the artifact bytes under
  other thread counts and kernels, not every product's bits;
* K-means++ seeding walks points in sorted row-id order when the points
  come as an EmbeddingMatrix: each pick is one matrix-vector product over
  the f64 rows in storage order, and the D^2 weights are read through the
  canonical order for the draw. A row's D^2 can differ in its last ulp
  with its storage position, as it can with the BLAS kernel and thread
  count, so ingest order can still change a pick through such an ulp.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import struct
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .artifact import SurgcurateError, note_digest, write_atomic
from .seeding import derive_seed
from .store import ROW_BLOCK, EmbeddingMatrix, id_order

DEFAULT_TOL = 1e-4
DEFAULT_MAX_ITER = 100
CHUNK_ROWS = 4096  # rows per Lloyd assignment chunk; the chunk-order sums set the tree's bits

TREE_MAGIC = b"SURGTRE1"


class ClusteringError(SurgcurateError):
    pass


class KTooLarge(ClusteringError):
    pass


class DimensionMismatch(ClusteringError):
    pass


class BadTreeFile(ClusteringError):
    pass


def _as_points(points) -> tuple[np.ndarray, list[str] | None]:
    """The points' f64 rows and row ids (None for a bare array). An
    EmbeddingMatrix's f64 rows are taken as they are; f32 rows are widened
    once, and any other array is made f32 first."""
    if isinstance(points, EmbeddingMatrix):
        return points.data.astype(np.float64, copy=False), points.row_ids
    arr = np.ascontiguousarray(points, dtype=np.float32)
    if arr.ndim != 2:
        raise DimensionMismatch(f"points must be 2-D, got shape {arr.shape}")
    return arr.astype(np.float64), None


@dataclass
class ClusterModel:
    """One K-means solution; immutable once returned."""

    k: int
    centroids: np.ndarray  # (k, dim) f32
    assignments: np.ndarray  # (n,) u32, point -> cluster index
    inertia: float  # sum of squared distances to assigned centroids
    iterations_run: int
    seed: int
    inertia_history: list[float] = field(default_factory=list)

    def counts(self) -> np.ndarray:
        return np.bincount(self.assignments, minlength=self.k)


def _pairwise_sq_dists(xb64: np.ndarray, x2: np.ndarray, centroids64: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Expansion-form squared distances (x2 + c2) - 2 x.c, clamped at zero
    (f64 throughout); x2 and c2 are the squared row norms of xb64 and
    centroids64. They are built in place in the one len(xb64) x k product
    block; x2 + c2 is taken in row blocks of at most ROW_BLOCK^2 values."""
    d = xb64 @ centroids64.T
    step = max(1, ROW_BLOCK * ROW_BLOCK // len(c2))
    for s in range(0, len(d), step):
        block = d[s : s + step]
        np.subtract(x2[s : s + step, None] + c2, np.multiply(block, 2.0, out=block), out=block)
    return np.maximum(d, 0.0, out=d)


def _cluster_sums(rows: np.ndarray, order: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The f64 sum of each cluster's rows, cluster j's rows being
    rows[order[starts[j] : starts[j] + counts[j]]], with the bits of one
    np.add.reduce over all of them.

    The rows are gathered ROW_BLOCK at a time into one reused buffer. A
    reduce over axis 0 of a C-order block adds row by row (acc += row), so
    each later block is reduced behind the sum so far, held in the buffer's
    first row. A one-column reduce is pairwise, not row by row, so a
    one-column cluster is gathered whole (a chunk holds CHUNK_ROWS values).
    Gathering every cluster whole costs more than its rows: freed, such
    MiB-sized gathers lift glibc's mmap threshold, so later temporaries
    stay resident in the heap.
    """
    step = ROW_BLOCK if rows.shape[1] > 1 else len(order)
    sums = np.empty((len(starts), rows.shape[1]), dtype=np.float64)
    buf = np.empty((min(step, len(order)) + 1, rows.shape[1]), dtype=np.float64)
    for j, (s, c) in enumerate(zip(starts.tolist(), counts.tolist())):
        for b in range(s, s + c, step):
            lead = int(b > s)  # a later block is reduced behind the sum so far
            if lead:
                buf[0] = sums[j]
            idx = order[b : min(b + step, s + c)]
            np.take(rows, idx, axis=0, out=buf[lead : lead + len(idx)], mode="clip")
            np.add.reduce(buf[: lead + len(idx)], axis=0, out=sums[j])
    return sums


def _assign_chunk(rows: np.ndarray, x2: np.ndarray, centroids64: np.ndarray, c2: np.ndarray):
    """Assignment plus partial statistics for one chunk of f64 rows (runs on
    a worker). The chunk holds one rows x k distance block and one gather
    block of its cluster sums."""
    d = _pairwise_sq_dists(rows, x2, centroids64, c2)
    assign = np.argmin(d, axis=1)  # ties -> lowest index
    mind = d[np.arange(len(assign)), assign]
    del d
    # the expansion form cannot resolve distances below ~eps * (|x|^2 + |c|^2);
    # snap that noise to exact zero so fixed points report inertia 0
    mind[mind <= 1e-12 * (x2 + c2[assign])] = 0.0
    inertia = float(np.sum(mind))
    order = np.argsort(assign, kind="stable")  # each cluster's rows, in row order
    uniq, starts = np.unique(assign[order], return_index=True)
    counts = np.diff(np.concatenate([starts, [len(assign)]]))
    sums = _cluster_sums(rows, order, starts, counts)
    return assign.astype(np.uint32), mind, uniq, sums, counts, inertia


def _chunks(n: int, rows: int) -> list[tuple[int, int]]:
    return [(s, min(s + rows, n)) for s in range(0, n, rows)]


@functools.cache
def _openblas_threads():
    """(get, set) thread-count functions of the OpenBLAS that numpy's matrix
    products call, or None when there is none. The symbols are looked up
    through numpy's loaded core extension, which reaches the BLAS it links."""
    for module in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):  # numpy 2, numpy 1
        try:
            lib = ctypes.CDLL(sys.modules[module].__file__)
        except (KeyError, OSError):
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", "64_"), ("openblas_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype, set_.argtypes, set_.restype = [], ctypes.c_int, [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """Hold OpenBLAS to one thread for the body; restore the count after.
    The count is process-wide, so only one thread at a time may enter."""
    api = _openblas_threads()
    if api is None:
        yield
        return
    get, set_ = api
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def ordered_map(fn, items, workers: int | None) -> list:
    """[fn(x) for x in items]; on a pool of `workers` threads when there are
    more than one worker and more than one item. Results keep item order.
    While the pool runs, BLAS runs on one thread per call, so the workers
    do not share their cores with BLAS threads."""
    items = list(items)
    if workers is None or workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with _one_blas_thread(), ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _row_sq_norms(points: np.ndarray) -> np.ndarray:
    """f64 squared norms of the f64 rows, one einsum row dot each; a row's
    norm does not depend on the rows around it."""
    return np.einsum("ij,ij->i", points, points)


def _assignment_pass(points: np.ndarray, x2: np.ndarray, centroids64: np.ndarray, workers: int | None):
    """One full assignment over all points, in CHUNK_ROWS-row chunks;
    x2 holds the points' squared norms (_row_sq_norms).

    Returns assignments, per-point min distances, per-cluster f64 sums and
    counts, and the total inertia. Partial results are merged in chunk
    order, never in completion order.
    """
    n = len(points)
    k = len(centroids64)
    c2 = np.einsum("ij,ij->i", centroids64, centroids64)
    spans = _chunks(n, CHUNK_ROWS)

    def job(span: tuple[int, int]):
        s, e = span
        return _assign_chunk(points[s:e], x2[s:e], centroids64, c2)

    results = ordered_map(job, spans, workers)
    assign = np.empty(n, dtype=np.uint32)
    mind = np.empty(n, dtype=np.float64)
    sums = np.zeros((k, points.shape[1]), dtype=np.float64)
    counts = np.zeros(k, dtype=np.int64)
    partial_inertias = []
    for (s, e), (a, m, uniq, ps, pc, pi) in zip(spans, results):
        assign[s:e] = a
        mind[s:e] = m
        sums[uniq] += ps
        counts[uniq] += pc
        partial_inertias.append(pi)
    return assign, mind, sums, counts, math.fsum(partial_inertias)


def _repair_empty(
    points: np.ndarray,
    assign: np.ndarray,
    mind: np.ndarray,
    sums: np.ndarray,
    counts: np.ndarray,
) -> None:
    """Give every empty cluster one point, stolen from the largest cluster.

    The stolen point is the member farthest from its assigned centroid
    (ties -> lowest row index). Mutates all four arrays in place.
    """
    for e in np.flatnonzero(counts == 0):
        donor = int(np.argmax(counts))
        if counts[donor] < 2:  # cannot happen while n >= k, kept as a guard
            break
        members = np.flatnonzero(assign == donor)
        p = int(members[np.argmax(mind[members])])
        xb = points[p]
        assign[p] = e
        sums[donor] -= xb
        counts[donor] -= 1
        sums[e] = xb
        counts[e] = 1
        mind[p] = 0.0


def _mean_update(sums: np.ndarray, counts: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """Cluster means; a cluster left empty (only possible when n < k)
    keeps its previous centroid."""
    out = sums / np.maximum(counts, 1)[:, None]
    empty = counts == 0
    if empty.any():
        out[empty] = previous[empty]
    return out


def _lloyd_step(points: np.ndarray, x2: np.ndarray, centroids64: np.ndarray, workers: int | None):
    """One Lloyd iteration: assign, repair empties, recompute means; x2
    holds the points' squared norms.

    Returns (assignments, new f64 means, inertia, empty) where inertia is
    the cost of the assignment against the *input* centroids and empty is
    the number of clusters the assignment left empty before repair.
    """
    assign, mind, sums, counts, inertia = _assignment_pass(points, x2, centroids64, workers)
    empty = int(np.count_nonzero(counts == 0))
    _repair_empty(points, assign, mind, sums, counts)
    return assign, _mean_update(sums, counts, centroids64), inertia, empty


def kmeanspp_init(points, k: int, seed: int, x2: np.ndarray | None = None) -> np.ndarray:
    """K-means++ (D^2-weighted) seeding over a canonical point order.

    When `points` is an EmbeddingMatrix, the draw walks candidates in
    sorted-row-id order; a bare array is walked in index order. Each pick
    is one matrix-vector product over the f64 rows in storage order, and
    the D^2 weights are kept in canonical order for the draw. A row's D^2
    can still differ in its last ulp with its storage position, so
    permuting ingest order can change a pick where such an ulp tips the
    draw. Returns (k, dim) f32.
    x2 holds the points' f64 squared norms in storage order
    (_row_sq_norms, which runs here when x2 is not given).
    """
    X, row_ids = _as_points(points)
    return _kmeanspp(X, row_ids, k, seed, _row_sq_norms(X) if x2 is None else x2)


def _kmeanspp(X: np.ndarray, row_ids: list[str] | None, k: int, seed: int, x2: np.ndarray) -> np.ndarray:
    """kmeanspp_init over f64 rows X, their ids and squared norms x2."""
    n = len(X)
    if not 1 <= k <= n:
        raise KTooLarge(f"k={k} with {n} points")
    rng = np.random.default_rng(seed)

    canon = id_order(row_ids) if row_ids is not None else np.arange(n)
    if not np.isfinite(x2).all():
        raise ValueError("K-means++ needs finite points; a squared row norm is not finite")

    def min_update(row: int) -> None:
        """d2 <- min(d2, squared distance to canonical row `row`)."""
        c = X[canon[row]][None, :]
        c2 = np.einsum("ij,ij->i", c, c)
        np.minimum(d2, _pairwise_sq_dists(X, x2, c, c2)[canon, 0], out=d2)

    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = int(rng.integers(0, n))
    d2 = np.full(n, np.inf, dtype=np.float64)
    min_update(chosen[0])
    d2[chosen[0]] = 0.0
    for j in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            # the draw rng.choice(n, p=d2 / total) makes, from the same single double
            cdf = np.cumsum(d2 / total)
            cdf /= cdf[-1]
            idx = int(np.searchsorted(cdf, rng.random(), side="right"))
        else:
            candidates = np.setdiff1d(np.arange(n), chosen[:j])
            idx = int(candidates[rng.integers(0, len(candidates))])
        chosen[j] = idx
        min_update(idx)
        d2[chosen[: j + 1]] = 0.0
    return X[canon[chosen]].astype(np.float32)


def kmeans(
    points,
    k: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    seed: int = 0,
    workers: int | None = None,
) -> ClusterModel:
    """Lloyd K-means with K-means++ seeding, deterministic for a fixed seed
    regardless of worker count.

    Iterates until the relative inertia improvement drops below `tol`,
    the assignment stabilizes exactly, or `max_iter` is hit. The returned
    assignments are re-derived against the final (f32) centroids, so every
    point is assigned to its true nearest centroid (ties -> lowest index).
    """
    X, row_ids = _as_points(points)
    x2 = _row_sq_norms(X)
    centroids64 = _kmeanspp(X, row_ids, k, seed, x2).astype(np.float64)
    history: list[float] = []
    prev_assign: np.ndarray | None = None
    iterations = 0
    for _ in range(max_iter):
        assign, means64, inertia, _ = _lloyd_step(X, x2, centroids64, workers)
        iterations += 1
        if history and inertia > history[-1]:
            # float wobble at convergence; the exact sequence cannot increase
            break
        history.append(inertia)
        centroids64 = means64
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        if len(history) >= 2:
            prev, cur = history[-2], history[-1]
            if prev <= 0.0 or (prev - cur) < tol * prev:
                break
        prev_assign = assign

    centroids = centroids64.astype(np.float32)
    # final alignment: assignments and inertia against the stored centroids
    for _ in range(k):
        assign, means64, inertia, empty = _lloyd_step(X, x2, centroids.astype(np.float64), workers)
        if empty == 0:
            break
        centroids = means64.astype(np.float32)
    return ClusterModel(
        k=k,
        centroids=centroids,
        assignments=assign,
        inertia=inertia,
        iterations_run=iterations,
        seed=seed,
        inertia_history=history,
    )


@dataclass
class ClusterTree:
    """Multi-level hierarchy: level 0 clusters the points, level l > 0
    clusters the centroids of level l - 1."""

    levels: list[ClusterModel]
    level_sizes: list[int]
    seed: int
    tol: float
    normalized: bool

    @property
    def n_points(self) -> int:
        return len(self.levels[0].assignments)

    def compose_assignments(self) -> np.ndarray:
        """Map every original point to its top-level cluster."""
        assign = self.levels[0].assignments.astype(np.int64)
        for model in self.levels[1:]:
            assign = model.assignments.astype(np.int64)[assign]
        return assign

    def children(self, level: int) -> list[np.ndarray]:
        """For each cluster at `level`, the index-ordered members one level
        down: point rows for level 0, child clusters above it."""
        if not 0 <= level < len(self.levels):
            raise ValueError(f"level {level} outside 0..{len(self.levels) - 1}")
        assign = self.levels[level].assignments
        order = np.argsort(assign, kind="stable")
        sorted_assign = assign[order]
        boundaries = np.searchsorted(sorted_assign, np.arange(self.level_sizes[level] + 1))
        return [order[boundaries[j]: boundaries[j + 1]] for j in range(self.level_sizes[level])]

    def reachable_counts(self, level: int) -> np.ndarray:
        """Number of original points reachable under each cluster at `level`."""
        counts = np.bincount(self.levels[0].assignments, minlength=self.level_sizes[0]).astype(np.int64)
        for lvl in range(1, level + 1):
            assign = self.levels[lvl].assignments
            up = np.zeros(self.level_sizes[lvl], dtype=np.int64)
            np.add.at(up, assign, counts)
            counts = up
        return counts

    def to_bytes(self) -> bytes:
        out = bytearray()
        out += TREE_MAGIC
        out += struct.pack("<Q", len(self.levels))
        for size in self.level_sizes:
            out += struct.pack("<Q", size)
        out += struct.pack("<Q", self.seed & 0xFFFFFFFFFFFFFFFF)
        out += struct.pack("<d", self.tol)
        out += struct.pack("<B", 1 if self.normalized else 0)
        for model in self.levels:
            out += struct.pack("<QQ", model.centroids.shape[0], model.centroids.shape[1])
            out += model.centroids.astype("<f4", copy=False).tobytes(order="C")
        for model in self.levels:
            out += struct.pack("<Q", len(model.assignments))
            out += model.assignments.astype("<u4", copy=False).tobytes()
        out += hashlib.sha256(bytes(out)).digest()
        return bytes(out)

    def fingerprint(self) -> str:
        """Hex digest identifying the exact tree contents."""
        return self.to_bytes()[-32:].hex()

    def save(self, path: str | Path) -> Path:
        return write_atomic(path, [self.to_bytes()])

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ClusterTree":
        if len(blob) < len(TREE_MAGIC) + 8 + 32:
            raise BadTreeFile("tree file shorter than fixed header")
        if blob[: len(TREE_MAGIC)] != TREE_MAGIC:
            raise BadTreeFile(f"bad magic {blob[:8]!r}")
        body, checksum = blob[:-32], blob[-32:]
        if hashlib.sha256(body).digest() != checksum:
            raise BadTreeFile("tree checksum mismatch")
        off = len(TREE_MAGIC)

        def take(nbytes: int) -> int:
            """Offset of the next nbytes; the header must fit the body."""
            nonlocal off
            start, off = off, off + nbytes
            if off > len(body):
                raise BadTreeFile(f"tree header needs at least {off} bytes, body has {len(body)}")
            return start

        def u64() -> int:
            return struct.unpack_from("<Q", body, take(8))[0]

        n_levels = u64()
        if n_levels == 0:
            raise BadTreeFile("tree has no levels")
        sizes = [u64() for _ in range(n_levels)]
        seed = u64()
        tol = struct.unpack_from("<d", body, take(8))[0]
        normalized = bool(body[take(1)])
        centroid_mats = []
        for _ in range(n_levels):
            rows, dim = u64(), u64()
            # a written level has no more rows than u32 assignments beneath it, and rows * dim * 4 bytes
            if max(rows, dim) * 4 > len(body):
                raise BadTreeFile(f"level {len(centroid_mats)}: {rows}x{dim} centroids cannot fit a {len(body)}-byte body")
            mat = np.frombuffer(body, dtype="<f4", count=rows * dim, offset=take(rows * dim * 4))
            centroid_mats.append(mat.reshape(rows, dim).copy())
        assigns = []
        for _ in range(n_levels):
            count = u64()
            assigns.append(np.frombuffer(body, dtype="<u4", count=count, offset=take(count * 4)).copy())
        if off != len(body):
            raise BadTreeFile(f"{len(body) - off} unexpected trailing bytes")
        for level, (cm, am) in enumerate(zip(centroid_mats, assigns)):
            if len(cm) != sizes[level]:
                raise BadTreeFile(f"level {level}: {len(cm)} centroid rows for size {sizes[level]}")
            if level > 0 and len(am) != sizes[level - 1]:
                raise BadTreeFile(f"level {level}: {len(am)} assignments for {sizes[level - 1]} clusters below")
            if len(am) and int(am.max()) >= sizes[level]:
                raise BadTreeFile(f"level {level}: assignment {int(am.max())} is not below size {sizes[level]}")
            if cm.shape[1] != centroid_mats[0].shape[1]:
                raise BadTreeFile(f"level {level}: dimension {cm.shape[1]}, level 0 has {centroid_mats[0].shape[1]}")
        levels = [
            ClusterModel(
                k=len(cm),
                centroids=cm,
                assignments=am,
                inertia=float("nan"),
                iterations_run=0,
                seed=seed,
            )
            for cm, am in zip(centroid_mats, assigns)
        ]
        return cls(levels=levels, level_sizes=sizes, seed=seed, tol=tol, normalized=normalized)

    @classmethod
    def load(cls, path: str | Path) -> "ClusterTree":
        """Parse the tree file at `path`; the SHA-256 of the bytes parsed is
        noted for the run manifest."""
        blob = Path(path).read_bytes()
        tree = cls.from_bytes(blob)
        note_digest("read", path, hashlib.sha256(blob).hexdigest())
        return tree


def build_hierarchy(
    points,
    level_sizes: list[int],
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    workers: int | None = None,
    normalized: bool = False,
) -> ClusterTree:
    """Cluster points at level_sizes[0], then recursively cluster the
    resulting centroids at each coarser size."""
    if not level_sizes:
        raise ValueError("level_sizes must be non-empty")
    if any(b >= a for a, b in zip(level_sizes, level_sizes[1:])):
        raise ValueError(f"level_sizes must be strictly decreasing, got {level_sizes}")

    levels: list[ClusterModel] = []
    data = points
    for lvl, k in enumerate(level_sizes):
        model = kmeans(data, k, tol=tol, max_iter=max_iter, seed=derive_seed(seed, f"kmeans-level-{lvl}"), workers=workers)
        levels.append(model)
        data = model.centroids  # upper levels cluster centroids; index order is canonical
    return ClusterTree(levels=levels, level_sizes=list(level_sizes), seed=seed, tol=tol, normalized=normalized)
