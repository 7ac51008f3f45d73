"""Independent reference implementations used to check the package.

Everything here is deliberately written from scratch in the most obvious
way possible (no code shared with the package), so the tests compare two
independent derivations of the same quantities.
"""

import hashlib
import json
from fractions import Fraction
from itertools import combinations
from math import floor

import numpy as np


def nearest_assignments(points, centroids):
    """Exhaustive nearest-centroid scan using the direct (x - c)^2 form."""
    pts = np.asarray(points, dtype=np.float64)
    cents = np.asarray(centroids, dtype=np.float64)
    diffs = pts[:, None, :] - cents[None, :, :]
    d = np.einsum("nkd,nkd->nk", diffs, diffs)
    return d.argmin(axis=1), d.min(axis=1)


def brute_force_best_lloyd(points, k, max_iter=60):
    """Best final inertia of plain Lloyd over every k-subset initialization."""
    pts = np.asarray(points, dtype=np.float64)
    n, dim = pts.shape
    starts = np.array(list(combinations(range(n), k)), dtype=np.int64)
    C = pts[starts]  # (s, k, dim)
    eye = np.arange(k)
    for _ in range(max_iter):
        diffs = pts[None, :, None, :] - C[:, None, :, :]
        d = np.einsum("snkd,snkd->snk", diffs, diffs)
        assign = d.argmin(axis=2)  # (s, n)
        onehot = (assign[:, :, None] == eye[None, None, :]).astype(np.float64)
        counts = onehot.sum(axis=1)  # (s, k)
        sums = np.einsum("snk,nd->skd", onehot, pts)
        new_C = np.where(counts[:, :, None] > 0, sums / np.maximum(counts, 1)[:, :, None], C)
        if np.array_equal(new_C, C):
            break
        C = new_C
    diffs = pts[None, :, None, :] - C[:, None, :, :]
    d = np.einsum("snkd,snkd->snk", diffs, diffs)
    return float(d.min(axis=2).sum(axis=1).min())


def simulate_equal_split_allocation(leaf_sizes, child_groups_per_level, total_budget):
    """Hand simulation of the top-down equal-split / water-filling rule.

    leaf_sizes: point count of every level-0 cluster.
    child_groups_per_level: for each level l >= 1 (finest to coarsest), a
    list mapping each cluster at level l to the list of its child cluster
    indices at level l - 1.
    Returns per-level quota lists, finest level first.
    """

    def waterfill(budget, caps):
        remaining = budget
        result = [None] * len(caps)
        active = list(range(len(caps)))
        while active:
            share = Fraction(remaining, len(active))
            pinned = [i for i in active if caps[i] <= share]
            if not pinned:
                base = floor(share)
                leftover = remaining - base * len(active)
                for pos, i in enumerate(active):
                    result[i] = base + (1 if pos < leftover else 0)
                return result
            for i in pinned:
                result[i] = caps[i]
                remaining -= caps[i]
            active = [i for i in active if caps[i] > share]
        return result

    reachable = [list(leaf_sizes)]
    for groups in child_groups_per_level:
        reachable.append([sum(reachable[-1][c] for c in children) for children in groups])

    n_levels = len(reachable)
    quotas = [None] * n_levels
    quotas[-1] = waterfill(total_budget, reachable[-1])
    for level in range(n_levels - 1, 0, -1):
        child_quotas = [0] * len(reachable[level - 1])
        for parent, children in enumerate(child_groups_per_level[level - 1]):
            alloc = waterfill(quotas[level][parent], [reachable[level - 1][c] for c in children])
            for child, q in zip(children, alloc):
                child_quotas[child] = q
        quotas[level - 1] = child_quotas
    return quotas


def kmeanspp_init_reference(points, k, seed, row_ids=None):
    """K-means++ seeding as a plain per-pick loop: the f32 points widened
    to f64 rows in storage order; every pick recomputes every squared row
    norm, takes one distance per row to the picked row, keeps the running
    minimum in canonical (sorted row id) order and draws with rng.choice."""
    X = np.ascontiguousarray(points, dtype=np.float32).astype(np.float64)
    n = len(X)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} with {n} points")
    rng = np.random.default_rng(seed)
    if row_ids is not None:
        canon = np.argsort(np.asarray(row_ids, dtype=object), kind="stable")
    else:
        canon = np.arange(n)

    def min_update_sq_dists(centroid64, d2):
        c = centroid64[None, :]
        c2 = np.einsum("ij,ij->i", c, c)
        x2 = np.einsum("ij,ij->i", X, X)
        d = x2[:, None] + c2[None, :] - 2.0 * (X @ c.T)
        np.maximum(d, 0.0, out=d)
        np.minimum(d2, d[canon, 0], out=d2)

    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = int(rng.integers(0, n))
    d2 = np.full(n, np.inf, dtype=np.float64)
    min_update_sq_dists(X[canon[chosen[0]]], d2)
    d2[chosen[0]] = 0.0
    for j in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            candidates = np.setdiff1d(np.arange(n), chosen[:j])
            idx = int(candidates[rng.integers(0, len(candidates))])
        chosen[j] = idx
        min_update_sq_dists(X[canon[idx]], d2)
        d2[chosen[: j + 1]] = 0.0
    return X[canon[chosen]].astype(np.float32)


def l2_normalize_reference(data):
    """Whole-matrix L2 normalisation as the package did it before row blocks:
    f64 norms of the whole matrix, one f64 quotient, cast back to f32.
    Raises ValueError(row) naming the first all-zero row."""
    norms = np.linalg.norm(data.astype(np.float64), axis=1)
    zero = norms == 0.0
    if zero.any():
        raise ValueError(int(np.argmax(zero)))
    return (data.astype(np.float64) / norms[:, None]).astype(np.float32)


def select_leaf_reference(data, row_ids, centroid, member_rows, quota):
    """Leaf selection as the package did it before row blocks: one f64
    difference matrix over the whole leaf, ranked by einsum, and each
    recorded distance the 1-D dot product of that difference row."""
    if quota == 0:
        return []
    ids = np.asarray([row_ids[r] for r in member_rows])
    c = np.asarray(centroid, dtype=np.float64)
    diff = data[member_rows].astype(np.float64) - c[None, :]
    dists = np.einsum("ij,ij->i", diff, diff)
    order = np.lexsort((ids, dists))
    return [(str(ids[i]), float(diff[i] @ diff[i])) for i in order[:quota]]


def curate_reference(data, row_ids, centroids, assignments, quotas):
    """Selection as the package did it leaf by leaf: each leaf's member rows
    gathered in row order and passed to select_leaf_reference with the
    leaf's quota. `data` is already in the tree's representation. Returns
    {clip_id: (leaf, rank, recorded distance)}."""
    picked = {}
    for leaf, quota in enumerate(quotas):
        members = np.flatnonzero(np.asarray(assignments) == leaf)
        for rank, (cid, distance) in enumerate(select_leaf_reference(data, row_ids, centroids[leaf], members, int(quota))):
            picked[cid] = (leaf, rank, distance)
    return picked


def cluster_sums_row_order(points64, assign):
    """Per-cluster sums of f64 rows, each taken as a plain loop in row order:
    the cluster's first row, then `acc += row` for each later member.
    Returns {cluster: sum} for every cluster that has a member."""
    sums = {}
    for row, cluster in zip(points64, np.asarray(assign).tolist()):
        if cluster in sums:
            sums[cluster] += row
        else:
            sums[cluster] = row.copy()
    return sums


def frame_count_mismatch_fraction(frame_count, fps, duration_s):
    """The frame-count rule in Fraction arithmetic: more than one frame per
    second of footage (and more than one frame) from fps * duration, the
    duration read through its shortest decimal repr."""
    duration = Fraction(repr(float(duration_s)))
    return abs(Fraction(frame_count) - Fraction(fps) * duration) > max(duration, Fraction(1))


def batch_manifest_reference(unlabeled, clinical, p, m, batch_size, seed, n_batches, interleave):
    """The bytes of a batch manifest as the package wrote them one batch at
    a time: a scalar rng.random() draw (or the floor((i+1)p) schedule) per
    batch, that batch's largest-remainder mixed split rounded again, and
    cursors that index numpy arrays of the sorted ids. The arrays hold
    Python objects, so ids ending in NUL survive."""

    def stage_seed(label):
        digest = hashlib.sha256((seed & (2**64 - 1)).to_bytes(8, "little") + label.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")

    def mixed_split():
        quotas = [m * batch_size, (1 - m) * batch_size]
        counts = [floor(q) for q in quotas]
        leftover = batch_size - sum(counts)
        by_remainder = sorted(range(2), key=lambda i: (-(quotas[i] - counts[i]), i))
        for i in by_remainder[:leftover]:
            counts[i] += 1
        return counts

    class Cursor:
        def __init__(self, ids, pool_seed):
            self.ids = np.asarray(sorted(ids), dtype=object)
            self.seed = pool_seed
            self.epoch = 0
            self.order = self.shuffle()
            self.pos = 0

        def shuffle(self):
            rng = np.random.default_rng((self.seed + self.epoch) & (2**64 - 1))
            return self.ids[rng.permutation(len(self.ids))]

        def take(self, count):
            out = []
            for _ in range(count):
                out.append(self.order[self.pos])
                self.pos += 1
                if self.pos == len(self.order):
                    self.epoch += 1
                    self.order = self.shuffle()
                    self.pos = 0
            return out

    u = Cursor(unlabeled, stage_seed("pool-unlabeled"))
    c = Cursor(clinical, stage_seed("pool-clinical"))
    mode_rng = np.random.default_rng(stage_seed("batch-mode"))
    header = {
        "kind": "header",
        "policy": {"p_pure_clinical": str(p), "mixed_unlabeled_frac": str(m), "batch_size": batch_size, "seed": seed},
        "n_batches": n_batches,
        "interleave": interleave,
        "expected_clinical_fraction": str(p + (1 - p) * (1 - m)),
    }
    lines = [json.dumps(header, sort_keys=True)]
    for index in range(n_batches):
        if interleave:
            pure = floor((index + 1) * p) > floor(index * p)
        else:
            pure = mode_rng.random() < float(p)
        if pure:
            mode, ids = "PureClinical", c.take(batch_size)
        else:
            n_unlabeled, n_clinical = mixed_split()
            mode, ids = "Mixed", u.take(n_unlabeled) + c.take(n_clinical)
        lines.append(json.dumps({"index": index, "mode": mode, "clip_ids": ids}, sort_keys=True))
    return "".join(line + "\n" for line in lines).encode("utf-8")
