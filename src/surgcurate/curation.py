"""Budget allocation over a cluster tree and nearest-centroid selection.

The default allocation splits the total budget equally among each node's
children, top level first, capping every child at the number of points
reachable under it and water-filling the surplus back into its siblings.
A proportional mode exists behind a flag; it reproduces the raw data
distribution and therefore does not balance anything.

Selection makes one pass over the rows, a store file's rows included, and
holds no copy of the payload: its state is O(n) scalars, each row's two
f64 distances to its leaf centroid plus the order that sorts them,
next to the tree's assignments and the clip ids.

The store and clustering layers are imported by curate and its helpers
when they run, so `sample`, which uses only read_pool_ids, loads neither.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .apportion import as_fraction, proportional_split, round_half_away_from_zero, waterfill_equal_split
from .artifact import SurgcurateError, decode_text, id_lines, iter_jsonl, note_digest, text_field, write_atomic

if TYPE_CHECKING:
    from .clustering import ClusterTree, DimensionMismatch
    from .store import EmbeddingMatrix


class CurationError(SurgcurateError):
    pass


class FractionOutOfRange(CurationError):
    pass


@dataclass
class BudgetPlan:
    """Integer quota for every tree node; level 0 is the selection level."""

    total_budget: int
    fraction: Fraction
    quotas: list[np.ndarray]  # quotas[level][cluster], aligned with tree.levels
    mode: str = "equal"


@dataclass(frozen=True)
class SelectionRecord:
    clip_id: str
    leaf: int
    rank: int
    distance: float


@dataclass
class CuratedSet:
    """The curated subset: exactly total_budget clips, sorted by clip id."""

    selected: list[str]
    provenance: dict[str, SelectionRecord]
    plan: BudgetPlan
    tree_fingerprint: str

    def __len__(self) -> int:
        return len(self.selected)

    def to_jsonl(self, path: str | Path) -> Path:
        header = {
            "kind": "header",
            "total_budget": self.plan.total_budget,
            "fraction": str(self.plan.fraction),
            "mode": self.plan.mode,
            "tree_fingerprint": self.tree_fingerprint,
        }

        def lines():
            yield json.dumps(header, sort_keys=True) + "\n"
            for cid in self.selected:
                rec = self.provenance[cid]
                yield json.dumps(
                    {"clip_id": rec.clip_id, "leaf": rec.leaf, "rank": rec.rank, "distance": rec.distance},
                    sort_keys=True,
                ) + "\n"

        return write_atomic(path, lines())


def read_pool_ids(path: str | Path) -> list[str]:
    """Clip ids from a curated JSON-lines file or a plain one-per-line list.

    The file is read once, and the SHA-256 of its bytes noted for the run
    manifest. Its first non-blank line picks the format: a curated file's
    starts with '{'. Text that is not UTF-8, or a curated line that is
    malformed, raises CurationError naming path:line.
    """
    with open(path, "rb") as fh:
        head: list[bytes] = []
        ids: list[str] = []
        while not ids and (line := fh.readline()):
            head.append(line)
            ids = id_lines(decode_text(line, path, CurationError, len(head)))
        if not ids or not ids[0].startswith("{"):
            rest = fh.read()
            ids += id_lines(decode_text(rest, path, CurationError, len(head) + 1))
            hasher = hashlib.sha256(b"".join(head))
            hasher.update(rest)
            note_digest("read", path, hasher.hexdigest())
            return ids
        curated = iter_jsonl(
            path,
            CurationError,
            lambda doc: None if doc.get("kind") == "header" else text_field(doc, "clip_id", CurationError),
            lines=chain(head, fh),
        )
        return [cid for cid in curated if cid is not None]


def allocate_budget(tree: ClusterTree, fraction, mode: str = "equal") -> BudgetPlan:
    """Integer quotas for every node such that each level sums exactly to
    round(fraction * n_points) and no node exceeds its reachable points."""
    frac = as_fraction(fraction)
    if not 0 < frac <= 1:
        raise FractionOutOfRange(f"fraction must be in (0, 1], got {frac}")
    if mode not in ("equal", "proportional"):
        raise ValueError(f"unknown allocation mode {mode!r}")

    n_levels = len(tree.levels)
    total_budget = round_half_away_from_zero(frac * tree.n_points)
    reachable = [tree.reachable_counts(lvl) for lvl in range(n_levels)]

    def split(budget: int, caps: list[int]) -> list[int]:
        if mode == "equal":
            return waterfill_equal_split(budget, caps)
        return proportional_split(budget, caps)

    quotas: list[np.ndarray | None] = [None] * n_levels
    top = n_levels - 1
    quotas[top] = np.asarray(split(total_budget, [int(c) for c in reachable[top]]), dtype=np.int64)
    for level in range(top, 0, -1):
        child_quotas = np.zeros(tree.level_sizes[level - 1], dtype=np.int64)
        groups = tree.children(level)
        for parent, children in enumerate(groups):
            caps = [int(reachable[level - 1][c]) for c in children]
            alloc = split(int(quotas[level][parent]), caps)
            child_quotas[children] = alloc
        quotas[level - 1] = child_quotas
    return BudgetPlan(total_budget=total_budget, fraction=frac, quotas=quotas, mode=mode)


def _leaf_distances(tree: ClusterTree, blocks: Iterable[tuple[int, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Every row's squared distance to its leaf centroid, two ways, from
    (start, rows) blocks of f32 values (f32 or f64 rows) covering all
    tree.n_points rows in order.

    D = row - centroid in f64. The ranking distance is the einsum row dot
    of D; the recorded distance, which curated.jsonl carries, is the BLAS
    dot D.D and can differ from it in the last ulp. A row's two values
    depend on neither the block it comes in nor its place in it.
    """
    centroids64 = tree.levels[0].centroids.astype(np.float64)
    leaf = tree.levels[0].assignments
    ranked = np.empty(tree.n_points, dtype=np.float64)
    recorded = np.empty(tree.n_points, dtype=np.float64)
    for s, rows in blocks:
        e = s + len(rows)
        ranked[s:e], recorded[s:e] = _distance_kernel(rows, centroids64[leaf[s:e]])
    return ranked, recorded


def _distance_kernel(rows: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ranking, recorded) squared distances of rows of f32 values to their
    own f64 centroids, row for row; `centroids` is overwritten with the f64
    differences, so the block holds no f64 copy of the rows."""
    diff = np.subtract(rows, centroids, out=centroids)  # each row is cast to f64 exactly
    return np.einsum("ij,ij->i", diff, diff), np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0]


def _select(tree: ClusterTree, plan: BudgetPlan, row_ids: list[str], ranked: np.ndarray, recorded: np.ndarray) -> dict[str, SelectionRecord]:
    """Each leaf's quota of rows nearest its centroid by ranking distance,
    ties to the smaller clip id, as {clip_id: SelectionRecord}."""
    from .store import id_order

    n = tree.n_points
    leaf = tree.levels[0].assignments
    id_rank = np.empty(n, dtype=np.int64)
    id_rank[id_order(row_ids)] = np.arange(n)
    order = np.lexsort((id_rank, ranked, leaf))  # leaf, then distance, then clip id
    counts = np.bincount(leaf, minlength=tree.level_sizes[0])
    sorted_leaf = leaf[order]
    rank = np.arange(n) - (np.cumsum(counts) - counts)[sorted_leaf]  # place within the row's leaf
    keep = rank < plan.quotas[0][sorted_leaf]
    picked = order[keep]
    return {
        row_ids[row]: SelectionRecord(row_ids[row], lf, rk, distance)
        for row, lf, rk, distance in zip(
            picked.tolist(), sorted_leaf[keep].tolist(), rank[keep].tolist(), recorded[picked].tolist()
        )
    }


def curate(
    tree: ClusterTree,
    points: EmbeddingMatrix | str | Path,
    fraction=Fraction(1, 10),
    mode: str = "equal",
) -> CuratedSet:
    """Allocate the budget, then take the nearest members of every leaf.

    `points` is an EmbeddingMatrix in the representation the tree was built
    over (normalize first when the tree's normalized flag is set), or the
    path of a store file. A store is read once, ROW_BLOCK rows at a time
    (store.StoreReader.blocks): each block is hashed, scanned for NaN/Inf
    and, under a normalized tree, normalised as l2_normalize does, and no
    payload copy is held. Either way one pass takes every row's distances
    to its leaf centroid, and the selection works on those O(n) scalars,
    the leaf assignments and the ids. A store's own errors come before a
    mismatch between the tree and the store.
    """
    from .store import EmbeddingMatrix, open_store, row_blocks

    if isinstance(points, EmbeddingMatrix):
        if mismatch := _shape_error(tree, points.n_rows, points.dim):
            raise mismatch
        row_ids = points.row_ids
        ranked, recorded = _leaf_distances(tree, ((s, points.data[s:e]) for s, e in row_blocks(points.n_rows)))
    else:
        with open_store(points) as reader:
            blocks = reader.blocks(normalize=tree.normalized)
            mismatch = _shape_error(tree, reader.n_rows, reader.dim)
            if mismatch is None:
                ranked, recorded = _leaf_distances(tree, blocks)
            else:
                deque(blocks, maxlen=0)  # still read, hash and scan every row: the store's errors come first
            row_ids = reader.row_ids()
        if mismatch:
            raise mismatch
    plan = allocate_budget(tree, fraction, mode=mode)
    provenance = _select(tree, plan, row_ids, ranked, recorded)
    selected = sorted(provenance)
    if len(selected) != plan.total_budget:
        raise CurationError(
            f"selected {len(selected)} clips for a budget of {plan.total_budget}"
        )
    return CuratedSet(
        selected=selected,
        provenance=provenance,
        plan=plan,
        tree_fingerprint=tree.fingerprint(),
    )


def _shape_error(tree: ClusterTree, n_rows: int, dim: int) -> CurationError | DimensionMismatch | None:
    """The error for points that do not fit the tree, or None."""
    from .clustering import DimensionMismatch

    if tree.n_points != n_rows:
        return CurationError(f"tree was built over {tree.n_points} points, store has {n_rows}")
    centroid_dim = tree.levels[0].centroids.shape[1]
    if centroid_dim != dim:
        return DimensionMismatch(f"tree centroids have dimension {centroid_dim}, store rows have {dim}")
    return None
