"""Budget allocation over a cluster tree and nearest-centroid selection.

The default allocation splits the total budget equally among each node's
children, top level first, capping every child at the number of points
reachable under it and water-filling the surplus back into its siblings.
A proportional mode exists behind a flag; it reproduces the raw data
distribution and therefore does not balance anything.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from pathlib import Path

import numpy as np

from .apportion import as_fraction, proportional_split, round_half_away_from_zero, waterfill_equal_split
from .artifact import SurgcurateError, decode_text, id_lines, iter_jsonl, text_field, write_atomic
from .clustering import ClusterTree, DimensionMismatch, ordered_map
from .store import EmbeddingMatrix, row_blocks


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

    def quota(self, level: int, cluster: int) -> int:
        return int(self.quotas[level][cluster])

    def level_total(self, level: int) -> int:
        return int(self.quotas[level].sum())


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

    The file is read once. Its first non-blank line picks the format: a
    curated file's starts with '{'. Text that is not UTF-8, or a curated
    line that is malformed, raises CurationError naming path:line.
    """
    with open(path, "rb") as fh:
        head: list[bytes] = []
        ids: list[str] = []
        while not ids:
            line = fh.readline()
            if not line:
                return []
            head.append(line)
            ids = id_lines(decode_text(line, path, CurationError, len(head)))
        if not ids[0].startswith("{"):
            return ids + id_lines(decode_text(fh.read(), path, CurationError, len(head) + 1))
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


def _select_leaf(points: EmbeddingMatrix, centroid, member_rows: np.ndarray, quota: int) -> list[tuple[str, float]]:
    """The `quota` member rows closest (squared Euclidean) to the centroid:
    (clip_id, squared distance) pairs sorted by (distance, clip_id), so ties
    go to the smaller clip id; linear in the leaf size. Members are cast to
    f64 one row block at a time."""
    if quota == 0:
        return []
    ids = np.asarray([points.row_ids[r] for r in member_rows])
    c = np.asarray(centroid, dtype=np.float64)

    def ranked(rows: np.ndarray) -> np.ndarray:
        """Ranking distances of one row block; its f64 copy dies on return."""
        diff = points.data[rows].astype(np.float64)
        diff -= c
        return np.einsum("ij,ij->i", diff, diff)

    dists = np.empty(len(member_rows), dtype=np.float64)
    for s, e in row_blocks(len(member_rows)):
        dists[s:e] = ranked(member_rows[s:e])
    order = np.lexsort((ids, dists))  # distance first, then clip id

    def recorded(i: int) -> float:
        # the recorded distance is the 1-D dot product, which can differ from the
        # einsum ranking value in the last ulp; curated.jsonl carries this one
        d = points.data[member_rows[i]].astype(np.float64) - c
        return float(d @ d)

    return [(str(ids[i]), recorded(i)) for i in order[:quota]]


def curate(
    tree: ClusterTree,
    points: EmbeddingMatrix,
    fraction=Fraction(1, 10),
    mode: str = "equal",
    workers: int | None = None,
) -> CuratedSet:
    """Allocate the budget, then take the nearest members of every leaf.

    `points` must be in the same representation the tree was built over
    (normalize first when the tree's normalized flag is set). Leaf
    selections are independent; they may run on a worker pool and are
    merged in leaf-index order, so the result does not depend on the pool.
    """
    if tree.n_points != points.n_rows:
        raise CurationError(
            f"tree was built over {tree.n_points} points, store has {points.n_rows}"
        )
    centroids = tree.levels[0].centroids
    if centroids.shape[1] != points.dim:
        raise DimensionMismatch(f"tree centroids have dimension {centroids.shape[1]}, store rows have {points.dim}")
    plan = allocate_budget(tree, fraction, mode=mode)
    members = tree.children(0)

    def job(leaf: int) -> list[tuple[str, float]]:
        return _select_leaf(points, centroids[leaf], members[leaf], plan.quota(0, leaf))

    per_leaf = ordered_map(job, range(tree.level_sizes[0]), workers)
    provenance: dict[str, SelectionRecord] = {}
    for leaf, picked in enumerate(per_leaf):
        for rank, (cid, distance) in enumerate(picked):
            provenance[cid] = SelectionRecord(cid, leaf, rank, distance)
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
