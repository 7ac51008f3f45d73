"""Video-level train/val/test splits with versioned, content-hashed manifests.

Split provenance follows a strict three-tier priority: an official
benchmark partition wins over a community split, which wins over a seeded
ratio split generated here. Manifest versions are the SHA-256 of the
canonical assignment payload, so identical splits always share a version
no matter how the file was formatted. A seeded split draws its shuffle
with seeding.permutation, in pure Python, so its bytes do not depend on
the installed numpy, and no split loads numpy.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Sequence, Union

from .apportion import largest_remainder
from .artifact import SurgcurateError, read_json, read_text, write_atomic
from .corpus import ClipRecord
from .manifest import utc_now
from .seeding import derive_seed, permutation


class SplitError(SurgcurateError):
    pass


class EmptyDataset(SplitError):
    pass


class SplitSizeWarning(UserWarning):
    """Fewer videos than splits: some splits are necessarily empty."""


class SplitTier(str, Enum):
    OFFICIAL = "Official"
    COMMUNITY = "Community"
    OURS = "Ours"


class Split(str, Enum):
    TRAIN = "train"
    VAL = "val"
    TEST = "test"


DEFAULT_RATIOS: tuple[int, int, int] = (7, 2, 1)


def resolve_tier(official: bool, community: bool) -> SplitTier:
    """Official beats community beats ours; adding a community split never
    changes the outcome once an official one exists."""
    if official:
        return SplitTier.OFFICIAL
    if community:
        return SplitTier.COMMUNITY
    return SplitTier.OURS


def parse_ratios(text: str) -> tuple[int, int, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"ratios must look like 7:2:1, got {text!r}")
    ratios = tuple(int(p) for p in parts)
    if any(r < 0 for r in ratios) or sum(ratios) == 0:
        raise ValueError(f"ratios must be non-negative and sum > 0, got {text!r}")
    return ratios  # type: ignore[return-value]


def read_video_list(path: str | Path) -> list[str]:
    """The video ids of a UTF-8 list file, one per line, blank lines
    skipped, read and hashed in one pass (artifact.read_text). Lines end at
    `\n` only, as artifact.id_lines reads them. Text that is not UTF-8, or
    an id listed a second time, is a SplitError naming path:line."""
    ids: list[str] = []
    seen: set[str] = set()
    for lineno, line in enumerate(read_text(path, SplitError).split("\n"), start=1):
        vid = line.strip()
        if not vid:
            continue
        if vid in seen:
            raise SplitError(f"{path}:{lineno}: video id {vid!r} is listed twice")
        seen.add(vid)
        ids.append(vid)
    return ids


def ratio_split(
    video_ids: Sequence[str],
    ratios: Sequence[int] = DEFAULT_RATIOS,
    seed: int = 0,
    strata: Mapping[str, str] | None = None,
) -> dict[str, Split]:
    """Seeded video-level split with largest-remainder counts.

    Count ties resolve in the order Train > Val > Test. The id list is
    canonicalized by sorting, then shuffled by seeding.permutation(seed, n)
    (SeedSequence -> PCG64 -> Fisher-Yates, the draw of numpy's
    default_rng(seed).permutation written out without numpy), so the
    result is a function of the video *set*, the ratios, and the seed,
    whatever numpy version is installed. An id listed twice is a
    SplitError naming the first one repeated. The seed must be an integer
    >= 0: None or a non-integer raises TypeError, a negative seed
    ValueError.

    `strata` (optional, off by default) maps video ids to labels; each
    stratum is then split independently at the same ratios, with the
    stratum seed derived from (seed, label).
    """
    ids = sorted(video_ids)
    if not ids:
        raise EmptyDataset("cannot split zero videos")
    if len(set(ids)) != len(ids):
        seen: set[str] = set()
        for vid in video_ids:
            if vid in seen:
                raise SplitError(f"video id {vid!r} is listed twice")
            seen.add(vid)

    if strata is not None:
        missing = [v for v in ids if v not in strata]
        if missing:
            raise SplitError(f"{len(missing)} video(s) missing a stratum label, e.g. {missing[0]!r}")
        groups: dict[str, list[str]] = {}
        for vid in ids:
            groups.setdefault(str(strata[vid]), []).append(vid)
        assignment: dict[str, Split] = {}
        for label in sorted(groups):
            assignment.update(ratio_split(groups[label], ratios=ratios, seed=derive_seed(seed, label)))
        return assignment

    if len(ids) < 3:
        warnings.warn(
            f"only {len(ids)} video(s): some splits will be empty", SplitSizeWarning, stacklevel=2
        )
    n = len(ids)
    n_train, n_val, _ = split_counts_for(n, ratios)
    shuffled = [ids[i] for i in permutation(seed, n)]
    assignment = {}
    for vid in shuffled[:n_train]:
        assignment[vid] = Split.TRAIN
    for vid in shuffled[n_train : n_train + n_val]:
        assignment[vid] = Split.VAL
    for vid in shuffled[n_train + n_val :]:
        assignment[vid] = Split.TEST
    return assignment


def canonical_assignment_payload(assignment: Mapping[str, Split]) -> bytes:
    doc = {vid: assignment[vid].value for vid in sorted(assignment)}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def version_manifest(assignment: Mapping[str, Split]) -> str:
    """SHA-256 of the canonical assignment payload (64 hex chars)."""
    return hashlib.sha256(canonical_assignment_payload(assignment)).hexdigest()


@dataclass
class SplitManifest:
    dataset_id: str
    tier: SplitTier
    assignment: dict[str, Split]
    version: str
    created_at: str
    seed: int | None = None
    ratios: tuple[int, int, int] | None = None

    def counts(self) -> dict[Split, int]:
        out = {s: 0 for s in Split}
        for s in self.assignment.values():
            out[s] += 1
        return out

    def to_json_text(self) -> str:
        doc = {
            "dataset_id": self.dataset_id,
            "tier": self.tier.value,
            "assignment": {vid: self.assignment[vid].value for vid in sorted(self.assignment)},
            "version": self.version,
            "created_at": self.created_at,
        }
        if self.tier is SplitTier.OURS:
            doc["seed"] = self.seed
            doc["ratios"] = list(self.ratios) if self.ratios else None
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def save(self, path: str | Path) -> Path:
        return write_atomic(path, [self.to_json_text() + "\n"])

    @classmethod
    def from_json(cls, doc: Mapping) -> "SplitManifest":
        assignment = {vid: Split(s) for vid, s in doc["assignment"].items()}
        manifest = cls(
            dataset_id=doc["dataset_id"],
            tier=SplitTier(doc["tier"]),
            assignment=assignment,
            version=doc["version"],
            created_at=doc["created_at"],
            seed=doc.get("seed"),
            ratios=tuple(doc["ratios"]) if doc.get("ratios") else None,
        )
        expected = version_manifest(assignment)
        if manifest.version != expected:
            raise SplitError(
                f"manifest version {manifest.version} does not match contents {expected}"
            )
        return manifest

    @classmethod
    def load(cls, path: str | Path) -> "SplitManifest":
        """Read and check a manifest; SplitError when malformed or tampered with."""
        return read_json(path, SplitError, cls.from_json)


def make_manifest(
    dataset_id: str,
    assignment: Mapping[str, Split],
    tier: SplitTier,
    seed: int | None = None,
    ratios: Sequence[int] | None = None,
    created_at: str | None = None,
) -> SplitManifest:
    return SplitManifest(
        dataset_id=dataset_id,
        tier=tier,
        assignment=dict(assignment),
        version=version_manifest(assignment),
        created_at=utc_now() if created_at is None else created_at,
        seed=seed,
        ratios=tuple(ratios) if ratios is not None else None,
    )


@dataclass(frozen=True)
class SplitViolation:
    code: str
    subject: str
    message: str


AssignmentLike = Union[SplitManifest, Mapping[str, Split], Iterable[tuple[str, Split]]]


def _as_pairs(assignment: AssignmentLike) -> list[tuple[str, Split]]:
    if isinstance(assignment, SplitManifest):
        return sorted(assignment.assignment.items())
    if isinstance(assignment, Mapping):
        return sorted(assignment.items())
    return sorted(assignment)


def verify_disjoint(assignment: AssignmentLike, clips: Iterable[ClipRecord]) -> list[SplitViolation]:
    """Check that splits form a partition at the video level.

    Accepts a manifest, an assignment map, or raw (video_id, split) pairs
    (the latter lets duplicate assignments from split *lists* surface).
    Violations are data, not failures.
    """
    pairs = _as_pairs(assignment)
    violations: list[SplitViolation] = []
    seen: dict[str, Split] = {}
    flagged: set[str] = set()
    for vid, split in pairs:
        if vid in seen and vid not in flagged and seen[vid] is not split:
            violations.append(
                SplitViolation(
                    "video in multiple splits",
                    vid,
                    f"video {vid!r} appears under {seen[vid].value} and {split.value}",
                )
            )
            flagged.add(vid)
        seen.setdefault(vid, split)

    missing: set[str] = set()
    for clip in sorted(clips, key=lambda c: c.clip_id):
        if clip.video_id not in seen and clip.video_id not in missing:
            missing.add(clip.video_id)
            violations.append(
                SplitViolation(
                    "unassigned video",
                    clip.video_id,
                    f"clip {clip.clip_id!r} belongs to video {clip.video_id!r} "
                    "which has no split assignment",
                )
            )
    return violations


def generate_split_manifest(
    dataset_id: str,
    video_ids: Sequence[str],
    ratios: Sequence[int] = DEFAULT_RATIOS,
    seed: int = 0,
    created_at: str | None = None,
    strata: Mapping[str, str] | None = None,
) -> SplitManifest:
    """Tier-Ours manifest: seeded 7:2:1 (by default) video-level split."""
    assignment = ratio_split(video_ids, ratios=ratios, seed=seed, strata=strata)
    return make_manifest(
        dataset_id,
        assignment,
        SplitTier.OURS,
        seed=seed,
        ratios=ratios,
        created_at=created_at,
    )


def split_counts_for(n: int, ratios: Sequence[int] = DEFAULT_RATIOS) -> tuple[int, int, int]:
    """Largest-remainder target counts for n videos (Train > Val > Test ties)."""
    total = sum(ratios)
    train, val, test = largest_remainder([Fraction(r, total) * n for r in ratios], n)
    return train, val, test
