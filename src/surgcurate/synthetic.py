"""Deterministic synthetic fixtures: blob embeddings and corpus manifests.

Everything here is seeded and reproducible; the 2,000-clip fixture corpus
drives the end-to-end pipeline tests and demos, and the inventory fixture
mirrors the published corpus accounting so the stats module can be
regression-tested against known totals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .artifact import write_atomic
from .corpus import ClipRecord, Domain, Record, SourceStream, VideoRecord, write_corpus_manifest
from .store import EmbeddingMatrix, write_store

#: (domain, video count) cells of the public inventory fixture; the counts
#: sum to 2,790 videos carrying 39.9M frames, with the web stream adding
#: 7,745 videos and 174.6M frames for 10,535 videos and 214.5M frames total.
PUBLIC_INVENTORY = (
    (Domain.LAPAROSCOPY, 1100),
    (Domain.ENDOSCOPY, 900),
    (Domain.CATARACT, 300),
    (Domain.ROBOTIC, 400),
    (Domain.MIXED, 90),
)
PUBLIC_FRAME_TOTAL = 39_900_000
WEB_VIDEO_COUNT = 7_745
WEB_FRAME_TOTAL = 174_600_000

_DOMAIN_DATASETS = {
    Domain.LAPAROSCOPY: ["cholec80", "autolaparo", "m2cai16", "multibypass140", "heichole"],
    Domain.ENDOSCOPY: ["hyperkvasir", "colonoscopic", "kvasir-capsule", "ldpolypvideo"],
    Domain.CATARACT: ["cataract-101", "cataract-21", "cataracts-1k"],
    Domain.ROBOTIC: ["jigsaws", "sar-rarp50", "grasp", "psi-ava"],
    Domain.MIXED: ["avos"],
}


def _spread(total: int, n: int) -> list[int]:
    """Split `total` into n near-equal integer parts that sum exactly."""
    base, extras = divmod(total, n)
    return [base + (1 if i < extras else 0) for i in range(n)]


def make_blobs(
    sizes: list[int],
    dim: int,
    seed: int = 0,
    center_scale: float = 6.0,
    noise: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Well-separated Gaussian blobs; returns (points f32, labels)."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((len(sizes), dim)) * center_scale
    points = []
    labels = []
    for blob, size in enumerate(sizes):
        points.append(centers[blob] + rng.standard_normal((size, dim)) * noise)
        labels.append(np.full(size, blob, dtype=np.int64))
    return np.vstack(points).astype(np.float32), np.concatenate(labels)


def paper_scale_inventory() -> list[VideoRecord]:
    """Video-level inventory whose totals reproduce the published corpus
    accounting (10,535 videos / 214.5M frames; 2,790 public with 39.9M)."""
    records: list[VideoRecord] = []
    n_public = sum(count for _, count in PUBLIC_INVENTORY)
    public_frames = _spread(PUBLIC_FRAME_TOTAL, n_public)
    idx = 0
    for domain, count in PUBLIC_INVENTORY:
        datasets = _DOMAIN_DATASETS[domain]
        for i in range(count):
            frames = public_frames[idx]
            records.append(
                VideoRecord(
                    video_id=f"pub{idx:05d}",
                    source=SourceStream.PUBLIC_CLINICAL,
                    dataset_id=datasets[i % len(datasets)],
                    domain=domain,
                    frame_count=frames,
                    fps=Fraction(25),
                    duration_s=frames / 25.0,
                )
            )
            idx += 1
    web_frames = _spread(WEB_FRAME_TOTAL, WEB_VIDEO_COUNT)
    for i, frames in enumerate(web_frames):
        records.append(
            VideoRecord(
                video_id=f"web{i:05d}",
                source=SourceStream.WEB_EDUCATIONAL,
                dataset_id="web-edu",
                domain=Domain.MIXED,
                frame_count=frames,
                fps=Fraction(25),
                duration_s=frames / 25.0,
            )
        )
    return records


@dataclass
class FixtureCorpus:
    """A small synthetic corpus: web clips with embeddings plus a clinical core."""

    records: list[Record]
    embeddings: EmbeddingMatrix
    unlabeled_clip_ids: list[str]
    clinical_clip_ids: list[str]
    blob_labels: np.ndarray


#: Skewed blob sizes of the 2,000-clip fixture's web pool (sum 1,600).
FIXTURE_BLOB_SIZES = [560, 320, 240, 160, 128, 96, 64, 32]


def make_fixture_corpus(dim: int = 64, seed: int = 2024) -> FixtureCorpus:
    """The 2,000-clip fixture: 1,600 web clips with blob-structured
    embeddings and a 400-clip clinical core."""
    data, labels = make_blobs(FIXTURE_BLOB_SIZES, dim, seed=seed)
    n_web_clips = len(data)
    clips_per_video = 20
    frames_per_clip = 150
    records: list[Record] = []
    unlabeled_ids: list[str] = []

    n_web_videos = n_web_clips // clips_per_video
    for v in range(n_web_videos):
        vid = f"webvid{v:04d}"
        records.append(
            VideoRecord(
                video_id=vid,
                source=SourceStream.WEB_EDUCATIONAL,
                dataset_id="web-edu",
                domain=Domain.MIXED,
                frame_count=clips_per_video * frames_per_clip,
                fps=Fraction(30),
                duration_s=clips_per_video * frames_per_clip / 30.0,
            )
        )
        for c in range(clips_per_video):
            row = v * clips_per_video + c
            cid = f"webclip{row:05d}"
            unlabeled_ids.append(cid)
            records.append(
                ClipRecord(
                    clip_id=cid,
                    video_id=vid,
                    start_frame=c * frames_per_clip,
                    end_frame=(c + 1) * frames_per_clip,
                    embedding_row=row,
                )
            )

    clinical_ids: list[str] = []
    clinical_datasets = ["cholec80", "hyperkvasir", "cataract-101", "jigsaws"]
    clinical_domains = [Domain.LAPAROSCOPY, Domain.ENDOSCOPY, Domain.CATARACT, Domain.ROBOTIC]
    for v in range(40):
        vid = f"clinvid{v:04d}"
        records.append(
            VideoRecord(
                video_id=vid,
                source=SourceStream.PUBLIC_CLINICAL,
                dataset_id=clinical_datasets[v % 4],
                domain=clinical_domains[v % 4],
                frame_count=10 * frames_per_clip,
                fps=Fraction(30),
                duration_s=10 * frames_per_clip / 30.0,
            )
        )
        for c in range(10):
            cid = f"clinclip{v * 10 + c:05d}"
            clinical_ids.append(cid)
            records.append(
                ClipRecord(
                    clip_id=cid,
                    video_id=vid,
                    start_frame=c * frames_per_clip,
                    end_frame=(c + 1) * frames_per_clip,
                )
            )

    matrix = EmbeddingMatrix(data, unlabeled_ids)
    return FixtureCorpus(
        records=records,
        embeddings=matrix,
        unlabeled_clip_ids=unlabeled_ids,
        clinical_clip_ids=clinical_ids,
        blob_labels=labels,
    )


def write_fixture_corpus(
    out_dir: str | Path, dim: int = 64, seed: int = 2024, raw_blobs: bool = False
) -> dict[str, Path]:
    """Materialize the fixture corpus on disk for CLI-driven runs.

    Writes the corpus manifest, the embedding store, and the clinical pool
    id list; with raw_blobs=True it also writes the pre-ingestion form
    (raw f32 blob files plus a sidecar id list).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    fixture = make_fixture_corpus(dim=dim, seed=seed)
    paths = {
        "corpus": out_dir / "corpus.jsonl",
        "store": out_dir / "embeddings.semb",
        "clinical_ids": out_dir / "clinical_ids.txt",
    }
    write_corpus_manifest(fixture.records, paths["corpus"])
    write_store(fixture.embeddings, paths["store"])
    write_atomic(paths["clinical_ids"], ["\n".join(fixture.clinical_clip_ids) + "\n"])
    if raw_blobs:
        blob_dir = out_dir / "raw_blobs"
        blob_dir.mkdir(exist_ok=True)
        half = fixture.embeddings.n_rows // 2
        write_atomic(blob_dir / "part0.f32", [fixture.embeddings.data[:half].astype("<f4").tobytes()])
        write_atomic(blob_dir / "part1.f32", [fixture.embeddings.data[half:].astype("<f4").tobytes()])
        ids_path = write_atomic(out_dir / "raw_ids.txt", ["\n".join(fixture.embeddings.row_ids) + "\n"])
        paths["raw_blobs"] = blob_dir
        paths["raw_ids"] = ids_path
    return paths
