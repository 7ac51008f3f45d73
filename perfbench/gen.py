"""Generate one workload's inputs from its seed.

Usage: python3 perfbench/gen.py --workload NAME --seed N --out DIR [--tiny]

Runs as its own process so the driver never holds the generated data.
Writes DIR/blobs/part*.f32 and DIR/ids.txt (raw input of `ingest`),
DIR/corpus.jsonl, DIR/clinical_ids.txt, for record workloads
DIR/predictions.csv and DIR/ref_scores.csv, and DIR/expected.json with
the values the driver checks the program's outputs against.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from workloads import BATCH, FRACTION, MODEL, WORKLOADS, spec_for  # noqa: E402

from surgcurate.apportion import as_fraction, format_points, round_half_away_from_zero  # noqa: E402
from surgcurate.corpus import ClipRecord, Domain, DomainMap, SourceStream, VideoRecord, write_corpus_manifest  # noqa: E402
from surgcurate.mixer import MixPolicy, expected_clinical_fraction, mixed_batch_counts  # noqa: E402
from surgcurate.splits import split_counts_for  # noqa: E402
from surgcurate.synthetic import paper_scale_inventory  # noqa: E402

PHASES = ["preparation", "calot", "clipping", "dissection", "packaging", "cleaning", "retraction"]


def _sizes(weights: np.ndarray, n: int) -> np.ndarray:
    sizes = np.floor(weights / weights.sum() * n).astype(np.int64)
    sizes[: n - int(sizes.sum())] += 1
    return sizes


def blob_points(spec: dict, rng: np.random.Generator) -> np.ndarray:
    """Skewed, well-separated blobs, rows in blob order."""
    n, dim, k = spec["rows"], spec["dim"], spec["blobs"]
    sizes = _sizes(1.0 / np.arange(1, k + 1) ** 0.8, n)
    centers = rng.standard_normal((k, dim), dtype=np.float32) * 6.0
    labels = np.repeat(np.arange(k), sizes)
    return centers[labels] + rng.standard_normal((n, dim), dtype=np.float32)


def overlap_points(spec: dict, rng: np.random.Generator) -> np.ndarray:
    """Power-law-sized clusters whose spread exceeds their separation."""
    n, dim, k = spec["rows"], spec["dim"], spec["blobs"]
    weights = 1.0 / np.arange(1, k + 1)
    labels = rng.choice(k, size=n, p=weights / weights.sum())
    centers = rng.standard_normal((k, dim), dtype=np.float32) * np.float32(2.8 / np.sqrt(dim))
    out = rng.standard_normal((n, dim), dtype=np.float32)
    out *= np.float32(0.1)
    out += centers[labels]
    return out


def write_blobs(out: Path, data: np.ndarray, ids: list[str], parts: int = 4) -> None:
    blob_dir = out / "blobs"
    blob_dir.mkdir(parents=True, exist_ok=True)
    for p, chunk in enumerate(np.array_split(data, parts)):
        (blob_dir / f"part{p}.f32").write_bytes(chunk.astype("<f4", copy=False).tobytes())
    (out / "ids.txt").write_text("\n".join(ids) + "\n", encoding="utf-8")


def clip_records(video: VideoRecord, n_clips: int, rng: np.random.Generator, prefix: str) -> list[ClipRecord]:
    lengths = rng.integers(16, 65, size=n_clips)
    starts = rng.integers(0, video.frame_count - 64, size=n_clips)
    return [
        ClipRecord(f"{prefix}c{c:02d}", video.video_id, int(s), int(s + ln))
        for c, (s, ln) in enumerate(zip(starts, lengths))
    ]


def store_workload(spec: dict, rng: np.random.Generator, out: Path) -> dict:
    """fine-tree / wide-scan: a store of web clips plus a small clinical core."""
    n = spec["rows"]
    data = blob_points(spec, rng) if spec["kind"] == "blobs" else overlap_points(spec, rng)
    # ingest order differs from clip-id order
    perm = rng.permutation(n)
    data = data[perm]
    ids = [f"webclip{p:07d}" for p in perm]
    write_blobs(out, data, ids)
    del data
    row_of = {cid: row for row, cid in enumerate(ids)}

    records, clinical = [], []
    per_video = 20
    for v in range(n // per_video):
        video = VideoRecord(f"webvid{v:05d}", SourceStream.WEB_EDUCATIONAL, "web-edu", Domain.MIXED,
                            per_video * 150, Fraction(30), per_video * 150 / 30.0)
        records.append(video)
        for c in range(per_video):
            cid = f"webclip{v * per_video + c:07d}"
            records.append(ClipRecord(cid, video.video_id, c * 150, (c + 1) * 150, row_of[cid]))
    datasets = [("cholec80", Domain.LAPAROSCOPY), ("hyperkvasir", Domain.ENDOSCOPY),
                ("cataract-101", Domain.CATARACT), ("jigsaws", Domain.ROBOTIC)]
    for v in range(spec["clinical_videos"]):
        dataset, domain = datasets[v % len(datasets)]
        video = VideoRecord(f"clinvid{v:04d}", SourceStream.PUBLIC_CLINICAL, dataset, domain,
                            1500, Fraction(30), 50.0)
        records.append(video)
        for clip in clip_records(video, 10, rng, video.video_id):
            records.append(clip)
            clinical.append(clip.clip_id)
    write_corpus_manifest(records, out / "corpus.jsonl")
    return {"rows": n, "web_videos": n // per_video, "web_clips": n // per_video * per_video, "clinical": clinical,
            "videos": sum(isinstance(r, VideoRecord) for r in records), "clips": n + len(clinical)}


def inventory_workload(spec: dict, rng: np.random.Generator, out: Path) -> dict:
    """recipe-records: the paper-scale inventory, 20 clips per video."""
    videos = paper_scale_inventory()
    if "videos" in spec:
        half = spec["videos"] // 2
        videos = videos[:half] + videos[-half:]
    records, web_ids, clinical = [], [], []
    for video in videos:
        records.append(video)
        web = video.source is SourceStream.WEB_EDUCATIONAL
        for clip in clip_records(video, spec["clips_per_video"], rng, video.video_id):
            if web:
                clip = ClipRecord(clip.clip_id, clip.video_id, clip.start_frame, clip.end_frame, len(web_ids))
                web_ids.append(clip.clip_id)
            else:
                clinical.append(clip.clip_id)
            records.append(clip)
    write_corpus_manifest(records, out / "corpus.jsonl")

    n, dim, k = len(web_ids), spec["dim"], spec["blobs"]
    centers = rng.standard_normal((k, dim), dtype=np.float32) * 3.0
    labels = rng.integers(0, k, size=n)
    write_blobs(out, centers[labels] + rng.standard_normal((n, dim), dtype=np.float32), web_ids)

    m = spec["predictions"]
    label = rng.integers(0, len(PHASES), size=m)
    wrong = rng.random(m) >= 0.7
    predicted = np.where(wrong, (label + rng.integers(1, len(PHASES), size=m)) % len(PHASES), label)
    with open(out / "predictions.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("sample_id,predicted,label\n")
        fh.writelines(f"s{i:07d},{PHASES[p]},{PHASES[t]}\n" for i, (p, t) in enumerate(zip(predicted, label)))
    correct = int(m - wrong.sum())

    # Mixed-domain datasets are left out: the overall macro needs exactly
    # the four clinical domains
    datasets = sorted(ds for ds, domain in DomainMap.default().items() if domain is not Domain.MIXED)
    with open(out / "ref_scores.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("dataset,model,variant,acc\n")
        for model in range(12):
            for ds in datasets:
                fh.write(f"{ds},ref{model:02d},,{rng.uniform(20, 95):.2f}\n")
                if model < 3:
                    for variant in ("P1", "P2"):
                        fh.write(f"{ds},ref{model:02d},{variant},{rng.uniform(20, 95):.2f}\n")
    web_videos = sum(1 for v in videos if v.source is SourceStream.WEB_EDUCATIONAL)
    return {"rows": n, "web_videos": web_videos, "web_clips": web_videos * spec["clips_per_video"],
            "clinical": clinical, "acc": format_points(Fraction(100 * correct, m)),
            "videos": len(videos), "clips": len(records) - len(videos)}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    spec = spec_for(args.workload, args.tiny)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([args.seed, sorted(WORKLOADS).index(args.workload)])
    made = (inventory_workload if spec["kind"] == "inventory" else store_workload)(spec, rng, out)
    clinical = made.pop("clinical")
    (out / "clinical_ids.txt").write_text("\n".join(clinical) + "\n", encoding="utf-8")

    policy = MixPolicy(batch_size=BATCH)
    n_unlabeled, n_clinical = mixed_batch_counts(policy)
    expected = {
        **made,
        "payload_bytes": made["rows"] * spec["dim"] * 4,
        "curated": round_half_away_from_zero(as_fraction(FRACTION) * made["rows"]),
        "batches": spec["batches"],
        "batch_size": BATCH,
        "mixed": [n_unlabeled, n_clinical],
        "p_pure": str(policy.p_pure_clinical),
        "clinical_share": str(expected_clinical_fraction(policy)),
        "split_counts": list(split_counts_for(made["web_videos"])),
        "model": MODEL,
        "env": environment(),
    }
    (out / "expected.json").write_text(json.dumps(expected, sort_keys=True, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
