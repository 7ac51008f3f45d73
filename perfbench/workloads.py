"""Workload definitions shared by the driver, the input generator and the
traced stage runner.

This module imports nothing heavy: the driver imports it, and the driver
must stay small because a child process's peak RSS starts from the
high-water mark of the process that spawned it.
"""

from __future__ import annotations

from pathlib import Path

#: Seed whose artifact hashes are pinned in reference.json.
DEFAULT_SEED = 1

#: Root seed handed to the program. Only the generated inputs depend on the
#: workload seed; the program's own configuration is the same on every run.
PROGRAM_SEED = 7
WORKERS = 2
FRACTION = "0.10"
BATCH = 64
SPLIT_DATASET = "web-edu"
CREATED_AT = "2026-01-01T00:00:00+00:00"
MODEL = "bench-model"
EVAL_DATASET = "cholec80"

#: rows/dim: the embedding store; levels: hierarchy sizes; cluster_flags:
#: extra `cluster` flags; batches: `sample --n`; predictions: rows of the
#: predictions CSV given to `evaluate` (0 skips evaluate and report).
WORKLOADS: dict[str, dict] = {
    # Seeding-bound: k-means++ makes one full pass per centroid, so level 0
    # (k=256) costs 256 passes while Lloyd converges in a handful.
    "fine-tree": {
        "kind": "blobs",
        "rows": 4_000,
        "dim": 768,
        "blobs": 64,
        "levels": "256,64,16",
        "cluster_flags": [],
        "batches": 2_000,
        "clinical_videos": 40,
        "predictions": 0,
    },
    # Scan- and memory-bound: a large store read, hashed and normalised by
    # both `cluster` and `curate`, and a fixed Lloyd budget of eight passes
    # (`--tol 0`) over overlapping clusters, so the work does not depend on
    # where a given seed happens to converge.
    "wide-scan": {
        "kind": "overlap",
        "rows": 20_000,
        "dim": 768,
        "blobs": 64,
        "levels": "8,2",
        "cluster_flags": ["--tol", "0", "--max-iter", "8"],
        "batches": 2_000,
        "clinical_videos": 40,
        "predictions": 0,
    },
    # Record-bound: the paper-scale inventory (10,535 videos x 5 clips) as
    # JSON lines, many short embedding rows, and a write-heavy batch stream.
    "recipe-records": {
        "kind": "inventory",
        "dim": 32,
        "blobs": 40,
        "levels": "32,4",
        "cluster_flags": [],
        "batches": 10_000,
        "clips_per_video": 5,
        "predictions": 50_000,
    },
}

#: Sizes used by the benchmark's own smoke test.
TINY: dict[str, dict] = {
    "fine-tree": {"rows": 400, "dim": 16, "blobs": 8, "levels": "16,4,2", "batches": 50},
    "wide-scan": {"rows": 600, "dim": 16, "blobs": 8, "levels": "8,2", "batches": 50},
    "recipe-records": {"dim": 8, "levels": "8,2", "batches": 100, "predictions": 500, "videos": 60},
}


def spec_for(name: str, tiny: bool = False) -> dict:
    spec = dict(WORKLOADS[name])
    if tiny:
        spec.update(TINY[name])
    spec["name"] = name
    return spec


def commands(spec: dict, work: Path) -> list[tuple[str, list[str]]]:
    """The workload's command sequence as (label, surgcurate argv) pairs."""
    i, o = work / "inputs", work / "out"
    seed = ["--seed", str(PROGRAM_SEED)]
    workers = ["--workers", str(WORKERS)]
    cmds = [
        ("ingest", ["ingest", "--blobs", str(i / "blobs"), "--ids", str(i / "ids.txt"),
                    "--dim", str(spec["dim"]), "--out", str(o / "store.semb")]),
        ("cluster", ["cluster", "--store", str(o / "store.semb"), "--levels", spec["levels"],
                     *spec["cluster_flags"], *seed, *workers, "--out", str(o / "tree.sctree")]),
        ("curate", ["curate", "--store", str(o / "store.semb"), "--tree", str(o / "tree.sctree"),
                    "--fraction", FRACTION, *seed, *workers, "--out", str(o / "curated.jsonl")]),
        ("sample", ["sample", "--unlabeled", str(o / "curated.jsonl"), "--clinical", str(i / "clinical_ids.txt"),
                    "--batch", str(BATCH), "--n", str(spec["batches"]), *seed, "--out", str(o / "batches.jsonl")]),
        ("split", ["split", "--dataset", SPLIT_DATASET, "--corpus", str(i / "corpus.jsonl"),
                   "--created-at", CREATED_AT, *seed, "--out", str(o / "split.json")]),
        ("split-verify", ["split", "verify", "--manifest", str(o / "split.json"), "--corpus", str(i / "corpus.jsonl")]),
        ("stats", ["stats", "--corpus", str(i / "corpus.jsonl"), "--scale-comparison", "--out", str(o / "stats.md")]),
    ]
    if spec["predictions"]:
        cmds += [
            ("evaluate", ["evaluate", "--predictions", str(i / "predictions.csv"), "--dataset", EVAL_DATASET,
                          "--model", MODEL, "--out", str(o / "scores.csv")]),
            ("report", ["report", "--scores", str(o / "scores.csv"), "--scores", str(i / "ref_scores.csv"),
                        "--format", "markdown", "--out", str(o / "report.md")]),
        ]
    return cmds


#: Artifacts whose SHA-256 must repeat exactly, keyed by the command that writes them.
HASHED = {
    "ingest": "store.semb",
    "cluster": "tree.sctree",
    "curate": "curated.jsonl",
    "sample": "batches.jsonl",
    "split": "split.json",
}
