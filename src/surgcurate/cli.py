"""Command-line front end: ingest, cluster, curate, sample, split,
evaluate, report, stats.

Every command resolves its configuration through flags > environment
(SURGCURATE_*) > config file > documented defaults, derives its stage
seed from the single root seed, and writes a run manifest fingerprinting
its inputs and outputs next to its primary output. Exit codes: 0 ok,
1 operational error, 2 usage or config error; failures also emit one
machine-readable JSON error record on stderr.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from pathlib import Path

import click

from .apportion import as_fraction, format_points
from .clustering import ClusteringError, ClusterTree, build_hierarchy
from .config import ConfigError, resolve_config
from .corpus import (
    CorpusError,
    CorpusIndex,
    DomainMap,
    VideoRecord,
    corpus_stats,
    inventory_report,
    read_corpus_manifest,
    scale_comparison_report,
    validate_corpus,
)
from .curation import CurationError, CuratedSet, curate
from .manifest import RunManifest, manifest_path_for, utc_now
from .metrics import (
    MetricsError,
    acc_at_1,
    emit_report,
    read_predictions_csv,
    read_scores_csv,
    reference_report_tables,
    score_report_tables,
)
from .mixer import MixerError, MixPolicy, write_batch_manifest
from .seeding import derive_seed
from .splits import (
    Split,
    SplitError,
    SplitManifest,
    SplitTier,
    generate_split_manifest,
    make_manifest,
    parse_ratios,
    resolve_tier,
    verify_disjoint,
)
from .store import StoreError, ingest_raw_blobs, l2_normalize, read_store, write_store


class InputMissing(Exception):
    """A referenced input file or directory does not exist."""


_USAGE_ERRORS = (ConfigError, InputMissing)
_OPERATIONAL_ERRORS = (
    CorpusError,
    StoreError,
    ClusteringError,
    CurationError,
    MixerError,
    SplitError,
    MetricsError,
    ValueError,
)


def _emit_error(exc: Exception) -> None:
    record = {"error": type(exc).__name__, "message": str(exc)}
    click.echo(json.dumps(record, sort_keys=True), err=True)


def guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except _USAGE_ERRORS as exc:
            _emit_error(exc)
            sys.exit(2)
        except _OPERATIONAL_ERRORS as exc:
            _emit_error(exc)
            sys.exit(1)

    return wrapper


def _require(path: str | None, what: str) -> Path:
    if path is None:
        raise InputMissing(f"{what} is required")
    p = Path(path)
    if not p.exists():
        raise InputMissing(f"{what} not found: {p}")
    return p


def _effective_workers(cfg: dict) -> int:
    return cfg["workers"] if cfg["workers"] > 0 else (os.cpu_count() or 1)


def _write_run_manifest(command, cfg, seeds, inputs, outputs, started, extra=None):
    manifest = RunManifest(
        command=command,
        config={**cfg, **(extra or {})},
        seeds=seeds,
        started_at=started,
        finished_at=utc_now(),
    )
    for p in inputs:
        manifest.add_input(p)
    for p in outputs:
        manifest.add_output(p)
    manifest.save(manifest_path_for(outputs[0]))


def _read_pool_ids(path: Path) -> list[str]:
    """Clip ids from a curated JSON-lines file or a plain one-per-line list."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().strip()
    if first.startswith("{"):
        return CuratedSet.read_ids(path)
    return [ln.strip() for ln in path.read_text("utf-8").splitlines() if ln.strip()]


_config_option = click.option(
    "--config",
    "config_file",
    type=click.Path(),
    default=None,
    envvar="SURGCURATE_CONFIG",
    help="INI config file with [global] and per-command sections.",
)
_seed_option = click.option(
    "--seed", type=int, default=None, show_default="0", help="Root seed; stage seeds derive from it."
)
_workers_option = click.option(
    "--workers", type=int, default=None, show_default="0 (auto)", help="Worker threads; 0 = all cores."
)


@click.group()
@click.version_option(package_name="surgcurate")
def main() -> None:
    """Deterministic curation, sampling, split, and benchmark reporting
    for large surgical video corpora."""


@main.command()
@click.option("--blobs", type=click.Path(), required=True, help="Directory of raw little-endian f32 blobs.")
@click.option("--ids", type=click.Path(), required=True, help="Sidecar list: one clip id per row.")
@click.option("--out", type=click.Path(), required=True, help="Output store file.")
@click.option("--dim", type=int, default=None, show_default="768", help="Embedding dimension.")
@_config_option
@guarded
def ingest(blobs, ids, out, dim, config_file):
    """Build one embedding store from raw f32 blobs plus an id list."""
    started = utc_now()
    cfg = resolve_config("ingest", {"dim": dim}, config_file)
    blob_dir = _require(blobs, "blob directory")
    id_file = _require(ids, "id list")
    matrix = ingest_raw_blobs(blob_dir, id_file, cfg["dim"])
    write_store(matrix, out)
    inputs = sorted(p for p in blob_dir.iterdir() if p.is_file()) + [id_file]
    _write_run_manifest("ingest", cfg, {"root": cfg["seed"]}, inputs, [Path(out)], started)
    click.echo(f"ingested {matrix.n_rows} rows of dim {matrix.dim} -> {out}")


@main.command()
@click.option("--store", "store_path", type=click.Path(), required=True, help="Embedding store file.")
@click.option("--out", type=click.Path(), required=True, help="Output cluster tree file.")
@click.option("--levels", type=str, default=None, show_default="25000,5000,1000", help="Hierarchy sizes, finest first.")
@click.option("--tol", type=float, default=None, show_default="1e-4", help="Relative inertia improvement threshold.")
@click.option("--max-iter", "max_iter", type=int, default=None, show_default="100", help="Lloyd iteration cap per level.")
@click.option("--chunk-size", "chunk_size", type=int, default=None, show_default="4096", help="Points per work chunk.")
@click.option("--normalize/--no-normalize", default=None, show_default="normalize", help="Unit-normalize rows first.")
@_seed_option
@_workers_option
@_config_option
@guarded
def cluster(store_path, out, levels, tol, max_iter, chunk_size, normalize, seed, workers, config_file):
    """Build the multi-level K-means hierarchy over an embedding store."""
    started = utc_now()
    flags = {
        "levels": levels,
        "tol": tol,
        "max_iter": max_iter,
        "chunk_size": chunk_size,
        "normalize": normalize,
        "seed": seed,
        "workers": workers,
    }
    cfg = resolve_config("cluster", flags, config_file)
    store_file = _require(store_path, "store file")
    matrix = read_store(store_file)
    if cfg["normalize"]:
        matrix = l2_normalize(matrix)
    stage_seed = derive_seed(cfg["seed"], "cluster")
    eff_workers = _effective_workers(cfg)
    tree = build_hierarchy(
        matrix,
        cfg["levels"],
        seed=stage_seed,
        tol=cfg["tol"],
        max_iter=cfg["max_iter"],
        chunk_size=cfg["chunk_size"],
        workers=eff_workers,
        normalized=cfg["normalize"],
    )
    tree.save(out)
    _write_run_manifest(
        "cluster",
        cfg,
        {"root": cfg["seed"], "cluster": stage_seed},
        [store_file],
        [Path(out)],
        started,
        extra={"workers_effective": eff_workers},
    )
    sizes = ",".join(str(s) for s in cfg["levels"])
    click.echo(f"built {len(tree.levels)}-level tree ({sizes}) fingerprint {tree.fingerprint()[:12]} -> {out}")


@main.command("curate")
@click.option("--store", "store_path", type=click.Path(), required=True, help="Embedding store file.")
@click.option("--tree", "tree_path", type=click.Path(), required=True, help="Cluster tree file.")
@click.option("--out", type=click.Path(), required=True, help="Output curated-set JSON-lines file.")
@click.option("--fraction", type=str, default=None, show_default="0.10", help="Sampling budget fraction.")
@click.option("--mode", type=click.Choice(["equal", "proportional"]), default=None, show_default="equal", help="Budget split mode.")
@_seed_option
@_workers_option
@_config_option
@guarded
def curate_cmd(store_path, tree_path, out, fraction, mode, seed, workers, config_file):
    """Select the budgeted nearest-to-centroid subset from every leaf."""
    started = utc_now()
    cfg = resolve_config("curate", {"fraction": fraction, "mode": mode, "seed": seed, "workers": workers}, config_file)
    store_file = _require(store_path, "store file")
    tree_file = _require(tree_path, "tree file")
    matrix = read_store(store_file)
    tree = ClusterTree.load(tree_file)
    if tree.normalized:
        matrix = l2_normalize(matrix)
    curated = curate(tree, matrix, as_fraction(cfg["fraction"]), mode=cfg["mode"], workers=_effective_workers(cfg))
    curated.to_jsonl(out)
    _write_run_manifest(
        "curate", cfg, {"root": cfg["seed"]}, [store_file, tree_file], [Path(out)], started
    )
    click.echo(f"curated {len(curated)} of {matrix.n_rows} clips -> {out}")


@main.command()
@click.option("--unlabeled", type=click.Path(), required=True, help="Unlabeled pool: curated JSON-lines or plain id list.")
@click.option("--clinical", type=click.Path(), required=True, help="Clinical core: one clip id per line.")
@click.option("--out", type=click.Path(), required=True, help="Output batch manifest (JSON-lines).")
@click.option("--p-pure", "p_pure", type=str, default=None, show_default="0.15", help="Probability of a pure clinical batch.")
@click.option("--mix", type=str, default=None, show_default="0.70", help="Unlabeled share of a mixed batch.")
@click.option("--batch", type=int, default=None, show_default="64", help="Batch size.")
@click.option("--n", "n_batches", type=int, default=None, show_default="1000", help="Number of batches.")
@click.option("--interleave/--no-interleave", default=None, show_default="no-interleave", help="Deterministic schedule instead of i.i.d. draws.")
@_seed_option
@_config_option
@guarded
def sample(unlabeled, clinical, out, p_pure, mix, batch, n_batches, interleave, seed, config_file):
    """Emit a mixed-batch manifest over the two pools."""
    started = utc_now()
    flags = {"p_pure": p_pure, "mix": mix, "batch": batch, "n": n_batches, "interleave": interleave, "seed": seed}
    cfg = resolve_config("sample", flags, config_file)
    unlabeled_file = _require(unlabeled, "unlabeled pool")
    clinical_file = _require(clinical, "clinical pool")
    stage_seed = derive_seed(cfg["seed"], "sample")
    policy = MixPolicy(
        p_pure_clinical=as_fraction(cfg["p_pure"]),
        mixed_unlabeled_frac=as_fraction(cfg["mix"]),
        batch_size=cfg["batch"],
        seed=stage_seed,
    )
    write_batch_manifest(
        out,
        _read_pool_ids(unlabeled_file),
        _read_pool_ids(clinical_file),
        policy,
        cfg["n"],
        interleave=cfg["interleave"],
    )
    _write_run_manifest(
        "sample", cfg, {"root": cfg["seed"], "sample": stage_seed}, [unlabeled_file, clinical_file], [Path(out)], started
    )
    click.echo(f"sampled {cfg['n']} batches of {cfg['batch']} -> {out}")


def _load_external_assignment(path: Path) -> dict[str, Split]:
    doc = json.loads(path.read_text("utf-8"))
    return {vid: Split(split) for vid, split in doc.items()}


@main.group(invoke_without_command=True)
@click.option("--dataset", type=str, default=None, help="Dataset id the split belongs to.")
@click.option("--videos", type=click.Path(), default=None, help="Video id list, one per line.")
@click.option("--corpus", "corpus_path", type=click.Path(), default=None, help="Corpus manifest; videos of --dataset are used.")
@click.option("--official", type=click.Path(), default=None, help="Official split assignment (JSON video->split).")
@click.option("--community", type=click.Path(), default=None, help="Community split assignment (JSON video->split).")
@click.option("--ratios", type=str, default=None, show_default="7:2:1", help="Train:val:test ratio for tier-Ours splits.")
@click.option("--stratify-by", "stratify_by", type=click.Path(), default=None, help="Optional JSON video->label map; split each stratum at the same ratios.")
@click.option("--created-at", "created_at", type=str, default=None, help="Manifest timestamp override (for byte-identical replays).")
@click.option("--out", type=click.Path(), default=None, help="Output split manifest path.")
@_seed_option
@_config_option
@click.pass_context
@guarded
def split(ctx, dataset, videos, corpus_path, official, community, ratios, stratify_by, created_at, out, seed, config_file):
    """Generate a split manifest under the three-tier priority rule."""
    if ctx.invoked_subcommand is not None:
        return
    started = utc_now()
    cfg = resolve_config("split", {"ratios": ratios, "seed": seed}, config_file)
    if dataset is None:
        raise ConfigError("--dataset is required")
    if out is None:
        raise ConfigError("--out is required")

    inputs: list[Path] = []
    tier = resolve_tier(dataset, official is not None, community is not None)
    if tier is not SplitTier.OURS:
        path = _require(official if tier is SplitTier.OFFICIAL else community, f"{tier.value.lower()} split")
        inputs.append(path)
        manifest = make_manifest(dataset, _load_external_assignment(path), tier, created_at=created_at)
    else:
        if videos is not None:
            video_file = _require(videos, "video list")
            inputs.append(video_file)
            video_ids = [ln.strip() for ln in video_file.read_text("utf-8").splitlines() if ln.strip()]
        elif corpus_path is not None:
            corpus_file = _require(corpus_path, "corpus manifest")
            inputs.append(corpus_file)
            records = read_corpus_manifest(corpus_file)
            video_ids = [r.video_id for r in records if isinstance(r, VideoRecord) and r.dataset_id == dataset]
        else:
            raise ConfigError("tier-Ours splits need --videos or --corpus")
        strata = None
        if stratify_by is not None:
            strata_file = _require(stratify_by, "strata map")
            inputs.append(strata_file)
            strata = json.loads(strata_file.read_text("utf-8"))
        stage_seed = derive_seed(cfg["seed"], f"split-{dataset}")
        manifest = generate_split_manifest(
            dataset,
            video_ids,
            ratios=parse_ratios(cfg["ratios"]),
            seed=stage_seed,
            created_at=created_at,
            strata=strata,
        )
    manifest.save(out)
    seeds = {"root": cfg["seed"]}
    if manifest.seed is not None:
        seeds[f"split-{dataset}"] = manifest.seed
    _write_run_manifest("split", cfg, seeds, inputs, [Path(out)], started)
    counts = manifest.counts()
    click.echo(
        f"{dataset}: tier {manifest.tier.value}, "
        f"{counts[Split.TRAIN]}/{counts[Split.VAL]}/{counts[Split.TEST]} train/val/test, "
        f"version {manifest.version[:12]} -> {out}"
    )


@split.command("verify")
@click.option("--manifest", "manifest_path", type=click.Path(), required=True, help="Split manifest to verify.")
@click.option("--corpus", "corpus_path", type=click.Path(), required=True, help="Corpus manifest with the clips.")
@guarded
def split_verify(manifest_path, corpus_path):
    """Check video-level disjointness of a split manifest against the clips."""
    manifest_file = _require(manifest_path, "split manifest")
    corpus_file = _require(corpus_path, "corpus manifest")
    manifest = SplitManifest.load(manifest_file)
    index = CorpusIndex(read_corpus_manifest(corpus_file))
    dataset_clips = [
        clip
        for clip in index.clips.values()
        if (video := index.videos.get(clip.video_id)) is not None and video.dataset_id == manifest.dataset_id
    ]
    violations = verify_disjoint(manifest, dataset_clips)
    for v in violations:
        click.echo(json.dumps({"code": v.code, "subject": v.subject, "message": v.message}, sort_keys=True))
    if violations:
        sys.exit(1)
    click.echo(f"{manifest.dataset_id}: split is a clean video-level partition ({len(dataset_clips)} clips checked)")


@main.command()
@click.option("--predictions", type=click.Path(), required=True, help="Predictions CSV: sample_id, predicted, label.")
@click.option("--dataset", type=str, required=True, help="Dataset id for the emitted score row.")
@click.option("--model", type=str, required=True, help="Model id for the emitted score row.")
@click.option("--variant", type=str, default=None, help="Variant tag (e.g. P1/P2).")
@click.option("--out", type=click.Path(), default=None, help="Write a scores CSV row here.")
@_config_option
@guarded
def evaluate(predictions, dataset, model, variant, out, config_file):
    """Score a predictions file (Acc@1) and optionally emit a scores row."""
    started = utc_now()
    cfg = resolve_config("evaluate", {}, config_file)
    pred_file = _require(predictions, "predictions file")
    records = read_predictions_csv(pred_file)
    acc = acc_at_1(records)
    click.echo(f"{dataset}/{model}" + (f"/{variant}" if variant else "") + f": Acc@1 {format_points(acc)} ({len(records)} samples)")
    if out:
        header_needed = not Path(out).exists()
        with open(out, "a", encoding="utf-8", newline="") as fh:
            if header_needed:
                fh.write("dataset,model,variant,acc\n")
            fh.write(f"{dataset},{model},{variant or ''},{format_points(acc)}\n")
        _write_run_manifest("evaluate", cfg, {"root": cfg["seed"]}, [pred_file], [Path(out)], started)


@main.command()
@click.option("--scores", "scores_paths", type=click.Path(), multiple=True, help="Scores CSV (dataset, model, variant, acc); repeatable.")
@click.option("--domain-map", "domain_map_path", type=click.Path(), default=None, help="Domain mapping JSON override.")
@click.option("--format", "fmt", type=click.Choice(["markdown", "csv"]), default=None, show_default="markdown", help="Report format.")
@click.option("--reference", is_flag=True, default=False, help="Render the shipped reference tables instead.")
@click.option("--out", type=click.Path(), default=None, help="Write the report here instead of stdout.")
@_config_option
@guarded
def report(scores_paths, domain_map_path, fmt, reference, out, config_file):
    """Render benchmark tables: per-dataset scores, domain macros, deltas."""
    started = utc_now()
    cfg = resolve_config("report", {"format": fmt}, config_file)
    domain_map = DomainMap.from_file(_require(domain_map_path, "domain map")) if domain_map_path else DomainMap.default()

    if reference:
        tables = reference_report_tables()
        inputs: list[Path] = []
    else:
        if not scores_paths:
            raise ConfigError("--scores is required unless --reference is given")
        inputs = [_require(p, "scores file") for p in scores_paths]
        tables = score_report_tables([rec for path in inputs for rec in read_scores_csv(path)], domain_map)

    text = emit_report(tables, format=cfg["format"])
    if out:
        Path(out).write_text(text, encoding="utf-8")
        _write_run_manifest("report", cfg, {"root": cfg["seed"]}, inputs, [Path(out)], started)
        click.echo(f"report -> {out}")
    else:
        click.echo(text, nl=False)


@main.command()
@click.option("--corpus", "corpus_path", type=click.Path(), required=True, help="Corpus manifest (JSON-lines).")
@click.option("--scale-comparison/--no-scale-comparison", "scale_comparison", default=None, show_default="no-scale-comparison", help="Append the shipped scale-comparison table.")
@click.option("--out", type=click.Path(), default=None, help="Write the inventory report here instead of stdout.")
@_config_option
@guarded
def stats(corpus_path, scale_comparison, out, config_file):
    """Inventory report: videos, clips, frames per source and domain."""
    started = utc_now()
    cfg = resolve_config("stats", {"scale_comparison": scale_comparison}, config_file)
    corpus_file = _require(corpus_path, "corpus manifest")
    records = read_corpus_manifest(corpus_file)
    validation = validate_corpus(records)
    result = corpus_stats(records)
    text = inventory_report(result)
    if cfg["scale_comparison"]:
        text += "\n" + scale_comparison_report(result)
    if validation.violations:
        text += f"\n{len(validation.violations)} validation violation(s); run records through validate_corpus for detail.\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
        _write_run_manifest("stats", cfg, {"root": cfg["seed"]}, [corpus_file], [Path(out)], started)
        click.echo(f"stats -> {out}")
    else:
        click.echo(text, nl=False)


if __name__ == "__main__":
    main()
