"""Command-line front end: ingest, cluster, curate, sample, split,
evaluate, report, stats.

Every command resolves its configuration through flags > environment
(SURGCURATE_*) > config file > the defaults in config.SCHEMAS, derives its
stage seed from the single root seed, and, when it writes an output file,
writes a run manifest fingerprinting its inputs and outputs next to it.
Exit codes: 0 ok, 1 operational error, 2 usage or config error; failures
also emit one machine-readable JSON error record on stderr.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import click

from . import __version__
from .apportion import as_fraction, format_points
from .artifact import SurgcurateError, forget_digests, read_json, write_atomic
from .config import SCHEMAS, ConfigError, Option, resolve_config
from .corpus import (
    CorpusIndex,
    DomainMap,
    corpus_stats,
    inventory_report,
    read_corpus_manifest,
    scale_comparison_report,
    validate_corpus,
)
from .manifest import RunManifest, manifest_path_for, utc_now
from .seeding import derive_seed
from .splits import (
    Split,
    SplitError,
    SplitManifest,
    SplitTier,
    generate_split_manifest,
    make_manifest,
    parse_ratios,
    read_video_list,
    resolve_tier,
    verify_disjoint,
)

#: Names of the store, numpy-backed and metrics layers -> their module,
#: imported on first access (PEP 562), so ingest (storefile), split, split
#: verify, stats, evaluate and report run without numpy, and only evaluate
#: and report import metrics. Command bodies read them as attributes of this
#: module (`_cli.read_store`), so a name rebound on the module takes effect.
#: No command calls write_store; it stays resolvable here for the callers
#: that rebind it by name.
_LAZY = {
    "ingest_raw_blobs": "storefile",
    "write_store": "store",
    "read_store": "store",
    "l2_normalize": "store",
    "build_hierarchy": "clustering",
    "ClusterTree": "clustering",
    "curate": "curation",
    "read_pool_ids": "curation",
    "MixPolicy": "mixer",
    "write_batch_manifest": "mixer",
    "acc_at_1": "metrics",
    "emit_report": "metrics",
    "read_predictions_csv": "metrics",
    "read_scores_csv": "metrics",
    "reference_report_tables": "metrics",
    "score_report_tables": "metrics",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __package__), name)
    globals()[name] = value
    return value


_cli = sys.modules[__name__]


class InputMissing(Exception):
    """A referenced input file or directory does not exist."""


_USAGE_ERRORS = (ConfigError, InputMissing)
_OPERATIONAL_ERRORS = (SurgcurateError, ValueError, OSError)


def _emit_error(exc: Exception) -> None:
    record = {"error": type(exc).__name__, "message": str(exc)}
    click.echo(json.dumps(record, sort_keys=True), err=True)


def _require(path: str | None, what: str) -> Path:
    if path is None:
        raise InputMissing(f"{what} is required")
    p = Path(path)
    if not p.exists():
        raise InputMissing(f"{what} not found: {p}")
    return p


def _effective_workers(cfg: dict) -> int:
    return cfg["workers"] if cfg["workers"] > 0 else (os.cpu_count() or 1)


@dataclass
class Provenance:
    """What a command body reports for its run manifest."""

    output: str | Path
    inputs: list[Path]
    seeds: dict[str, int] = field(default_factory=dict)  # stage seeds; the root seed is always recorded
    extra: dict = field(default_factory=dict)  # recorded next to the resolved config


def _schema_flag(opt: Option) -> click.Option:
    """The flag for one config option. Values other than bools stay raw
    strings, so resolve_config parses a flag like an env or file value."""
    name = opt.name.replace("_", "-")
    if opt.kind == "bool":
        decl, metavar = f"--{name}/--no-{name}", None
        shown = name if opt.default else f"no-{name}"
    else:
        decl = f"--{name}"
        metavar = f"[{'|'.join(opt.choices)}]" if opt.choices else opt.kind.upper()
        shown = ",".join(map(str, opt.default)) if opt.kind == "levels" else str(opt.default)
    return click.Option([decl, opt.name], default=None, metavar=metavar, help=f"{opt.help}  [default: {shown}]")


def _command(group: click.Group, name: str, flags: tuple[str, ...] = (), configured: bool = True, **attrs):
    """Register the decorated body as command `name` of `group`.

    A configured command gets a flag for every option of SCHEMAS[name],
    then for the [global] options named in `flags`, then --config. The wrapper
    resolves the config, calls body(cfg, **params), writes
    <output>.run.json when the body returns a Provenance, and maps errors
    to exit codes with a JSON record on stderr.
    """
    options = [*SCHEMAS[name], *(o for o in SCHEMAS["global"] if o.name in flags)] if configured else []

    def decorate(body):
        @functools.wraps(body)
        def run(config_file=None, **params):
            if click.get_current_context().invoked_subcommand is not None:
                return  # a group invoked for a subcommand runs only that
            started = utc_now()
            forget_digests()  # the manifest takes only the digests this body notes
            try:
                cfg = None
                if configured:
                    cfg = resolve_config(name, {o.name: params.pop(o.name) for o in options}, config_file)
                ran = body(cfg, **params)
                if ran is None:
                    return
                manifest = RunManifest(
                    command=name,
                    config={**cfg, **ran.extra},
                    seeds={"root": cfg["seed"], **ran.seeds},
                    started_at=started,
                    finished_at=utc_now(),
                )
                for p in ran.inputs:
                    manifest.add_input(p)
                manifest.add_output(ran.output)
                manifest.save(manifest_path_for(ran.output))
            except _USAGE_ERRORS as exc:
                _emit_error(exc)
                sys.exit(2)
            except _OPERATIONAL_ERRORS as exc:
                _emit_error(exc)
                sys.exit(1)

        cmd = group.command(name, **attrs)(run)
        if configured:
            cmd.params += [_schema_flag(o) for o in options]
            cmd.params.append(
                click.Option(
                    ["--config", "config_file"],
                    type=click.Path(),
                    envvar="SURGCURATE_CONFIG",
                    help="INI config file with [global] and per-command sections.",
                )
            )
        return cmd

    return decorate


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Deterministic curation, sampling, split, and benchmark reporting
    for large surgical video corpora."""


@_command(main, "ingest")
@click.option("--blobs", type=click.Path(), required=True, help="Directory of raw little-endian f32 blobs.")
@click.option("--ids", type=click.Path(), required=True, help="Sidecar list: one clip id per row.")
@click.option("--out", type=click.Path(), required=True, help="Output store file.")
def ingest(cfg, blobs, ids, out):
    """Build one embedding store from raw f32 blobs plus an id list."""
    blob_dir = _require(blobs, "blob directory")
    id_file = _require(ids, "id list")
    n_rows = _cli.ingest_raw_blobs(blob_dir, id_file, cfg["dim"], out)
    click.echo(f"ingested {n_rows} rows of dim {cfg['dim']} -> {out}")
    return Provenance(out, sorted(p for p in blob_dir.iterdir() if p.is_file()) + [id_file])


@_command(main, "cluster", ("seed", "workers"))
@click.option("--store", "store_path", type=click.Path(), required=True, help="Embedding store file.")
@click.option("--out", type=click.Path(), required=True, help="Output cluster tree file.")
def cluster(cfg, store_path, out):
    """Build the multi-level K-means hierarchy over an embedding store."""
    store_file = _require(store_path, "store file")
    matrix = _cli.read_store(store_file)
    if cfg["normalize"]:
        matrix = _cli.l2_normalize(matrix)
    stage_seed = derive_seed(cfg["seed"], "cluster")
    eff_workers = _effective_workers(cfg)
    tree = _cli.build_hierarchy(
        matrix,
        cfg["levels"],
        seed=stage_seed,
        tol=cfg["tol"],
        max_iter=cfg["max_iter"],
        workers=eff_workers,
        normalized=cfg["normalize"],
    )
    tree.save(out)
    sizes = ",".join(str(s) for s in cfg["levels"])
    click.echo(f"built {len(tree.levels)}-level tree ({sizes}) fingerprint {tree.fingerprint()[:12]} -> {out}")
    return Provenance(out, [store_file], {"cluster": stage_seed}, {"workers_effective": eff_workers})


@_command(main, "curate", ("seed", "workers"))
@click.option("--store", "store_path", type=click.Path(), required=True, help="Embedding store file.")
@click.option("--tree", "tree_path", type=click.Path(), required=True, help="Cluster tree file.")
@click.option("--out", type=click.Path(), required=True, help="Output curated-set JSON-lines file.")
def curate_cmd(cfg, store_path, tree_path, out):
    """Select the budgeted nearest-to-centroid subset from every leaf."""
    store_file = _require(store_path, "store file")
    tree_file = _require(tree_path, "tree file")
    tree = _cli.ClusterTree.load(tree_file)
    curated = _cli.curate(tree, store_file, as_fraction(cfg["fraction"]), mode=cfg["mode"])
    curated.to_jsonl(out)
    click.echo(f"curated {len(curated)} of {tree.n_points} clips -> {out}")
    return Provenance(out, [store_file, tree_file])


@_command(main, "sample", ("seed",))
@click.option("--unlabeled", type=click.Path(), required=True, help="Unlabeled pool: curated JSON-lines or plain id list.")
@click.option("--clinical", type=click.Path(), required=True, help="Clinical core: one clip id per line.")
@click.option("--out", type=click.Path(), required=True, help="Output batch manifest (JSON-lines).")
def sample(cfg, unlabeled, clinical, out):
    """Emit a mixed-batch manifest over the two pools."""
    unlabeled_file = _require(unlabeled, "unlabeled pool")
    clinical_file = _require(clinical, "clinical pool")
    stage_seed = derive_seed(cfg["seed"], "sample")
    policy = _cli.MixPolicy(
        p_pure_clinical=as_fraction(cfg["p_pure"]),
        mixed_unlabeled_frac=as_fraction(cfg["mix"]),
        batch_size=cfg["batch"],
        seed=stage_seed,
    )
    _cli.write_batch_manifest(
        out,
        _cli.read_pool_ids(unlabeled_file),
        _cli.read_pool_ids(clinical_file),
        policy,
        cfg["n"],
        interleave=cfg["interleave"],
    )
    click.echo(f"sampled {cfg['n']} batches of {cfg['batch']} -> {out}")
    return Provenance(out, [unlabeled_file, clinical_file], {"sample": stage_seed})


def _read_video_map(path: Path, value) -> dict:
    """A JSON object mapping video id to value(v); SplitError when malformed."""
    return read_json(path, SplitError, lambda doc: {vid: value(v) for vid, v in doc.items()})


@_command(main, "split", ("seed",), cls=click.Group, invoke_without_command=True)
@click.option("--dataset", type=str, default=None, help="Dataset id the split belongs to.")
@click.option("--videos", type=click.Path(), default=None, help="Video id list, one per line.")
@click.option("--corpus", "corpus_path", type=click.Path(), default=None, help="Corpus manifest; videos of --dataset are used.")
@click.option("--official", type=click.Path(), default=None, help="Official split assignment (JSON video->split).")
@click.option("--community", type=click.Path(), default=None, help="Community split assignment (JSON video->split).")
@click.option("--stratify-by", "stratify_by", type=click.Path(), default=None, help="Optional JSON video->label map; split each stratum at the same ratios.")
@click.option("--created-at", "created_at", type=str, default=None, help="Manifest timestamp override (for byte-identical replays).")
@click.option("--out", type=click.Path(), default=None, help="Output split manifest path.")
def split(cfg, dataset, videos, corpus_path, official, community, stratify_by, created_at, out):
    """Generate a split manifest under the three-tier priority rule."""
    if dataset is None:
        raise ConfigError("--dataset is required")
    if out is None:
        raise ConfigError("--out is required")

    inputs: list[Path] = []
    tier = resolve_tier(official is not None, community is not None)
    if tier is not SplitTier.OURS:
        path = _require(official if tier is SplitTier.OFFICIAL else community, f"{tier.value.lower()} split")
        inputs.append(path)
        manifest = make_manifest(dataset, _read_video_map(path, Split), tier, created_at=created_at)
    else:
        if videos is not None:
            video_file = _require(videos, "video list")
            inputs.append(video_file)
            video_ids = read_video_list(video_file)
        elif corpus_path is not None:
            corpus_file = _require(corpus_path, "corpus manifest")
            inputs.append(corpus_file)
            videos = read_corpus_manifest(corpus_file, clips=False)
            video_ids = [v.video_id for v in videos if v.dataset_id == dataset]
        else:
            raise ConfigError("tier-Ours splits need --videos or --corpus")
        strata = None
        if stratify_by is not None:
            strata_file = _require(stratify_by, "strata map")
            inputs.append(strata_file)
            strata = _read_video_map(strata_file, str)
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
    counts = manifest.counts()
    click.echo(
        f"{dataset}: tier {manifest.tier.value}, "
        f"{counts[Split.TRAIN]}/{counts[Split.VAL]}/{counts[Split.TEST]} train/val/test, "
        f"version {manifest.version[:12]} -> {out}"
    )
    seeds = {} if manifest.seed is None else {f"split-{dataset}": manifest.seed}
    return Provenance(out, inputs, seeds)


@_command(split, "verify", configured=False)
@click.option("--manifest", "manifest_path", type=click.Path(), required=True, help="Split manifest to verify.")
@click.option("--corpus", "corpus_path", type=click.Path(), required=True, help="Corpus manifest with the clips.")
def split_verify(_cfg, manifest_path, corpus_path):
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


@_command(main, "evaluate")
@click.option("--predictions", type=click.Path(), required=True, help="Predictions CSV: sample_id, predicted, label.")
@click.option("--dataset", type=str, required=True, help="Dataset id for the emitted score row.")
@click.option("--model", type=str, required=True, help="Model id for the emitted score row.")
@click.option("--variant", type=str, default=None, help="Variant tag (e.g. P1/P2).")
@click.option("--out", type=click.Path(), default=None, help="Write a scores CSV (header and this row) here.")
def evaluate(cfg, predictions, dataset, model, variant, out):
    """Score a predictions file (Acc@1) and optionally emit a scores row."""
    pred_file = _require(predictions, "predictions file")
    records = _cli.read_predictions_csv(pred_file)
    acc = _cli.acc_at_1(records)
    click.echo(f"{dataset}/{model}" + (f"/{variant}" if variant else "") + f": Acc@1 {format_points(acc)} ({len(records)} samples)")
    if not out:
        return None
    write_atomic(out, [f"dataset,model,variant,acc\n{dataset},{model},{variant or ''},{format_points(acc)}\n"])
    return Provenance(out, [pred_file])


@_command(main, "report")
@click.option("--scores", "scores_paths", type=click.Path(), multiple=True, help="Scores CSV (dataset, model, variant, acc); repeatable.")
@click.option("--domain-map", "domain_map_path", type=click.Path(), default=None, help="Domain mapping JSON override.")
@click.option("--reference", is_flag=True, default=False, help="Render the shipped reference tables instead.")
@click.option("--out", type=click.Path(), default=None, help="Write the report here instead of stdout.")
def report(cfg, scores_paths, domain_map_path, reference, out):
    """Render benchmark tables: per-dataset scores, domain macros, deltas."""
    domain_map = DomainMap.from_file(_require(domain_map_path, "domain map")) if domain_map_path else DomainMap.default()

    if reference:
        tables = _cli.reference_report_tables()
        inputs: list[Path] = []
    else:
        if not scores_paths:
            raise ConfigError("--scores is required unless --reference is given")
        inputs = [_require(p, "scores file") for p in scores_paths]
        tables = _cli.score_report_tables([rec for path in inputs for rec in _cli.read_scores_csv(path)], domain_map)

    text = _cli.emit_report(tables, format=cfg["format"])
    if not out:
        click.echo(text, nl=False)
        return None
    write_atomic(out, [text])
    click.echo(f"report -> {out}")
    return Provenance(out, inputs)


@_command(main, "stats")
@click.option("--corpus", "corpus_path", type=click.Path(), required=True, help="Corpus manifest (JSON-lines).")
@click.option("--out", type=click.Path(), default=None, help="Write the inventory report here instead of stdout.")
def stats(cfg, corpus_path, out):
    """Inventory report: videos, clips, frames per source and domain."""
    corpus_file = _require(corpus_path, "corpus manifest")
    index = CorpusIndex(read_corpus_manifest(corpus_file))
    validation = validate_corpus(index)
    result = corpus_stats(index)
    text = inventory_report(result)
    if cfg["scale_comparison"]:
        text += "\n" + scale_comparison_report(result)
    if validation.violations:
        text += f"\n{len(validation.violations)} validation violation(s); run records through validate_corpus for detail.\n"
    if not out:
        click.echo(text, nl=False)
        return None
    write_atomic(out, [text])
    click.echo(f"stats -> {out}")
    return Provenance(out, [corpus_file])


if __name__ == "__main__":
    main()
