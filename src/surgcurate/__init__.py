"""surgcurate: deterministic data-recipe engine for surgical video pretraining.

Capabilities: corpus accounting, bit-exact embedding stores, hierarchical
K-means curation under a top-down budget, mixed clinical/unlabeled batch
sampling with a closed-form effective ratio, versioned video-level split
manifests, and benchmark metric aggregation.
"""

# Set before the submodule imports below: manifest reads it at import time.
__version__ = "0.1.0"

import importlib

from .apportion import (
    as_fraction,
    format_points,
    largest_remainder,
    round_half_away_from_zero,
    round_to_points,
    waterfill_equal_split,
)
from .corpus import (
    CLINICAL_DOMAINS,
    ClipRecord,
    CorpusIndex,
    CorpusStats,
    Domain,
    DomainMap,
    SourceStream,
    UnknownDataset,
    VideoRecord,
    corpus_stats,
    inventory_report,
    read_corpus_manifest,
    validate_corpus,
    write_corpus_manifest,
)
from .seeding import derive_seed
from .splits import (
    EmptyDataset,
    Split,
    SplitManifest,
    SplitTier,
    generate_split_manifest,
    ratio_split,
    resolve_tier,
    verify_disjoint,
    version_manifest,
)

#: Exports of the numpy-backed layers, of the store file format and of
#: metrics -> their module, imported on first access (PEP 562), so `import
#: surgcurate` and the commands that never touch an array do not load numpy,
#: and only the commands that score or report import metrics.
_LAZY = {
    "ClusterModel": "clustering",
    "ClusterTree": "clustering",
    "DimensionMismatch": "clustering",
    "KTooLarge": "clustering",
    "build_hierarchy": "clustering",
    "kmeans": "clustering",
    "kmeanspp_init": "clustering",
    "BudgetPlan": "curation",
    "CuratedSet": "curation",
    "FractionOutOfRange": "curation",
    "allocate_budget": "curation",
    "curate": "curation",
    "DomainReport": "metrics",
    "EvalRecord": "metrics",
    "MissingDomain": "metrics",
    "MissingVariant": "metrics",
    "Prediction": "metrics",
    "ScoreTable": "metrics",
    "acc_at_1": "metrics",
    "domain_macro": "metrics",
    "emit_report": "metrics",
    "model_delta": "metrics",
    "overall_macro": "metrics",
    "prompt_delta": "metrics",
    "worst_domain": "metrics",
    "BatchMode": "mixer",
    "BatchSpec": "mixer",
    "EmptyPool": "mixer",
    "MixPolicy": "mixer",
    "PoolCursor": "mixer",
    "expected_clinical_fraction": "mixer",
    "sample_stream": "mixer",
    "write_batch_manifest": "mixer",
    "EmbeddingMatrix": "store",
    "l2_normalize": "store",
    "read_store": "store",
    "write_store": "store",
    "BadMagic": "storefile",
    "ChecksumMismatch": "storefile",
    "NonFiniteValue": "storefile",
    "SizeMismatch": "storefile",
    "ZeroRow": "storefile",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value
