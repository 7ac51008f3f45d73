"""surgcurate: deterministic data-recipe engine for surgical video pretraining.

Capabilities: corpus accounting, bit-exact embedding stores, hierarchical
K-means curation under a top-down budget, mixed clinical/unlabeled batch
sampling with a closed-form effective ratio, versioned video-level split
manifests, and benchmark metric aggregation.
"""

# Set before the submodule imports below: manifest reads it at import time.
__version__ = "0.1.0"

from .apportion import (
    as_fraction,
    format_points,
    largest_remainder,
    round_half_away_from_zero,
    round_to_points,
    waterfill_equal_split,
)
from .clustering import (
    ClusterModel,
    ClusterTree,
    DimensionMismatch,
    KTooLarge,
    build_hierarchy,
    kmeans,
    kmeanspp_init,
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
from .curation import (
    BudgetPlan,
    CuratedSet,
    FractionOutOfRange,
    allocate_budget,
    curate,
)
from .metrics import (
    DomainReport,
    EvalRecord,
    MissingDomain,
    MissingVariant,
    Prediction,
    ScoreTable,
    acc_at_1,
    domain_macro,
    emit_report,
    model_delta,
    overall_macro,
    prompt_delta,
    worst_domain,
)
from .mixer import (
    BatchMode,
    BatchSpec,
    EmptyPool,
    MixPolicy,
    PoolCursor,
    expected_clinical_fraction,
    plan_batch,
    sample_stream,
    write_batch_manifest,
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
from .store import (
    BadMagic,
    ChecksumMismatch,
    EmbeddingMatrix,
    NonFiniteValue,
    SizeMismatch,
    ZeroRow,
    l2_normalize,
    read_store,
    write_store,
)
