"""Document-type classification and engagement analytics toolkit.

Classifies scholarly documents into Research / Slides / Thesis from four
lightweight features, reproduces the reference baselines and evaluation
protocol, and analyzes search/recommender click logs with query-type
click-through metrics.
"""

__version__ = "0.1.0"

from .ingest import (
    DOC_TYPES,
    FEATURE_IDS,
    DocType,
    DocumentRecord,
    FeatureVector,
    count_words,
    extract_features,
    parse_records,
)
from .labeling import (
    DatasetSplit,
    LabeledExample,
    balanced_sample,
    rule_label,
    sample_size,
    stratified_split,
)
from .stats import (
    TransformSpec,
    derive_thresholds,
    impute_f1,
    quantile,
    tukey_filter,
)
from .models import (
    ModelArtifact,
    load_model,
    predict,
    save_model,
    train,
)
from .evaluation import (
    ablation,
    cross_validate,
    evaluate,
    sweep,
)
from .synthetic import REFERENCE_BOUNDS, generate_synthetic
from .engagement import (
    ImpressionSet,
    LogEvent,
    build_impression_sets,
    engagement_report,
    qtctr,
    rqtctr,
)
