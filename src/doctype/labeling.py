"""Rule-based labels, sample sizing, and class-balanced stratified splits."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Iterable, Mapping

import numpy as np

from .errors import ShortageError, SplitError
from .ingest import DOC_TYPES, FEATURE_IDS, DocType, DocumentRecord, FeatureVector
from .ioutils import finite_number, read_json_lines_strict

THESIS_KEYWORDS = ("thesis", "dissertation")
SLIDES_KEYWORDS = ("slides", "presentation")


@dataclass(frozen=True)
class LabeledExample:
    """A feature vector with its ground-truth document type."""

    features: FeatureVector
    label: DocType
    id: str


@dataclass
class DatasetSplit:
    """Validation set plus a k-fold partition of the remaining pool.

    ``train`` is the full non-validation pool; ``test_folds`` partitions
    it. Folds and validation are disjoint and jointly cover the input.
    """

    train: list[LabeledExample]
    test_folds: list[list[LabeledExample]]
    validation: list[LabeledExample]
    seed: int


def rule_label(record: DocumentRecord) -> DocType:
    """Label by case-insensitive substring rules; subjects take precedence."""
    subjects = [s.lower() for s in record.subjects]
    if any(kw in s for s in subjects for kw in THESIS_KEYWORDS):
        return DocType.THESIS
    title = record.title.lower()
    if any(kw in title for kw in SLIDES_KEYWORDS):
        return DocType.SLIDES
    return DocType.RESEARCH


def sample_size(z: float, p_hat: float, c: float) -> int:
    """Required sample count for confidence score z, proportion p, interval c."""
    if c <= 0:
        raise ValueError(f"confidence interval must be positive, got {c}")
    if not 0.0 <= p_hat <= 1.0:
        raise ValueError(f"proportion must be in [0, 1], got {p_hat}")
    return math.ceil(z * z * p_hat * (1.0 - p_hat) / (c * c))


def largest_remainder_counts(total: int, proportions: Mapping[DocType, float]) -> dict[DocType, int]:
    """Apportion ``total`` across classes, hitting it exactly.

    Floors the quotas, then hands remaining units to the largest
    fractional remainders (ties resolved by DocType order).
    """
    quotas = {t: total * proportions.get(t, 0.0) for t in DOC_TYPES}
    counts = {t: int(math.floor(q)) for t, q in quotas.items()}
    leftover = total - sum(counts.values())
    by_remainder = sorted(DOC_TYPES, key=lambda t: (-(quotas[t] - counts[t]), t))
    for t in by_remainder[:leftover]:
        counts[t] += 1
    return counts


def balanced_sample(
    examples: list[LabeledExample],
    target_total: int,
    proportions: Mapping[DocType, float],
    seed: int,
) -> list[LabeledExample]:
    """Seeded per-class subsample with largest-remainder class counts."""
    if target_total < 0:
        raise ValueError(f"target_total must be nonnegative, got {target_total}")
    total_p = sum(proportions.values())
    if abs(total_p - 1.0) > 1e-9:
        raise ValueError(f"proportions must sum to 1, got {total_p}")
    counts = largest_remainder_counts(target_total, proportions)
    by_class = {t: [ex for ex in examples if ex.label == t] for t in DOC_TYPES}
    for t in DOC_TYPES:
        if counts[t] > len(by_class[t]):
            raise ShortageError(t, counts[t], len(by_class[t]))
    rng = np.random.default_rng(seed)
    sampled: list[LabeledExample] = []
    for t in DOC_TYPES:
        pool = by_class[t]
        chosen = rng.permutation(len(pool))[: counts[t]]
        sampled.extend(pool[i] for i in chosen)
    return sampled


def stratified_split(
    examples: list[LabeledExample],
    k_folds: int,
    validation_fraction: float,
    seed: int,
) -> DatasetSplit:
    """Draw a stratified validation set, then deal the rest into k folds."""
    if k_folds < 2:
        raise ValueError(f"k_folds must be at least 2, got {k_folds}")
    if not 0.0 <= validation_fraction < 1.0:
        raise ValueError(
            f"validation_fraction must be in [0, 1), got {validation_fraction}"
        )
    rng = np.random.default_rng(seed)
    by_class = {t: [ex for ex in examples if ex.label == t] for t in DOC_TYPES}
    permuted = {
        t: [members[i] for i in rng.permutation(len(members))]
        for t, members in by_class.items()
    }

    val_target = round(validation_fraction * len(examples))
    class_fractions = {
        t: len(members) / len(examples) if examples else 0.0
        for t, members in by_class.items()
    }
    val_counts = largest_remainder_counts(val_target, class_fractions)
    for t in DOC_TYPES:
        if val_counts[t] > len(permuted[t]):
            raise SplitError(
                f"class {t.label}: validation draw of {val_counts[t]} exceeds "
                f"{len(permuted[t])} members"
            )

    validation: list[LabeledExample] = []
    pools: dict[DocType, list[LabeledExample]] = {}
    for t in DOC_TYPES:
        validation.extend(permuted[t][: val_counts[t]])
        pools[t] = permuted[t][val_counts[t] :]

    for t in DOC_TYPES:
        if by_class[t] and len(pools[t]) < k_folds:
            raise SplitError(
                f"class {t.label} has {len(pools[t])} members after validation, "
                f"fewer than {k_folds} folds"
            )

    folds: list[list[LabeledExample]] = [[] for _ in range(k_folds)]
    for t in DOC_TYPES:
        for i, ex in enumerate(pools[t]):
            folds[i % k_folds].append(ex)

    held_out = {ex.id for ex in validation}
    train = [ex for ex in examples if ex.id not in held_out]
    return DatasetSplit(train=train, test_folds=folds, validation=validation, seed=seed)


# ---------------------------------------------------------------------------
# Interchange format: line-delimited {id, f1, f2, f3, f4, label} objects,
# f1 null when unknown; label omitted for plain feature files.
# ---------------------------------------------------------------------------


def example_to_row(example: LabeledExample) -> dict:
    row = feature_row(example.id, example.features)
    row["label"] = example.label.label
    return row


def feature_row(doc_id: str, fv: FeatureVector) -> dict:
    return {
        "id": doc_id,
        "f1": fv.f1_authors,
        "f2": fv.f2_total_words,
        "f3": fv.f3_pages,
        "f4": fv.f4_words_per_page,
    }


def row_to_example(row: Mapping) -> LabeledExample:
    """Check and convert a labeled row: a string id, a known label, and finite
    numbers for f1-f4 (f1 may be null); anything else raises ValueError."""
    if not isinstance(row["id"], str):
        raise ValueError(f"id must be a string, got {row['id']!r}")
    for fid in FEATURE_IDS:
        value = row[fid]
        if not finite_number(value) and not (fid == "f1" and value is None):
            raise ValueError(f"{fid} must be a finite number, got {value!r}")
    return LabeledExample(row_to_features(row), DocType.from_label(row["label"]), row["id"])


def row_to_features(row: Mapping) -> FeatureVector:
    return FeatureVector(
        f1_authors=row["f1"],
        f2_total_words=row["f2"],
        f3_pages=row["f3"],
        f4_words_per_page=row["f4"],
    )


def write_examples(sink: IO[str], examples: Iterable[LabeledExample]) -> None:
    for ex in examples:
        sink.write(json.dumps(example_to_row(ex), sort_keys=True) + "\n")


def read_examples(source: IO[str] | Iterable[str]) -> list[LabeledExample]:
    """Read labeled rows; a malformed line raises IngestError naming it."""
    return read_json_lines_strict(source, row_to_example)
