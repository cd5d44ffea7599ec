"""Scalar reference rule for the ``baseline-threshold`` model kind.

One vector at a time: classes are tested most-restrictive-first (Thesis,
Slides, then Research), and the vector takes the first class whose bounds
contain all four of its features, inclusive at both ends; a vector that no
class contains falls back to Research. The table is in its stored form,
as ``stats.derive_thresholds`` returns it. ``ThresholdBaselinePredictor``
scores whole matrices and must give every row the class this rule gives.
"""

from __future__ import annotations

from doctype.ingest import FEATURE_IDS, DocType, FeatureVector

TEST_ORDER = (DocType.THESIS, DocType.SLIDES, DocType.RESEARCH)
FALLBACK = DocType.RESEARCH


def contains(table: dict, doc_type: DocType, fv: FeatureVector) -> bool:
    """True when all four features fall inside this class's bounds."""
    for fid in FEATURE_IDS:
        value = fv.get(fid)
        if value is None:
            return False
        lo, hi = table["bounds"][doc_type.label][fid]
        if not lo <= value <= hi:
            return False
    return True


def reference_threshold_predict(table: dict, fv: FeatureVector) -> DocType:
    """First class whose four bounds all contain the features, else Research."""
    for doc_type in TEST_ORDER:
        if contains(table, doc_type, fv):
            return doc_type
    return FALLBACK
