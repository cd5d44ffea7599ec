"""Shared fixtures: reference bounds, toy datasets, event builders, and the
hypothesis profile."""

from __future__ import annotations

import base64
import json
import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings

from doctype.engagement import Click, Impression, LogEvent
from doctype.ingest import FEATURE_IDS, DocType, FeatureVector
from doctype.labeling import LabeledExample
from doctype.models import FALLBACK_CLASS, THRESHOLD_TEST_ORDER, ModelArtifact
from doctype.models.baselines import ThresholdBaselinePredictor

# Every run draws the same examples and keeps no example database, so a
# tier-1 run tests the same cases on every tree and machine.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

# Published per-class feature bounds (2.5th / 97.5th percentiles after
# outlier removal), frozen here independently of the library copy.
REFERENCE_CELLS = {
    "Research": {"f1": (1.0, 5.0), "f2": (1226.825, 19151.425), "f3": (3.0, 41.0), "f4": (208.2297, 926.8950)},
    "Slides": {"f1": (1.0, 8.0), "f2": (93.6, 7339.8), "f3": (1.0, 74.575), "f4": (8.0625, 722.9375)},
    "Thesis": {"f1": (1.0, 1.0), "f2": (15184.0, 210720.0), "f3": (47.0, 478.0), "f4": (197.7846, 529.9571)},
}


@pytest.fixture
def reference_table() -> dict:
    """``REFERENCE_CELLS`` as a stored threshold table."""
    bounds = {label: {fid: list(cell) for fid, cell in cells.items()}
              for label, cells in REFERENCE_CELLS.items()}
    return {"format_version": 1, "quantile_lo": 0.025, "quantile_hi": 0.975, "bounds": bounds}


def cell(table: dict, doc_type: DocType, fid: str) -> tuple[float, float]:
    """The (lower, upper) bounds of one cell of a stored threshold table."""
    return tuple(table["bounds"][doc_type.label][fid])


def threshold_model(table: dict) -> ModelArtifact:
    """A baseline-threshold model holding the stored ``table``, shaped as
    ``train`` stores one; its f1 fill (always 1) is for rows without f1."""
    parameters = {"table": table, "fallback": FALLBACK_CLASS.label}
    identity = {"kind": "identity", "mean": None, "scale": None}
    fill = {"coef": [1.0, 0.0, 0.0, 0.0], "lo": 1.0, "hi": 1.0}
    return ModelArtifact("baseline-threshold", identity, parameters, seed=0, imputer=fill)


def threshold_table(model: ModelArtifact) -> dict:
    """The bounds a baseline-threshold model's predictor tests, rebuilt from
    its ``lower`` and ``upper`` arrays as a stored table with the version
    and quantile levels its parameters store."""
    predictor = ThresholdBaselinePredictor(model.parameters, model.features)
    bounds = {
        t.label: {fid: [lo, hi] for fid, lo, hi in zip(FEATURE_IDS, lows, highs)}
        for t, lows, highs in zip(THRESHOLD_TEST_ORDER, predictor.lower.tolist(), predictor.upper.tolist())
    }
    return {**model.parameters["table"], "bounds": bounds}


#: (Research f2 values, quantile levels, Research f2 bounds): cells whose
#: finite values of opposite sign near the float limit have a difference
#: that overflows, in the Tukey fences' Q1 (the fences are then infinite
#: and keep every value) or in an interpolated bound
OVERFLOWING_CELLS = [
    ([-1.7e308, 1.7e308, 1.7e308], (0.025, 0.975), (-1.5299999999999998e308, 1.7e308)),
    ([-1e308, -1e308, 1e308, 1e308], (0.025, 0.5), (-1e308, 0.0)),
]


def overflow_rows(research_f2: list[float]) -> list[LabeledExample]:
    """Research rows with the given f2 values, and three plain rows per other class."""
    return [make_example(DocType.RESEARCH, f2=v, doc_id=f"r{i}") for i, v in enumerate(research_f2)] + [
        make_example(t, doc_id=f"{t.label}{i}") for t in (DocType.SLIDES, DocType.THESIS) for i in range(3)
    ]


def _rewritten(change):
    """A kNN ``train_x`` corruption: the base64 of ``change(raw bytes)``."""
    return lambda text: base64.b64encode(change(base64.b64decode(text))).decode("ascii")


#: (name, corrupt(train_x)): kNN ``train_x`` values that must not load. A
#: character changed to another one of the base64 alphabet gives other
#: bytes, which load when their values are finite, as a changed digit in a
#: JSON number did.
KNN_TRAIN_X_CORRUPTIONS = [
    ("character outside the alphabet", lambda text: text[:5] + "*" + text[6:]),
    ("url-safe character", lambda text: text[:5] + "-" + text[6:]),
    ("dropped character", lambda text: text[:5] + text[6:]),
    ("padding added", lambda text: text + "="),
    ("padding before data", lambda text: "AA==" + text),
    ("non-ASCII character", lambda text: text[:5] + "\u00e9" + text[6:]),
    ("list", lambda text: [[0.0] * 4]),
    ("number", lambda text: 1.0),
    ("null", lambda text: None),
    ("NaN", _rewritten(lambda raw: raw[:-8] + struct.pack("<d", math.nan))),
    ("+inf", _rewritten(lambda raw: struct.pack("<d", math.inf) + raw[8:])),
    ("-inf", _rewritten(lambda raw: raw[:8] + struct.pack("<d", -math.inf) + raw[16:])),
    ("one value more", _rewritten(lambda raw: raw + raw[:8])),
    ("one value fewer", _rewritten(lambda raw: raw[:-8])),
    ("one row fewer", _rewritten(lambda raw: raw[: len(raw) // 2])),
    ("no bytes", lambda text: ""),
]


def make_example(
    label: DocType,
    f1: float | None = 1,
    f2: float = 1000,
    f3: float = 10,
    doc_id: str = "",
) -> LabeledExample:
    f4 = f2 / f3 if f3 else 0.0
    return LabeledExample(FeatureVector(f1, f2, f3, f4), label, doc_id)


def toy_dataset(n_per_class: int = 30, seed: int = 0) -> list[LabeledExample]:
    """Separable three-class set: page/word scales differ by class."""
    rng = np.random.default_rng(seed)
    out = []
    scales = {
        DocType.RESEARCH: (3, 5000, 15),
        DocType.SLIDES: (4, 600, 20),
        DocType.THESIS: (1, 70000, 200),
    }
    i = 0
    for label, (f1, f2_scale, f3_scale) in scales.items():
        for _ in range(n_per_class):
            f2 = float(np.rint(f2_scale * rng.uniform(0.7, 1.3)))
            f3 = float(max(1, np.rint(f3_scale * rng.uniform(0.7, 1.3))))
            out.append(make_example(label, f1, f2, f3, doc_id=f"toy-{i}"))
            i += 1
    return out


def blank_f1(data: list[LabeledExample], share: float, seed: int) -> list[LabeledExample]:
    """``data`` with f1 blanked on each row with probability ``share``."""
    rng = np.random.default_rng(seed)
    return [
        replace(ex, features=replace(ex.features, f1_authors=None)) if rng.random() < share else ex
        for ex in data
    ]


def make_event(
    engine: str,
    query_id: str,
    impression_types: list[DocType],
    clicked_positions: list[int] = (),
) -> LogEvent:
    impressions = [
        Impression(f"{query_id}-d{i}", i + 1, t) for i, t in enumerate(impression_types)
    ]
    clicks = [Click(f"{query_id}-d{p - 1}", p) for p in clicked_positions]
    return LogEvent(engine, query_id, impressions, clicks)


def random_events(n: int, seed: int) -> list[LogEvent]:
    rng = np.random.default_rng(seed)
    events = []
    for i in range(n):
        engine = "search" if rng.random() < 0.5 else "recommender"
        size = int(rng.integers(1, 11 if engine == "search" else 6))
        types = [DocType(int(v)) for v in rng.integers(0, 3, size)]
        clicked = [p + 1 for p in range(size) if rng.random() < 0.15]
        events.append(make_event(engine, f"q{i}", types, clicked))
    return events


#: what the pages of ``write_seeded_records`` are drawn from: words, a
#: hyphenated word, a number and chunks that are no word
RECORD_WORDS = ("alpha", "beta", "gamma-ray", "delta.", "42", "x", "--", "(", "...")
#: a page of non-ASCII text: accented and CJK letters, a vulgar fraction
#: (alphanumeric), an em dash (no word) and an ideographic space
NON_ASCII_PAGE = "Über die Größe — naïve\u3000café 数据 ½ ¿?"


def write_seeded_records(directory, n: int = 40, seed: int = 7, words: int = 60):
    """Write ``n`` seeded records to ``directory / "records.jsonl"`` as UTF-8
    and return its path. Records are Research, Slides (a "presentation"
    title) and Thesis (a doctoral-thesis subject) in turn; a Slides record
    has twice the pages of a Research one and a quarter of the words a
    page, a Thesis four times the pages. Beside them the file holds, one
    each: a byte order mark on line 1, a malformed line (after the first
    ``n // 2`` records), a last line repeating the first id with other pages,
    an authorless record (the second), a zero-page record (the third) and
    a non-ASCII page (the fourth record's first)."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        kind = i % 3
        pages = [
            " ".join(rng.choice(RECORD_WORDS, int(rng.integers(0, words + 1)) // (1, 4, 1)[kind]))
            for _ in range(int(rng.integers(1, 7)) * (1, 2, 4)[kind])
        ]
        rows.append({
            "id": f"doc-{i}",
            "authors": [f"author {j}" for j in range(int(rng.integers(1, 5)))],
            "title": ("A study", "Slides of a presentation", "On a theory")[kind] + f" {i}",
            "subjects": (["article"], [], ["info:eu-repo/semantics/doctoralThesis"])[kind],
            "pages": pages,
        })
    rows[1]["authors"] = []
    rows[2]["pages"] = []
    rows[3]["pages"][0] = NON_ASCII_PAGE
    lines = [json.dumps(row, ensure_ascii=False) for row in rows]
    lines.insert(n // 2, '{"id": "cut", "authors": ["a", ')
    lines.append(json.dumps(dict(rows[0], pages=["other pages", "than the first copy"])))
    path = directory / "records.jsonl"
    path.write_bytes(("\ufeff" + "".join(line + "\n" for line in lines)).encode("utf-8"))
    return path


def write_click_log(directory, n: int = 60, seed: int = 7):
    """Write ``random_events(n, seed)`` as a click log and the predictions
    file that types it; return both paths. Every third event's impressions
    carry no doc_type and resolve through the predictions file. Four lines
    among the events are rejected, one each: a malformed line, an unknown
    engine, a duplicate position and a click on an unimpressed doc."""
    lines, predictions = [], []
    for i, event in enumerate(random_events(n, seed)):
        impressions = []
        for imp in event.impressions:
            impressions.append({"doc_id": imp.doc_id, "position": imp.position})
            if i % 3:
                impressions[-1]["doc_type"] = imp.doc_type.label
            else:
                predictions.append({"doc_id": imp.doc_id, "doc_type": imp.doc_type.label, "scores": {}})
        clicks = [{"doc_id": c.doc_id, "position": c.position} for c in event.clicks]
        lines.append(json.dumps({"engine": event.engine, "query_id": event.query_id,
                                 "impressions": impressions, "clicks": clicks}))
    good = {"engine": "search", "query_id": "bad",
            "impressions": [{"doc_id": "a", "position": 1, "doc_type": "Slides"},
                            {"doc_id": "b", "position": 2, "doc_type": "Thesis"}],
            "clicks": [{"doc_id": "a", "position": 1}]}
    lines.insert(n // 5, '{"engine": "search", "query_id": "cut", "impressions": [')
    lines.insert(2 * n // 5, json.dumps(dict(good, engine="web")))
    duplicate = [good["impressions"][0], dict(good["impressions"][1], position=1)]
    lines.insert(3 * n // 5, json.dumps(dict(good, impressions=duplicate)))
    lines.insert(4 * n // 5, json.dumps(dict(good, clicks=[{"doc_id": "c", "position": 2}])))
    log, typed = directory / "log.jsonl", directory / "predictions.jsonl"
    log.write_text("".join(line + "\n" for line in lines))
    typed.write_text("".join(json.dumps(p) + "\n" for p in predictions))
    return log, typed
