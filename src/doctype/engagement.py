"""Impression sets and click-through metrics for search/recommender logs.

Each query's served results form one event; clicks on d distinct document
types derive max(1, d) impression sets from it. Clickless sets carry no
type and count only in denominators. Impression shares for the
regularised metric are computed over the derived sets, so the identity
rqtctr = qtctr * impression-share holds exactly by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from typing import IO, Iterable, Mapping

from .errors import EventValidationError, UndefinedRateError
from .ingest import DOC_TYPES, DocType
from .ioutils import read_json_lines

ENGINES = ("search", "recommender")
VARIANTS = ("any", "top")
REPORT_FORMAT_VERSION = 1


@dataclass(slots=True)
class Impression:
    doc_id: str
    position: int
    doc_type: DocType


@dataclass(slots=True)
class Click:
    doc_id: str
    position: int


@dataclass(slots=True)
class LogEvent:
    engine: str
    query_id: str
    impressions: list[Impression]
    clicks: list[Click]


@dataclass(slots=True)
class ImpressionSet:
    """One derived accounting unit: a query's impressions plus the clicked type."""

    query_id: str
    impressions: list[Impression]
    assigned_type: DocType | None
    clicked_top: bool


def validate_event(event: LogEvent) -> None:
    """Enforce unique 1-based positions and click->impression references."""
    if event.engine not in ENGINES:
        raise EventValidationError(
            f"event {event.query_id}: unknown engine {event.engine!r}"
        )
    seen_positions = set()
    impressed = set()
    for imp in event.impressions:
        if imp.position < 1:
            raise EventValidationError(
                f"event {event.query_id}: position {imp.position} is not 1-based"
            )
        if imp.position in seen_positions:
            raise EventValidationError(
                f"event {event.query_id}: duplicate position {imp.position}"
            )
        seen_positions.add(imp.position)
        impressed.add((imp.doc_id, imp.position))
    for click in event.clicks:
        if (click.doc_id, click.position) not in impressed:
            raise EventValidationError(
                f"event {event.query_id}: click on unimpressed "
                f"({click.doc_id!r}, {click.position})"
            )


def _sets_for_event(event: LogEvent) -> list[ImpressionSet]:
    type_by_ref = {(i.doc_id, i.position): i.doc_type for i in event.impressions}
    clicked: dict[DocType, bool] = {}
    for click in event.clicks:
        doc_type = type_by_ref[(click.doc_id, click.position)]
        top = clicked.get(doc_type, False) or click.position == 1
        clicked[doc_type] = top
    if not clicked:
        return [ImpressionSet(event.query_id, list(event.impressions), None, False)]
    return [
        ImpressionSet(event.query_id, list(event.impressions), doc_type, top)
        for doc_type, top in sorted(clicked.items())
    ]


@dataclass
class BuildResult:
    sets: list[ImpressionSet]
    n_rejected: int
    errors: list[str] = field(default_factory=list)


def build_impression_sets(events: Iterable[LogEvent]) -> BuildResult:
    """Derive one set per clicked type (or one untyped set); count bad events."""
    sets: list[ImpressionSet] = []
    rejected = 0
    errors: list[str] = []
    for event in events:
        try:
            validate_event(event)
        except EventValidationError as exc:
            rejected += 1
            errors.append(str(exc))
            continue
        sets.extend(_sets_for_event(event))
    return BuildResult(sets, rejected, errors)


def ctr(clicks: int, impressions: int) -> float:
    """Plain click-through rate; undefined without impressions."""
    if impressions <= 0:
        raise UndefinedRateError("CTR is undefined for zero impressions")
    return clicks / impressions


def qtctr(sets: list[ImpressionSet], t: DocType, variant: str = "any") -> float:
    """Fraction of all sets assigned type t (optionally top-position only)."""
    _check_variant(variant)
    if not sets:
        raise UndefinedRateError("QTCTR is undefined for an empty set list")
    hits = sum(
        1
        for s in sets
        if s.assigned_type == t and (variant == "any" or s.clicked_top)
    )
    return hits / len(sets)


def rqtctr(sets: list[ImpressionSet], t: DocType, variant: str = "any") -> float:
    """QTCTR scaled by the type's share of impressions across all sets."""
    _check_variant(variant)
    total = sum(len(s.impressions) for s in sets)
    if total <= 0:
        raise UndefinedRateError("RQTCTR is undefined without impressions")
    of_type = sum(
        1 for s in sets for imp in s.impressions if imp.doc_type == t
    )
    return qtctr(sets, t, variant) * (of_type / total)


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")


@dataclass
class EngineReport:
    """Counts and rates for one engine; rates are None when undefined."""

    n_events: int = 0
    n_rejected: int = 0
    n_sets: int = 0
    set_impressions_total: int = 0
    set_impressions: dict[DocType, int] = field(
        default_factory=lambda: {t: 0 for t in DOC_TYPES}
    )
    sets_any: dict[DocType, int] = field(
        default_factory=lambda: {t: 0 for t in DOC_TYPES}
    )
    sets_top: dict[DocType, int] = field(
        default_factory=lambda: {t: 0 for t in DOC_TYPES}
    )
    event_impressions: dict[DocType, int] = field(
        default_factory=lambda: {t: 0 for t in DOC_TYPES}
    )
    event_clicks: dict[DocType, int] = field(
        default_factory=lambda: {t: 0 for t in DOC_TYPES}
    )

    def qtctr(self, t: DocType, variant: str = "any") -> float:
        _check_variant(variant)
        if self.n_sets == 0:
            raise UndefinedRateError("QTCTR is undefined for an empty engine")
        hits = self.sets_any[t] if variant == "any" else self.sets_top[t]
        return hits / self.n_sets

    def impression_share(self, t: DocType) -> float:
        if self.set_impressions_total == 0:
            raise UndefinedRateError("impression share undefined without impressions")
        return self.set_impressions[t] / self.set_impressions_total

    def rqtctr(self, t: DocType, variant: str = "any") -> float:
        return self.qtctr(t, variant) * self.impression_share(t)

    def ctr(self, t: DocType) -> float | None:
        if self.event_impressions[t] == 0:
            return None
        return self.event_clicks[t] / self.event_impressions[t]

    def to_dict(self) -> dict:
        by_type = {}
        for t in DOC_TYPES:
            by_type[t.label] = {
                "sets_any": self.sets_any[t],
                "sets_top": self.sets_top[t],
                "set_impressions": self.set_impressions[t],
                "event_impressions": self.event_impressions[t],
                "event_clicks": self.event_clicks[t],
                "ctr": self.ctr(t),
                "qtctr_any": self.qtctr(t, "any"),
                "qtctr_top": self.qtctr(t, "top"),
                "rqtctr_any": self.rqtctr(t, "any"),
                "rqtctr_top": self.rqtctr(t, "top"),
            }
        return {
            "n_events": self.n_events,
            "n_rejected": self.n_rejected,
            "n_sets": self.n_sets,
            "set_impressions_total": self.set_impressions_total,
            "types": by_type,
        }


@dataclass
class EngagementReport:
    engines: dict[str, EngineReport]
    n_rejected_unknown_engine: int = 0

    @property
    def n_rejected(self) -> int:
        return self.n_rejected_unknown_engine + sum(
            r.n_rejected for r in self.engines.values()
        )

    def to_dict(self) -> dict:
        return {
            "format_version": REPORT_FORMAT_VERSION,
            "engines": {
                name: report.to_dict()
                for name, report in sorted(self.engines.items())
                if report.n_sets > 0
            },
            "rejected": {
                name: report.n_rejected for name, report in sorted(self.engines.items())
            },
            "rejected_unknown_engine": self.n_rejected_unknown_engine,
        }

    def human(self) -> str:
        lines = []
        header = (
            f"{'engine':<12}{'type':<10}{'ctr':>10}{'qtctr/any':>12}"
            f"{'qtctr/top':>12}{'rqtctr/any':>13}{'rqtctr/top':>13}"
        )
        for name in sorted(self.engines):
            report = self.engines[name]
            if report.n_sets == 0:
                continue
            lines.append(
                f"{name}: {report.n_events} events, {report.n_sets} sets, "
                f"{report.set_impressions_total} impressions, "
                f"{report.n_rejected} rejected"
            )
            lines.append(header)
            for t in DOC_TYPES:
                type_ctr = report.ctr(t)
                lines.append(
                    f"{'':<12}{t.label:<10}"
                    f"{type_ctr if type_ctr is not None else float('nan'):>10.5f}"
                    f"{report.qtctr(t, 'any'):>12.5f}{report.qtctr(t, 'top'):>12.5f}"
                    f"{report.rqtctr(t, 'any'):>13.6f}{report.rqtctr(t, 'top'):>13.6f}"
                )
            lines.append("")
        return "\n".join(lines).rstrip() + "\n"


def engagement_report(events: Iterable[LogEvent]) -> EngagementReport:
    """Fold events into per-engine counts; division happens only at read time."""
    engines: dict[str, EngineReport] = {}
    unknown_engine = 0
    for event in events:
        if event.engine not in ENGINES:
            unknown_engine += 1
            continue
        report = engines.setdefault(event.engine, EngineReport())
        try:
            validate_event(event)
        except EventValidationError:
            report.n_rejected += 1
            continue
        report.n_events += 1
        for imp in event.impressions:
            report.event_impressions[imp.doc_type] += 1
        type_by_ref = {(i.doc_id, i.position): i.doc_type for i in event.impressions}
        for click in event.clicks:
            report.event_clicks[type_by_ref[(click.doc_id, click.position)]] += 1
        for derived in _sets_for_event(event):
            report.n_sets += 1
            report.set_impressions_total += len(derived.impressions)
            for imp in derived.impressions:
                report.set_impressions[imp.doc_type] += 1
            if derived.assigned_type is not None:
                report.sets_any[derived.assigned_type] += 1
                if derived.clicked_top:
                    report.sets_top[derived.assigned_type] += 1
    return EngagementReport(engines, n_rejected_unknown_engine=unknown_engine)


# ---------------------------------------------------------------------------
# Log interchange: line-delimited {engine, query_id, impressions, clicks}
# objects; impression doc_type may be resolved through a predictions map.
# ---------------------------------------------------------------------------


@dataclass
class LogParseResult:
    events: list[LogEvent]
    n_rejected: int
    errors: list[str] = field(default_factory=list)


def read_log_events(
    source: IO[str] | Iterable[str],
    predictions: Mapping[str, DocType] | None = None,
) -> LogParseResult:
    """Parse a log stream; lines that cannot be resolved are counted."""
    events, errors = read_json_lines(source, partial(_parse_event, predictions))
    return LogParseResult(events, len(errors), errors)


def _parse_event(predictions: Mapping[str, DocType] | None, obj) -> LogEvent:
    impressions = []
    for imp in obj["impressions"]:
        doc_id, position = _reference(imp)
        if "doc_type" in imp:
            doc_type = DocType.from_label(imp["doc_type"])
        elif predictions is not None and doc_id in predictions:
            doc_type = predictions[doc_id]
        else:
            raise ValueError(f"impression {doc_id!r} has no resolvable doc_type")
        impressions.append(Impression(doc_id, position, doc_type))
    clicks = [Click(*_reference(c)) for c in obj.get("clicks", [])]
    return LogEvent(str(obj["engine"]), str(obj["query_id"]), impressions, clicks)


def _reference(item) -> tuple[str, int]:
    """An impression's or click's (doc_id, position): a string and a JSON
    integer; anything else raises ValueError."""
    doc_id, position = item["doc_id"], item["position"]
    if not isinstance(doc_id, str):
        raise ValueError(f"doc_id must be a string, got {json.dumps(doc_id)}")
    if not isinstance(position, int) or isinstance(position, bool):
        raise ValueError(f"position must be an integer, got {json.dumps(position)}")
    return doc_id, position
