"""Impression sets and click-through metrics for search/recommender logs.

Each query's served results form one event; clicks on d distinct document
types derive max(1, d) impression sets from it. Clickless sets carry no
type and count only in denominators. Impression shares for the
regularised metric are computed over the derived sets, so the identity
rqtctr = qtctr * impression-share holds exactly by construction.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from typing import IO, Iterable, Iterator, Mapping

from .errors import EventValidationError, UndefinedRateError
from .ingest import DOC_TYPES, DocType
from .ioutils import iter_json_lines, read_json_lines

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


def event_sets(event: LogEvent) -> list[ImpressionSet]:
    """The event's impression sets, in one walk of its impressions: one set
    per clicked type in type order, or one untyped set without clicks.
    Every set shares the event's impression list.

    Raises EventValidationError for an unknown engine, a position that is
    repeated or below 1, or a click whose position holds no impression of
    its doc_id.
    """
    if event.engine not in ENGINES:
        raise EventValidationError(
            f"event {event.query_id}: unknown engine {event.engine!r}"
        )
    by_position: dict[int, Impression] = {}
    for imp in event.impressions:
        if imp.position < 1:
            raise EventValidationError(
                f"event {event.query_id}: position {imp.position} is not 1-based"
            )
        if imp.position in by_position:
            raise EventValidationError(
                f"event {event.query_id}: duplicate position {imp.position}"
            )
        by_position[imp.position] = imp
    clicked: dict[DocType, bool] = {}
    for click in event.clicks:
        imp = by_position.get(click.position)
        if imp is None or imp.doc_id != click.doc_id:
            raise EventValidationError(
                f"event {event.query_id}: click on unimpressed "
                f"({click.doc_id!r}, {click.position})"
            )
        clicked[imp.doc_type] = clicked.get(imp.doc_type, False) or click.position == 1
    return [
        ImpressionSet(event.query_id, event.impressions, doc_type, top)
        for doc_type, top in sorted(clicked.items()) or [(None, False)]
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
            sets.extend(event_sets(event))
        except EventValidationError as exc:
            rejected += 1
            errors.append(str(exc))
    return BuildResult(sets, rejected, errors)


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


def _per_type() -> dict[DocType, int]:
    return dict.fromkeys(DOC_TYPES, 0)


@dataclass
class EngineReport:
    """One engine's counts, summed by ``add``; ``to_dict`` gives its rates."""

    n_events: int = 0
    n_rejected: int = 0
    n_sets: int = 0
    set_impressions_total: int = 0
    set_impressions: dict[DocType, int] = field(default_factory=_per_type)
    sets_any: dict[DocType, int] = field(default_factory=_per_type)
    sets_top: dict[DocType, int] = field(default_factory=_per_type)
    event_impressions: dict[DocType, int] = field(default_factory=_per_type)
    event_clicks: dict[DocType, int] = field(default_factory=_per_type)

    def add(self, event: LogEvent, sets: list[ImpressionSet]) -> None:
        """Count one valid event and its ``event_sets``: each set holds all
        of the event's impressions, so set impressions are the event's
        per-type counts times the number of sets."""
        self.n_events += 1
        self.n_sets += len(sets)
        self.set_impressions_total += len(event.impressions) * len(sets)
        for imp in event.impressions:
            self.event_impressions[imp.doc_type] += 1
            self.set_impressions[imp.doc_type] += len(sets)
        types = {imp.position: imp.doc_type for imp in event.impressions}
        for click in event.clicks:  # names an impression: event_sets checked it
            self.event_clicks[types[click.position]] += 1
        for derived in sets:
            if derived.assigned_type is not None:
                self.sets_any[derived.assigned_type] += 1
                self.sets_top[derived.assigned_type] += derived.clicked_top

    def to_dict(self) -> dict:
        """The counts and, per type, the rates of an engine with sets: QTCTR
        is the share of sets assigned the type, RQTCTR is QTCTR times the
        type's share of set impressions, and CTR is clicks per impression
        of the type. CTR without impressions of the type, and RQTCTR
        without any impressions, are None."""
        if self.n_sets == 0:
            raise UndefinedRateError("QTCTR is undefined for an empty engine")
        shown = self.set_impressions_total > 0
        by_type = {}
        for t in DOC_TYPES:
            clicked, impressed = self.event_clicks[t], self.event_impressions[t]
            qtctr_any = self.sets_any[t] / self.n_sets
            qtctr_top = self.sets_top[t] / self.n_sets
            share = self.set_impressions[t] / self.set_impressions_total if shown else None
            by_type[t.label] = {
                "sets_any": self.sets_any[t],
                "sets_top": self.sets_top[t],
                "set_impressions": self.set_impressions[t],
                "event_impressions": impressed,
                "event_clicks": clicked,
                "ctr": clicked / impressed if impressed else None,
                "qtctr_any": qtctr_any,
                "qtctr_top": qtctr_top,
                "rqtctr_any": qtctr_any * share if shown else None,
                "rqtctr_top": qtctr_top * share if shown else None,
            }
        return {
            "n_events": self.n_events,
            "n_rejected": self.n_rejected,
            "n_sets": self.n_sets,
            "set_impressions_total": self.set_impressions_total,
            "types": by_type,
        }


def engagement_report(events: Iterable[LogEvent]) -> dict:
    """The report ``doctype engagement`` writes: each engine with sets as
    ``EngineReport.to_dict`` gives it, every engine's rejected events, and
    the events of an unknown engine. Events are folded into counts, and
    rates are divided out once at the end."""
    engines: defaultdict[str, EngineReport] = defaultdict(EngineReport)
    unknown_engine = 0
    for event in events:
        if event.engine not in ENGINES:
            unknown_engine += 1
            continue
        report = engines[event.engine]
        try:
            report.add(event, event_sets(event))
        except EventValidationError:
            report.n_rejected += 1
    return {
        "format_version": REPORT_FORMAT_VERSION,
        "engines": {
            name: report.to_dict() for name, report in sorted(engines.items()) if report.n_sets > 0
        },
        "rejected": {name: report.n_rejected for name, report in sorted(engines.items())},
        "rejected_unknown_engine": unknown_engine,
    }


def human_engagement(report: dict) -> str:
    """The human table of an ``engagement_report``: each engine's counts,
    then its rates by type; an undefined rate reads nan."""
    lines = []
    header = (
        f"{'engine':<12}{'type':<10}{'ctr':>10}{'qtctr/any':>12}"
        f"{'qtctr/top':>12}{'rqtctr/any':>13}{'rqtctr/top':>13}"
    )
    for name, engine in report["engines"].items():
        lines.append(
            f"{name}: {engine['n_events']} events, {engine['n_sets']} sets, "
            f"{engine['set_impressions_total']} impressions, "
            f"{engine['n_rejected']} rejected"
        )
        lines.append(header)
        for label, rates in engine["types"].items():
            r = {k: float("nan") if v is None else v for k, v in rates.items()}
            lines.append(
                f"{'':<12}{label:<10}{r['ctr']:>10.5f}"
                f"{r['qtctr_any']:>12.5f}{r['qtctr_top']:>12.5f}"
                f"{r['rqtctr_any']:>13.6f}{r['rqtctr_top']:>13.6f}"
            )
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


# ---------------------------------------------------------------------------
# Log interchange: line-delimited {engine, query_id, impressions, clicks}
# objects; impression doc_type may be resolved through a predictions map.
# ---------------------------------------------------------------------------


@dataclass
class LogParseResult:
    events: list[LogEvent]
    n_rejected: int
    errors: list[str] = field(default_factory=list)


def log_events(
    source: IO[str] | Iterable[str], predictions: Mapping[str, DocType] | None, rejects: list[str]
) -> Iterator[LogEvent]:
    """Each event of a log stream as it is read; rejected lines go to ``rejects``."""
    return iter_json_lines(source, partial(_parse_event, predictions or {}), rejects)


def read_log_events(
    source: IO[str] | Iterable[str],
    predictions: Mapping[str, DocType] | None = None,
) -> LogParseResult:
    """``log_events`` as a list; lines that cannot be resolved are counted."""
    events, errors = read_json_lines(source, partial(_parse_event, predictions or {}))
    return LogParseResult(events, len(errors), errors)


def _parse_event(predictions: Mapping[str, DocType], obj) -> LogEvent:
    impressions = []
    for imp in obj["impressions"]:
        doc_id, position = _reference(imp)
        if "doc_type" in imp:
            doc_type = DocType.from_label(imp["doc_type"])
        elif (doc_type := predictions.get(doc_id)) is None:
            raise ValueError(f"impression {doc_id!r} has no resolvable doc_type")
        impressions.append(Impression(doc_id, position, doc_type))
    clicks = [Click(*_reference(c)) for c in obj.get("clicks", [])]
    return LogEvent(str(obj["engine"]), str(obj["query_id"]), impressions, clicks)


def _reference(item) -> tuple[str, int]:
    """An impression's or click's (doc_id, position): a string and a JSON
    integer; anything else raises ValueError. The tests are on exact types,
    which JSON values always have, so a bool is no integer here."""
    doc_id, position = item["doc_id"], item["position"]
    if type(doc_id) is not str:
        raise ValueError(f"doc_id must be a string, got {json.dumps(doc_id)}")
    if type(position) is not int:
        raise ValueError(f"position must be an integer, got {json.dumps(position)}")
    return doc_id, position
