"""Impression sets, CTR/QTCTR/RQTCTR, and the engagement report."""

import gc
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doctype.engagement import (
    ENGINES,
    Click,
    Impression,
    LogEvent,
    build_impression_sets,
    engagement_report,
    event_sets,
    qtctr,
    read_log_events,
    rqtctr,
)
from doctype.errors import EventValidationError, UndefinedRateError
from doctype.ingest import DocType

from conftest import make_event, random_events

R, S, T = DocType.RESEARCH, DocType.SLIDES, DocType.THESIS


def event_line(impression: dict, *clicks: dict) -> str:
    """One search log line with one impression and the given clicks."""
    event = {"engine": "search", "query_id": "q1", "impressions": [impression], "clicks": list(clicks)}
    return json.dumps(event) + "\n"


class TestBuildImpressionSets:
    def test_multi_type_clicks_derive_multiple_sets(self):
        event = make_event("search", "q1", [R, R, T, S], clicked_positions=[3, 4])
        result = build_impression_sets([event])
        assert len(result.sets) == 2
        assert {s.assigned_type for s in result.sets} == {T, S}
        for s in result.sets:
            assert len(s.impressions) == 4

    def test_clickless_event_yields_untyped_set(self):
        event = make_event("search", "q1", [R] * 5)
        result = build_impression_sets([event])
        assert len(result.sets) == 1
        assert result.sets[0].assigned_type is None
        assert result.sets[0].clicked_top is False

    def test_same_type_clicks_collapse(self):
        event = make_event("search", "q1", [R, R, R], clicked_positions=[2, 3])
        result = build_impression_sets([event])
        assert len(result.sets) == 1
        assert result.sets[0].assigned_type is R

    def test_clicked_top_only_at_position_one(self):
        top = make_event("search", "q1", [T, R], clicked_positions=[1])
        deep = make_event("search", "q2", [R, T], clicked_positions=[2])
        result = build_impression_sets([top, deep])
        by_query = {s.query_id: s for s in result.sets}
        assert by_query["q1"].clicked_top is True
        assert by_query["q2"].clicked_top is False

    def test_unimpressed_click_rejected_and_counted(self):
        bad = LogEvent("search", "q1", [Impression("d", 1, R)], [Click("ghost", 2)])
        good = make_event("search", "q2", [R], clicked_positions=[1])
        result = build_impression_sets([bad, good])
        assert result.n_rejected == 1
        assert len(result.sets) == 1

    def test_duplicate_positions_rejected(self):
        bad = LogEvent(
            "search", "q1", [Impression("a", 1, R), Impression("b", 1, S)], []
        )
        with pytest.raises(EventValidationError):
            event_sets(bad)

    def test_output_size_formula(self):
        events = random_events(300, seed=5)
        result = build_impression_sets(events)
        expected = 0
        for event in events:
            types = {
                next(
                    i.doc_type
                    for i in event.impressions
                    if (i.doc_id, i.position) == (c.doc_id, c.position)
                )
                for c in event.clicks
            }
            expected += max(1, len(types))
        assert len(result.sets) == expected


class TestRates:
    def _sets(self):
        events = [make_event("search", f"q{i}", [T, R], clicked_positions=[1]) for i in range(2)]
        events += [make_event("search", f"n{i}", [R, S]) for i in range(8)]
        return build_impression_sets(events).sets

    def test_qtctr_fraction(self):
        sets = self._sets()
        assert qtctr(sets, T, "any") == 0.2
        assert qtctr(sets, T, "top") == 0.2
        assert qtctr(sets, R, "any") == 0.0

    def test_all_untyped_sets_rate_zero(self):
        sets = build_impression_sets(
            [make_event("search", f"q{i}", [R, T]) for i in range(5)]
        ).sets
        for t in DocType:
            assert qtctr(sets, t) == 0.0

    def test_empty_sets_error(self):
        with pytest.raises(UndefinedRateError):
            qtctr([], R)

    def test_rqtctr_product(self):
        sets = self._sets()
        # 2 thesis-typed of 10 sets; thesis impressions 2 of 20
        assert rqtctr(sets, T, "any") == pytest.approx(0.2 * (2 / 20))

    def test_rqtctr_never_impressed_type(self):
        sets = build_impression_sets(
            [make_event("search", "q", [R, R], clicked_positions=[1])]
        ).sets
        assert rqtctr(sets, S) == 0.0

    def test_rqtctr_bounded_by_qtctr(self):
        sets = build_impression_sets(random_events(200, seed=9)).sets
        for t in DocType:
            for variant in ("any", "top"):
                assert rqtctr(sets, t, variant) <= qtctr(sets, t, variant) + 1e-15

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            qtctr(self._sets(), R, "middle")


class TestEngagementReport:
    def test_single_clickless_event(self):
        report = engagement_report([make_event("search", "q", [R, T])])
        engine = report["engines"]["search"]
        assert engine["n_sets"] == 1
        for t in DocType:
            assert engine["types"][t.label]["qtctr_any"] == 0.0
            assert engine["types"][t.label]["ctr"] in (0.0, None)

    def test_identities_on_random_events(self):
        events = random_events(1000, seed=13)
        report = engagement_report(events)
        for engine in report["engines"].values():
            total_any = 0.0
            for t in DocType:
                row = engine["types"][t.label]
                share = row["set_impressions"] / engine["set_impressions_total"]
                for variant in ("any", "top"):
                    got = row[f"rqtctr_{variant}"]
                    recomputed = row[f"qtctr_{variant}"] * share
                    assert got == pytest.approx(recomputed, abs=1e-12)
                assert row["qtctr_top"] <= row["qtctr_any"] + 1e-15
                total_any += row["qtctr_any"]
            assert total_any <= 1.0 + 1e-12

    def test_sum_of_typed_sets_bounded(self):
        events = random_events(400, seed=14)
        report = engagement_report(events)
        for engine in report["engines"].values():
            assert sum(engine["types"][t.label]["sets_any"] for t in DocType) <= engine["n_sets"]

    def test_permutation_invariance(self):
        events = random_events(300, seed=15)
        base = engagement_report(events)
        rng = np.random.default_rng(0)
        shuffled = [events[i] for i in rng.permutation(len(events))]
        assert engagement_report(shuffled) == base

    def test_matches_direct_ops(self):
        events = random_events(500, seed=16)
        report = engagement_report(events)
        for name in ("search", "recommender"):
            subset = [e for e in events if e.engine == name]
            sets = build_impression_sets(subset).sets
            engine = report["engines"][name]
            for t in DocType:
                for variant in ("any", "top"):
                    assert engine["types"][t.label][f"qtctr_{variant}"] == pytest.approx(
                        qtctr(sets, t, variant), abs=1e-15
                    )
                    assert engine["types"][t.label][f"rqtctr_{variant}"] == pytest.approx(
                        rqtctr(sets, t, variant), abs=1e-15
                    )

    def test_rejected_events_counted_but_report_produced(self):
        bad = LogEvent("search", "bad", [Impression("d", 1, R)], [Click("x", 9)])
        good = make_event("search", "good", [R], clicked_positions=[1])
        report = engagement_report([bad, good])
        assert report["engines"]["search"]["n_rejected"] == 1
        assert report["engines"]["search"]["n_sets"] == 1

    def test_each_click_counted_once(self):
        # Two clicks on position 2 give its type two clicks; clicks at
        # positions 1 and 3 of one type give that type one top set.
        event = make_event("search", "q", [R, S, R], clicked_positions=[2, 1, 2, 3])
        types = engagement_report([event])["engines"]["search"]["types"]
        assert [types[t.label]["event_clicks"] for t in (S, R, T)] == [2, 2, 0]
        assert (types["Research"]["sets_any"], types["Research"]["sets_top"]) == (1, 1)
        assert (types["Slides"]["sets_any"], types["Slides"]["sets_top"]) == (1, 0)

    def test_impression_order_of_magnitude_story(self):
        # impression shares ~ {R: .667, T: .272, S: .061}; users click
        # research/thesis an order of magnitude more than slides
        rng = np.random.default_rng(17)
        events = []
        for i in range(4000):
            types = [
                DocType(int(v))
                for v in rng.choice(3, size=6, p=[0.667, 0.061, 0.272])
            ]
            clicks = []
            if rng.random() < 0.5:
                pos = int(rng.integers(1, 7))
                click_type = types[pos - 1]
                keep = {R: 0.45, T: 0.9, S: 0.25}[click_type]
                if rng.random() < keep:
                    clicks = [pos]
            events.append(make_event("search", f"q{i}", types, clicks))
        report = engagement_report(events)
        types = report["engines"]["search"]["types"]
        assert types["Research"]["rqtctr_any"] > 8 * types["Slides"]["rqtctr_any"]
        assert types["Thesis"]["rqtctr_any"] > 8 * types["Slides"]["rqtctr_any"]


class TestLogParsing:
    def test_round_trip_with_embedded_types(self):
        line = json.dumps(
            {
                "engine": "search",
                "query_id": "q1",
                "impressions": [
                    {"doc_id": "a", "position": 1, "doc_type": "Thesis"},
                    {"doc_id": "b", "position": 2, "doc_type": "Research"},
                ],
                "clicks": [{"doc_id": "a", "position": 1}],
            }
        )
        parsed = read_log_events(io.StringIO(line))
        assert parsed.n_rejected == 0
        assert parsed.events[0].impressions[0].doc_type is T

    def test_join_against_predictions(self):
        line = json.dumps(
            {
                "engine": "search",
                "query_id": "q1",
                "impressions": [{"doc_id": "a", "position": 1}],
                "clicks": [],
            }
        )
        parsed = read_log_events(io.StringIO(line), predictions={"a": S})
        assert parsed.n_rejected == 0
        assert parsed.events[0].impressions[0].doc_type is S

    def test_unresolvable_doc_rejected_and_counted(self):
        line = json.dumps(
            {
                "engine": "search",
                "query_id": "q1",
                "impressions": [{"doc_id": "mystery", "position": 1}],
                "clicks": [],
            }
        )
        parsed = read_log_events(io.StringIO(line), predictions={"other": R})
        assert parsed.events == []
        assert parsed.n_rejected == 1

    def test_malformed_line_counted(self):
        for text, error in [
            ("{broken\n", "line 1: Expecting property name enclosed in double quotes"),
            ('\n{"engine": "search", "query_id": "q1"}\n', "line 2: missing field 'impressions'"),
            (event_line({"doc_id": ["a"], "position": 1, "doc_type": "Research"}),
             'line 1: doc_id must be a string, got ["a"]'),
            (event_line({"doc_id": "a", "position": 1, "doc_type": "Research"},
                        {"doc_id": {"x": 1}, "position": 1}),
             'line 1: doc_id must be a string, got {"x": 1}'),
            (event_line({"doc_id": "a", "position": "2", "doc_type": "Research"}),
             'line 1: position must be an integer, got "2"'),
            (event_line({"doc_id": "a", "position": 1.7, "doc_type": "Research"}),
             "line 1: position must be an integer, got 1.7"),
            (event_line({"doc_id": "a", "position": 1, "doc_type": "Research"},
                        {"doc_id": "a", "position": True}),
             "line 1: position must be an integer, got true"),
        ]:
            parsed = read_log_events(io.StringIO(text))
            assert parsed.n_rejected == 1
            assert parsed.events == [] and parsed.errors[0].startswith(error)

    def test_own_type_wins_and_mistyped_fields_counted(self):
        line = event_line({"doc_id": "a", "position": 1, "doc_type": "Thesis"})
        own = read_log_events(io.StringIO(line), predictions={"a": R})
        assert own.errors == [] and own.events[0].impressions[0].doc_type is T
        for text, error in [
            (event_line({"doc_id": "a", "position": 1, "doc_type": ["Research"]}),
             "line 1: unknown document type: ['Research']"),
            (event_line({"doc_id": "a", "position": True}), "line 1: position must be an integer, got true"),
            (event_line({"doc_id": "a", "position": 1, "doc_type": "Research"},
                        {"doc_id": "a", "position": "1"}),
             'line 1: position must be an integer, got "1"'),
        ]:
            parsed = read_log_events(io.StringIO(text), predictions={"a": R})
            assert parsed.events == [] and parsed.errors == [error]

    def test_read_runs_no_full_collection(self):
        # A count, not a timing: the reader pauses the cyclic collector, so
        # holding 20,000 events' objects triggers no generation-2 pass.
        lines = [
            json.dumps({
                "engine": ENGINES[i % 2],
                "query_id": f"q{i}",
                "impressions": [
                    {"doc_id": f"d{i}-{p}", "position": p, "doc_type": DocType(p % 3).label}
                    for p in range(1, 2 + i % 10)
                ],
                "clicks": [{"doc_id": f"d{i}-1", "position": 1}] if i % 3 == 0 else [],
            })
            for i in range(20_000)
        ]
        full = []

        def record(phase, info):
            if phase == "start" and info["generation"] == 2:
                full.append(info)

        enabled = gc.isenabled()
        gc.enable()
        gc.callbacks.append(record)
        try:
            parsed = read_log_events(lines)
        finally:
            gc.callbacks.remove(record)
            if not enabled:
                gc.disable()
        assert len(parsed.events) == 20_000 and full == []


# ---------------------------------------------------------------------------
# Fault-injection oracle: events with injected faults, checked against the
# documented rules computed by brute force.
# ---------------------------------------------------------------------------

FAULTS = (
    "duplicate position",
    "position below 1",
    "click on no impression",
    "click on another doc_id",
    "unknown engine",
)
DOC_IDS = ("d0", "d1", "d2", "d3")  # few ids, so a wrong doc_id is often another impression's
COUNTS = ("sets_any", "sets_top", "set_impressions", "event_impressions", "event_clicks")


@st.composite
def faulty_events(draw) -> list[LogEvent]:
    """Events of both engines, each with up to two injected faults."""
    events = []
    for i in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, 6))
        positions = draw(st.lists(st.integers(1, 8), min_size=n, max_size=n, unique=True))
        impressions = [
            Impression(draw(st.sampled_from(DOC_IDS)), p, DocType(draw(st.integers(0, 2))))
            for p in positions
        ]
        clicked = draw(st.lists(st.sampled_from(impressions), max_size=4))
        clicks = [Click(imp.doc_id, imp.position) for imp in clicked]
        engine = draw(st.sampled_from(ENGINES))
        for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=2)):
            target = draw(st.sampled_from(impressions))
            if fault == "duplicate position":
                copy = Impression(draw(st.sampled_from(DOC_IDS)), target.position, target.doc_type)
                impressions.insert(draw(st.integers(0, len(impressions))), copy)
            elif fault == "position below 1":
                low = Impression(target.doc_id, draw(st.integers(-2, 0)), target.doc_type)
                impressions[impressions.index(target)] = low
            elif fault == "unknown engine":
                engine = "email"
            else:
                if fault == "click on no impression":
                    taken = {imp.position for imp in impressions}
                    click = Click(
                        draw(st.sampled_from(DOC_IDS)),
                        draw(st.integers(-1, 10).filter(lambda p: p not in taken)),
                    )
                else:
                    other = st.sampled_from(DOC_IDS).filter(lambda d: d != target.doc_id)
                    click = Click(draw(other), target.position)
                clicks.insert(draw(st.integers(0, len(clicks))), click)
        events.append(LogEvent(engine, f"q{i}", impressions, clicks))
    return events


def first_error(event: LogEvent) -> str | None:
    """The message of the first rule the event breaks, in the documented order."""
    name = f"event {event.query_id}"
    if event.engine not in ENGINES:
        return f"{name}: unknown engine {event.engine!r}"
    seen = []
    for imp in event.impressions:
        if imp.position < 1:
            return f"{name}: position {imp.position} is not 1-based"
        if imp.position in seen:
            return f"{name}: duplicate position {imp.position}"
        seen.append(imp.position)
    refs = [(imp.doc_id, imp.position) for imp in event.impressions]
    for click in event.clicks:
        if (click.doc_id, click.position) not in refs:
            return f"{name}: click on unimpressed ({click.doc_id!r}, {click.position})"
    return None


def click_types(event: LogEvent) -> list[DocType]:
    """The type of the impression each click of a valid event names."""
    return [
        next(
            imp.doc_type
            for imp in event.impressions
            if (imp.doc_id, imp.position) == (click.doc_id, click.position)
        )
        for click in event.clicks
    ]


def expected_sets(event: LogEvent) -> list[tuple[DocType | None, bool]]:
    """(assigned type, clicked top) of each set of a valid event."""
    top = {}
    for click, doc_type in zip(event.clicks, click_types(event)):
        top[doc_type] = top.get(doc_type, False) or click.position == 1
    return sorted(top.items()) or [(None, False)]


def expected_counts(events: list[LogEvent]) -> tuple[dict, int]:
    """Per-engine counts as the report's JSON lays them out, and the
    number of events with an unknown engine."""
    engines, unknown = {}, 0
    for event in events:
        if event.engine not in ENGINES:
            unknown += 1
            continue
        counts = engines.setdefault(event.engine, {
            "n_events": 0, "n_rejected": 0, "n_sets": 0, "set_impressions_total": 0,
            "types": {t.label: dict.fromkeys(COUNTS, 0) for t in DocType},
        })
        if first_error(event):
            counts["n_rejected"] += 1
            continue
        sets = expected_sets(event)
        counts["n_events"] += 1
        counts["n_sets"] += len(sets)
        for doc_type, top in sets:
            if doc_type is not None:
                counts["types"][doc_type.label]["sets_any"] += 1
                counts["types"][doc_type.label]["sets_top"] += top
        for imp in event.impressions:  # every set holds every impression of its event
            counts["set_impressions_total"] += len(sets)
            counts["types"][imp.doc_type.label]["set_impressions"] += len(sets)
            counts["types"][imp.doc_type.label]["event_impressions"] += 1
        for doc_type in click_types(event):
            counts["types"][doc_type.label]["event_clicks"] += 1
    return engines, unknown


class TestFaultInjection:
    @settings(max_examples=150, deadline=None)
    @given(events=faulty_events())
    def test_sets_and_errors_match_rules(self, events):
        result = build_impression_sets(events)
        errors = [e for e in map(first_error, events) if e]
        assert result.errors == errors and result.n_rejected == len(errors)
        valid = [event for event in events if not first_error(event)]
        assert [(s.query_id, s.assigned_type, s.clicked_top) for s in result.sets] == [
            (event.query_id, doc_type, top) for event in valid for doc_type, top in expected_sets(event)
        ]
        impressions = {event.query_id: event.impressions for event in valid}
        assert all(s.impressions is impressions[s.query_id] for s in result.sets)

    @settings(max_examples=150, deadline=None)
    @given(events=faulty_events())
    def test_report_counts_match_rules(self, events):
        got = engagement_report(events)
        engines, unknown = expected_counts(events)
        assert got["rejected_unknown_engine"] == unknown
        assert got["rejected"] == {name: c["n_rejected"] for name, c in sorted(engines.items())}
        assert set(got["engines"]) == {name for name, c in engines.items() if c["n_sets"]}
        for name, payload in got["engines"].items():
            want = engines[name]
            assert {key: payload[key] for key in want if key != "types"} == {
                key: value for key, value in want.items() if key != "types"
            }
            for label, row in payload["types"].items():
                assert {key: row[key] for key in COUNTS} == want["types"][label]
