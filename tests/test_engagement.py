"""Impression sets, CTR/QTCTR/RQTCTR, and the engagement report."""

import io
import json

import numpy as np
import pytest

from doctype.engagement import (
    Click,
    Impression,
    LogEvent,
    build_impression_sets,
    ctr,
    engagement_report,
    qtctr,
    read_log_events,
    rqtctr,
    validate_event,
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
            validate_event(bad)

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
    def test_ctr_basic(self):
        assert ctr(5, 100) == 0.05
        assert ctr(0, 10) == 0.0
        assert ctr(10, 10) == 1.0

    def test_ctr_zero_impressions(self):
        with pytest.raises(UndefinedRateError):
            ctr(1, 0)

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
        engine = report.engines["search"]
        assert engine.n_sets == 1
        for t in DocType:
            assert engine.qtctr(t, "any") == 0.0
            assert engine.ctr(t) in (0.0, None)

    def test_identities_on_random_events(self):
        events = random_events(1000, seed=13)
        report = engagement_report(events)
        for engine in report.engines.values():
            total_any = 0.0
            for t in DocType:
                share = engine.impression_share(t)
                for variant in ("any", "top"):
                    got = engine.rqtctr(t, variant)
                    recomputed = engine.qtctr(t, variant) * share
                    assert got == pytest.approx(recomputed, abs=1e-12)
                assert engine.qtctr(t, "top") <= engine.qtctr(t, "any") + 1e-15
                total_any += engine.qtctr(t, "any")
            assert total_any <= 1.0 + 1e-12

    def test_sum_of_typed_sets_bounded(self):
        events = random_events(400, seed=14)
        report = engagement_report(events)
        for engine in report.engines.values():
            assert sum(engine.sets_any[t] for t in DocType) <= engine.n_sets

    def test_permutation_invariance(self):
        events = random_events(300, seed=15)
        base = engagement_report(events).to_dict()
        rng = np.random.default_rng(0)
        shuffled = [events[i] for i in rng.permutation(len(events))]
        assert engagement_report(shuffled).to_dict() == base

    def test_matches_direct_ops(self):
        events = random_events(500, seed=16)
        report = engagement_report(events)
        for name in ("search", "recommender"):
            subset = [e for e in events if e.engine == name]
            sets = build_impression_sets(subset).sets
            engine = report.engines[name]
            for t in DocType:
                for variant in ("any", "top"):
                    assert engine.qtctr(t, variant) == pytest.approx(
                        qtctr(sets, t, variant), abs=1e-15
                    )
                    assert engine.rqtctr(t, variant) == pytest.approx(
                        rqtctr(sets, t, variant), abs=1e-15
                    )

    def test_rejected_events_counted_but_report_produced(self):
        bad = LogEvent("search", "bad", [Impression("d", 1, R)], [Click("x", 9)])
        good = make_event("search", "good", [R], clicked_positions=[1])
        report = engagement_report([bad, good])
        assert report.engines["search"].n_rejected == 1
        assert report.engines["search"].n_sets == 1

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
        engine = report.engines["search"]
        assert engine.rqtctr(R) > 8 * engine.rqtctr(S)
        assert engine.rqtctr(T) > 8 * engine.rqtctr(S)


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
