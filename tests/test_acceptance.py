"""Acceptance suite: one test per release criterion, with timing budgets.

Each test prints a single PASS line (visible with -v -s or in the
captured output); a failed assertion marks the criterion red.
"""

import math
import time

import numpy as np
import pytest

from doctype.engagement import Click, Impression, LogEvent, build_impression_sets, qtctr
from doctype.evaluation import ablation, cross_validate
from doctype.ingest import DocType, FeatureVector
from doctype.labeling import sample_size
from doctype.models import (
    DEPLOYED_FOREST_PROFILE,
    dataset_matrix,
    predict,
    predict_batch,
    train,
)
from doctype.stats import derive_thresholds, quantile, tukey_filter
from doctype.synthetic import generate_synthetic

from conftest import cell, make_example, threshold_model
from reference_threshold import reference_threshold_predict
from test_evaluation import f2_signal_dataset
from test_pipeline import build_config, build_records
from test_stats import EXPECTED_CELLS, fixture_dataset

R, S, T = DocType.RESEARCH, DocType.SLIDES, DocType.THESIS
PROPS = {R: 0.55, S: 0.10, T: 0.35}


def report(n: int, message: str) -> None:
    print(f"PASS  criterion {n:2d}: {message}")


class TestCriterion1SampleSize:
    def test_formula_exact_and_fast(self):
        started = time.perf_counter()
        value = sample_size(1.96, 0.5, 0.01)
        elapsed = time.perf_counter() - started
        assert value == 9604
        assert elapsed < 1e-3
        report(1, f"sample_size(1.96, 0.5, 0.01) == 9604 in {elapsed * 1e6:.0f} us")


class TestCriterion2BaselineTwoFaithfulness:
    def test_worked_vectors(self, reference_table):
        cases = [
            (FeatureVector(1, 50000, 200, 250.0), T),
            (FeatureVector(20, 5000, 10, 500.0), R),
            (FeatureVector(6, 500, 60, 8.3), S),
        ]
        model = threshold_model(reference_table)
        predict(model, cases[0][0])  # builds the model's predictor
        started = time.perf_counter()
        for fv, expected in cases:
            assert predict(model, fv)[0] is expected
        elapsed = time.perf_counter() - started
        for fv, expected in cases:
            assert reference_threshold_predict(reference_table, fv) is expected
        assert elapsed < 1e-3
        report(2, "reference-table vectors classify Thesis / Research / Slides")


class TestCriterion3DeskScaleClassification:
    def test_forest_and_adaboost_beat_baselines(self):
        started = time.perf_counter()
        data = generate_synthetic(11500, PROPS, seed=20260101)
        scores = {}
        for kind, hp in [
            ("random-forest", DEPLOYED_FOREST_PROFILE),
            ("adaboost", {"rounds": 25, "max_depth": 2}),
            ("baseline-random", {}),
            ("baseline-threshold", {}),
        ]:
            scores[kind] = cross_validate(kind, data, 10, hp, seed=7)["mean_weighted_f1"]
        elapsed = time.perf_counter() - started
        assert scores["random-forest"] >= 0.90
        for strong in ("random-forest", "adaboost"):
            assert scores[strong] > scores["baseline-random"]
            assert scores[strong] > scores["baseline-threshold"]
        assert elapsed < 60.0
        report(
            3,
            f"RF={scores['random-forest']:.4f} Ada={scores['adaboost']:.4f} "
            f"B1={scores['baseline-random']:.4f} B2={scores['baseline-threshold']:.4f} "
            f"in {elapsed:.1f}s",
        )


class TestCriterion4BaselineOneExpectation:
    def test_empirical_accuracy_near_analytical(self):
        started = time.perf_counter()
        data = [
            make_example(t, doc_id=f"{t.label}-{i}")
            for t, share in PROPS.items()
            for i in range(int(share * 100))
        ]
        model = train("baseline-random", data)
        n = 100_000
        labels, _ = predict_batch(model, np.arange(4.0 * n).reshape(n, 4))
        rng = np.random.default_rng(171717)
        truths = rng.choice(3, size=n, p=[PROPS[R], PROPS[S], PROPS[T]])
        accuracy = float((labels == truths).mean())
        expected = sum(p * p for p in PROPS.values())  # = 0.4350
        elapsed = time.perf_counter() - started
        assert abs(accuracy - expected) <= 0.02
        assert elapsed < 5.0
        report(4, f"accuracy {accuracy:.4f} within 0.02 of analytical {expected:.4f}")


class TestCriterion5OracleEquivalence:
    def test_gnb_and_knn_against_brute_force(self):
        started = time.perf_counter()
        rng = np.random.default_rng(99)
        checked_gnb = 0
        checked_knn = 0
        for trial in range(100):
            n = int(rng.integers(3, 201))
            data = [
                make_example(
                    DocType(int(rng.integers(0, 3))),
                    f1=int(rng.integers(1, 9)),
                    f2=float(rng.normal(50 + 40 * trial % 3, 25)),
                    f3=float(rng.integers(1, 60)),
                    doc_id=f"{trial}-{i}",
                )
                for i in range(n)
            ]
            query = FeatureVector(
                int(rng.integers(1, 9)),
                float(rng.normal(60, 30)),
                float(rng.integers(1, 60)),
                float(rng.normal(10, 4)),
            )
            x = [float(v) for v in query.values()]

            gnb = train("gnb", data)
            _, scores = predict(gnb, query)
            joint = []
            for c in range(3):
                prior = gnb.parameters["priors"][c]
                if prior == 0:
                    joint.append(0.0)
                    continue
                density = prior
                for value, mean, var in zip(
                    x, gnb.parameters["means"][c], gnb.parameters["variances"][c]
                ):
                    density *= math.exp(
                        -((value - mean) ** 2) / (2 * var)
                    ) / math.sqrt(2 * math.pi * var)
                joint.append(density)
            if sum(joint) > 0:
                for t in DocType:
                    assert scores[t] == pytest.approx(
                        joint[int(t)] / sum(joint), abs=1e-9
                    )
                checked_gnb += 1

            k = int(rng.integers(1, n + 1))
            knn = train("knn", data, {"k": k})
            got, _ = predict(knn, query)
            dists = sorted(
                (
                    sum(
                        (a - b) ** 2
                        for a, b in zip([float(v) for v in ex.features.values()], x)
                    ),
                    i,
                )
                for i, ex in enumerate(data)
            )
            votes = [0, 0, 0]
            for _, i in dists[:k]:
                votes[int(data[i].label)] += 1
            assert got is DocType(max(range(3), key=lambda c: (votes[c], -c)))
            checked_knn += 1
        elapsed = time.perf_counter() - started
        assert checked_gnb >= 90 and checked_knn == 100
        assert elapsed < 10.0
        report(5, f"gnb x{checked_gnb}, knn x{checked_knn} oracle-equal in {elapsed:.1f}s")


class TestCriterion6TukeyQuantileSuite:
    def test_unit_suite_and_frozen_fixture(self):
        assert tukey_filter([1, 2, 3, 4, 100]) == [1, 2, 3, 4]
        assert tukey_filter([5, 5, 5]) == [5, 5, 5]
        assert quantile([1, 2, 3, 4, 5], 0.5) == 3
        table = derive_thresholds(*dataset_matrix(fixture_dataset()))
        for label, cells in EXPECTED_CELLS.items():
            t = DocType.from_label(label)
            for fid, (lo, hi) in cells.items():
                got_lo, got_hi = cell(table, t, fid)
                assert got_lo == pytest.approx(lo, rel=0, abs=1e-9)
                assert got_hi == pytest.approx(hi, rel=0, abs=1e-9)
        report(6, "tukey fences and 20-point threshold fixture match frozen bounds")


class TestCriterion7MetricIdentities:
    def test_identities_on_random_log(self):
        from doctype.engagement import engagement_report

        from conftest import random_events

        started = time.perf_counter()
        events = random_events(1000, seed=2024)
        rep = engagement_report(events)
        assert rep["engines"], "expected both engines in the fixture"
        for engine in rep["engines"].values():
            total_any = 0.0
            for t in DocType:
                row = engine["types"][t.label]
                share = row["set_impressions"] / engine["set_impressions_total"]
                for variant in ("any", "top"):
                    assert row[f"rqtctr_{variant}"] == pytest.approx(
                        row[f"qtctr_{variant}"] * share, abs=1e-12
                    )
                assert row["qtctr_top"] <= row["qtctr_any"]
                total_any += row["qtctr_any"]
            assert total_any <= 1.0
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0
        report(7, f"rqtctr == qtctr * share to 1e-12 on 1000 events in {elapsed:.1f}s")


class TestCriterion8QtctrFixture:
    def test_million_set_ratio(self):
        started = time.perf_counter()
        n_thesis = 323_576
        n_total = 1_000_000

        def events():
            for i in range(n_thesis):
                doc = f"t{i}"
                yield LogEvent(
                    "search",
                    f"q{i}",
                    [Impression(doc, 1, T)],
                    [Click(doc, 1)],
                )
            for i in range(n_thesis, n_total):
                yield LogEvent("search", f"q{i}", [Impression(f"r{i}", 1, R)], [])

        result = build_impression_sets(events())
        assert len(result.sets) == n_total
        value = qtctr(result.sets, T, "any")
        elapsed = time.perf_counter() - started
        assert value == pytest.approx(0.32358, abs=5e-6)
        assert elapsed < 30.0
        report(8, f"qtctr {value:.6f} == 0.32358 +/- 5e-6 over 1e6 sets in {elapsed:.1f}s")


class TestCriterion9Latency:
    def test_deployed_forest_prediction_latency(self):
        data = generate_synthetic(11500, PROPS, seed=20260101)
        model = train("random-forest", data, DEPLOYED_FOREST_PROFILE, seed=7)
        queries = [ex.features for ex in data[:10_000]]
        predict(model, queries[0])  # build the predictor outside the clock
        started = time.perf_counter()
        for fv in queries:
            predict(model, fv)
        elapsed = time.perf_counter() - started
        per_prediction = elapsed / len(queries)
        assert per_prediction < 1e-3
        report(9, f"mean prediction latency {per_prediction * 1e6:.0f} us < 1 ms")


class TestCriterion10PipelineDeterminism:
    def test_rerun_byte_identity(self, tmp_path):
        from doctype.cli import main

        records = build_records(tmp_path)
        cfg_path = build_config(tmp_path, records)
        assert main(["pipeline", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        first = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert main(["pipeline", "--config", str(cfg_path)]) == 0
        second = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert first == second
        report(10, f"pipeline rerun reproduced {len(first)} files byte-identically")


class TestCriterion11AblationDirection:
    def test_f2_only_dominates_other_singletons(self):
        data = f2_signal_dataset(150, seed=10)
        hp = {"random-forest": {"n_trees": 10, "max_depth": 4, "feature_subset": 4}}
        scores = ablation(data, ["random-forest"], k=5, seed=3, hyperparameters=hp)
        f2_only = scores["random-forest"]["f2"]
        all_features = scores["random-forest"]["f1+f2+f3+f4"]
        for fid in ("f1", "f3", "f4"):
            assert f2_only >= scores["random-forest"][fid] + 0.2, fid
        assert all_features >= f2_only
        report(
            11,
            f"F2-only {f2_only:.3f} beats singletons by >= 0.2; "
            f"all-features {all_features:.3f} >= F2-only",
        )
