"""Quantiles, Tukey fences, thresholds, transforms, imputation."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doctype import stats
from doctype.errors import ImputationError, ModelFormatError, ThresholdError
from doctype.ingest import DocType, FeatureVector
from doctype.ioutils import canonical_json
from doctype.labeling import LabeledExample
from doctype.models import dataset_matrix, load_model, train
from doctype.stats import (
    apply_imputer,
    apply_transform,
    derive_thresholds,
    fit_imputer,
    fit_transform,
    impute_f1,
    quantile,
    read_transform,
    tukey_filter,
)

from conftest import OVERFLOWING_CELLS, cell, make_example, overflow_rows, threshold_table

# ---------------------------------------------------------------------------
# 20-point fixture: per class, f2 = f3 * words-per-page with planted outliers.
# Expected bounds frozen from an independent computation of
# tukey-then-outer-quantiles on each value list.
# ---------------------------------------------------------------------------

FIXTURE_F1 = {
    "Research": [1, 2, 3, 2, 1, 4, 2, 3, 1, 2, 5, 2, 3, 4, 1, 2, 3, 2, 20, 2],
    "Slides": [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 2, 3, 4, 5],
    "Thesis": [1] * 20,
}
FIXTURE_F3 = {
    "Research": list(range(10, 30)),
    "Slides": [1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 18, 20, 25, 30, 35, 40, 50, 60, 70, 75],
    "Thesis": list(range(50, 250, 10)),
}
FIXTURE_WORDS_PER_PAGE = {
    "Research": [200, 210, 220, 230, 240, 250, 260, 270, 280, 290,
                 300, 310, 320, 330, 340, 350, 360, 370, 380, 5000],
    "Slides": [10, 12, 15, 18, 20, 25, 30, 35, 40, 45,
               50, 55, 60, 70, 80, 90, 100, 110, 120, 1000],
    "Thesis": list(range(300, 500, 10)),
}

EXPECTED_CELLS = {
    "Research": {
        "f1": (1.0, 4.0),
        "f2": (2139.5, 10347.5),
        "f3": (10.475, 28.525),
        "f4": (204.5, 375.5),
    },
    "Slides": {
        "f1": (1.0, 8.0),
        "f2": (15.950000000000001, 5919.999999999999),
        "f3": (1.475, 72.625),
        "f4": (10.9, 115.5),
    },
    "Thesis": {
        "f1": (1.0, 1.0),
        "f2": (16710.0, 114179.99999999999),
        "f3": (54.75, 235.25),
        "f4": (304.75, 485.25),
    },
}


def fixture_dataset() -> list[LabeledExample]:
    out = []
    for label in ("Research", "Slides", "Thesis"):
        t = DocType.from_label(label)
        for i, (f1, f3, wpp) in enumerate(
            zip(FIXTURE_F1[label], FIXTURE_F3[label], FIXTURE_WORDS_PER_PAGE[label])
        ):
            f2 = f3 * wpp
            out.append(
                LabeledExample(FeatureVector(f1, f2, f3, f2 / f3), t, f"{label}-{i}")
            )
    return out


class TestQuantile:
    def test_median(self):
        assert quantile([1, 2, 3, 4, 5], 0.5) == 3

    def test_lower_quartile_interpolated(self):
        assert quantile([1, 2, 3, 4, 5], 0.25) == 2

    def test_extremes(self):
        vals = [7.5, -2.0, 3.0, 11.0]
        assert quantile(vals, 0.0) == min(vals)
        assert quantile(vals, 1.0) == max(vals)

    def test_matches_numpy_linear(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            vals = rng.normal(size=int(rng.integers(1, 60))).tolist()
            q = float(rng.random())
            assert quantile(vals, q) == pytest.approx(
                float(np.quantile(vals, q)), rel=1e-12, abs=1e-12
            )

    def test_errors(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)

    @pytest.mark.parametrize("values, q, expected", [
        ([-1e308, 1e308], 0.5, 0.0),
        ([-1.7976931348623157e308, 1.7976931348623157e308], 0.25, -8.988465674311579e307),
        ([1.0, 2.0, 4.0], 0.75, 3.0),
    ])
    def test_interpolates_without_overflow(self, values, q, expected):
        assert quantile(values, q) == pytest.approx(expected, rel=1e-15)


class TestTukeyFilter:
    def test_reference_example(self):
        assert tukey_filter([1, 2, 3, 4, 100]) == [1, 2, 3, 4]

    def test_constant_list(self):
        assert tukey_filter([5, 5, 5]) == [5, 5, 5]

    def test_all_inside_unchanged(self):
        vals = [3.0, 1.0, 2.0, 4.0]
        assert tukey_filter(vals) == vals

    def test_empty_error(self):
        with pytest.raises(ValueError):
            tukey_filter([])

    def test_subset_and_fence_property(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            vals = rng.lognormal(1.0, 1.2, size=int(rng.integers(4, 80))).tolist()
            kept = tukey_filter(vals)
            q1, q3 = np.quantile(vals, 0.25), np.quantile(vals, 0.75)
            lo, hi = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
            assert all(v in vals for v in kept)
            assert all(lo - 1e-12 <= v <= hi + 1e-12 for v in kept)
            assert kept == [v for v in vals if lo <= v <= hi]


class TestDeriveThresholds:
    def test_frozen_fixture(self):
        table = derive_thresholds(*dataset_matrix(fixture_dataset()))
        for label, cells in EXPECTED_CELLS.items():
            t = DocType.from_label(label)
            for fid, (lo, hi) in cells.items():
                got_lo, got_hi = cell(table, t, fid)
                assert got_lo == pytest.approx(lo, rel=0, abs=1e-9), (label, fid)
                assert got_hi == pytest.approx(hi, rel=0, abs=1e-9), (label, fid)

    def test_constant_feature_collapses(self):
        data = [make_example(t, f1=7, doc_id=f"{t}-{i}") for t in DocType for i in range(5)]
        table = derive_thresholds(*dataset_matrix(data))
        for t in DocType:
            assert cell(table, t, "f1") == (7.0, 7.0)

    def test_outlier_excluded(self):
        # clustered sample with one enormous value; bounds must ignore it
        values = [4800 + 25 * i for i in range(19)] + [10**9]
        data = [
            make_example(DocType.RESEARCH, f2=v, doc_id=f"r{i}")
            for i, v in enumerate(values)
        ] + [make_example(t, doc_id=f"{t}-pad-{i}") for t in (DocType.SLIDES, DocType.THESIS) for i in range(3)]
        table = derive_thresholds(*dataset_matrix(data))
        lo, hi = cell(table, DocType.RESEARCH, "f2")
        assert hi < 10**6
        assert lo >= 4800

    def test_covers_95_percent_of_filtered(self):
        rng = np.random.default_rng(8)
        data = []
        for t in DocType:
            for i in range(400):
                data.append(
                    make_example(t, f2=float(rng.lognormal(8, 1)), doc_id=f"{t}-{i}")
                )
        table = derive_thresholds(*dataset_matrix(data))
        for t in DocType:
            values = [ex.features.f2_total_words for ex in data if ex.label == t]
            kept = tukey_filter(values)
            lo, hi = cell(table, t, "f2")
            inside = sum(1 for v in kept if lo <= v <= hi)
            # interpolated quantiles can exclude at most one extra point
            # per side, so the guaranteed coverage is 95% - 2/n
            assert inside / len(kept) >= 0.95 - 2.0 / len(kept)

    def test_missing_f1_excluded_from_cell(self):
        data = [make_example(t, doc_id=f"{t}-{i}") for t in DocType for i in range(4)]
        data.append(make_example(DocType.RESEARCH, f1=None, doc_id="nof1"))
        table = derive_thresholds(*dataset_matrix(data))
        assert cell(table, DocType.RESEARCH, "f1") == (1.0, 1.0)

    def test_empty_cell_error_names_cell(self):
        data = [make_example(DocType.RESEARCH, doc_id="r0")]
        with pytest.raises(ThresholdError) as err:
            derive_thresholds(*dataset_matrix(data))
        assert "Slides" in str(err.value)

    @pytest.mark.parametrize("f2, levels, bounds", OVERFLOWING_CELLS, ids=["fences", "bound"])
    def test_overflowing_cell_derives_finite_bounds(self, f2, levels, bounds):
        table = derive_thresholds(*dataset_matrix(overflow_rows(f2)), *levels)
        assert cell(table, DocType.RESEARCH, "f2") == bounds

    @pytest.mark.parametrize(
        "bounds, shown", [((1.0, math.inf), "[1.0, inf]"), ((2.0, 1.0), "[2.0, 1.0]")],
        ids=["infinite", "reversed"],
    )
    def test_unusable_bounds_error_names_cell(self, bounds, shown, monkeypatch):
        # finite values give finite, ordered quantiles, so the outer ones are replaced
        real, outer = stats.quantile, dict(zip((0.025, 0.975), bounds))
        monkeypatch.setattr(
            stats, "quantile", lambda values, q: outer[q] if q in outer else real(values, q)
        )
        with pytest.raises(ThresholdError) as err:
            derive_thresholds(*dataset_matrix(fixture_dataset()))
        assert str(err.value) == (
            f"cell (Research, f1) bounds {shown} must be finite with lower <= upper"
        )

    @staticmethod
    def stored(table: dict):
        """A baseline-threshold model file holding ``table``, loaded."""
        payload = json.loads(train("baseline-threshold", fixture_dataset()).to_json())
        payload["parameters"]["table"] = table
        return load_model(io.StringIO(canonical_json(payload)))

    def test_table_round_trip(self):
        table = derive_thresholds(*dataset_matrix(fixture_dataset()))
        assert threshold_table(self.stored(table)) == table

    def test_table_rejects_future_version(self):
        table = derive_thresholds(*dataset_matrix(fixture_dataset()))
        for version in (2, 99):
            payload = {**table, "format_version": version}
            with pytest.raises(ModelFormatError):
                self.stored(payload)


class TestFitTransform:
    def _data(self, n=50, seed=3):
        rng = np.random.default_rng(seed)
        return [
            make_example(
                DocType.RESEARCH,
                f1=int(rng.integers(1, 6)),
                f2=float(rng.lognormal(8, 1)),
                f3=float(rng.integers(1, 50)),
                doc_id=f"d{i}",
            )
            for i in range(n)
        ]

    def test_identity_round_trip(self):
        X, _ = dataset_matrix(self._data())
        fitted = fit_transform(X, "identity")
        assert fitted == {"kind": "identity", "mean": None, "scale": None}
        assert np.array_equal(apply_transform(fitted, X), X)

    def test_zscore_moments(self):
        X, _ = dataset_matrix(self._data())
        matrix = apply_transform(fit_transform(X, "z-score"), X)
        assert np.allclose(matrix.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(matrix.std(axis=0), 1.0, atol=1e-9)

    def test_zscore_constant_feature_falls_back(self):
        data = [make_example(DocType.RESEARCH, f1=4, doc_id=f"d{i}") for i in range(10)]
        X, _ = dataset_matrix(data)
        fitted = fit_transform(X, "z-score")
        assert apply_transform(fitted, X)[0, 0] == 0.0
        assert fitted["scale"][0] == 1.0 and fitted["mean"][0] == 4.0

    def test_zscore_constant_column_with_inexact_mean_falls_back(self):
        # 300 copies of 5400/14 have a mean one ulp-scale off, so a std of 1e-12
        X = np.column_stack([np.arange(300.0), np.full(300, 5400 / 14)])
        assert X.std(axis=0)[1] > 0.0
        fitted = fit_transform(X, "z-score")
        assert fitted["mean"][1] == 5400 / 14 and fitted["scale"][1] == 1.0
        assert (apply_transform(fitted, X)[:, 1] == 0.0).all()
        assert fitted["scale"][0] == X.std(axis=0)[0]

    def test_log_scale_zero(self):
        data = [
            LabeledExample(FeatureVector(1, 0, 0, 0.0), DocType.RESEARCH, "z"),
            make_example(DocType.RESEARCH, doc_id="other"),
        ]
        X, _ = dataset_matrix(data)
        assert apply_transform(fit_transform(X, "log-scale"), X)[0, 1] == 0.0

    def test_spec_reapplication_matches(self):
        X, _ = dataset_matrix(self._data())
        fitted = fit_transform(X, "z-score")
        restored = read_transform(json.loads(json.dumps(fitted)), X.shape[1])
        assert restored == fitted
        assert np.allclose(apply_transform(restored, X.copy()), apply_transform(fitted, X), atol=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            fit_transform(dataset_matrix(self._data())[0], "box-cox")


class TestImputeF1:
    def test_exact_linear_relation(self):
        data = [
            LabeledExample(FeatureVector(1, 0, 10, 0.0), DocType.RESEARCH, "a"),
            LabeledExample(FeatureVector(4, 0, 40, 0.0), DocType.RESEARCH, "b"),
            LabeledExample(FeatureVector(None, 0, 30, 0.0), DocType.RESEARCH, "c"),
        ]
        out = impute_f1(data)
        assert out[2].features.f1_authors == 3

    def test_constant_class_imputes_constant(self):
        data = [
            make_example(DocType.THESIS, f1=1, f2=50000 + i * 100, f3=100 + i, doc_id=f"t{i}")
            for i in range(10)
        ]
        data.append(make_example(DocType.THESIS, f1=None, f2=70000, f3=150, doc_id="missing"))
        out = impute_f1(data)
        assert out[-1].features.f1_authors == 1

    def test_no_missing_unchanged(self):
        data = [make_example(DocType.RESEARCH, f1=2, doc_id=f"d{i}") for i in range(5)]
        assert impute_f1(data) == data
        assert impute_f1([]) == []

    def test_observed_never_modified_and_range_clamped(self):
        rng = np.random.default_rng(21)
        data = []
        for i in range(60):
            f1 = int(rng.integers(2, 7)) if rng.random() < 0.7 else None
            data.append(
                make_example(
                    DocType.SLIDES,
                    f1=f1,
                    f2=float(rng.lognormal(7, 1)),
                    f3=float(rng.integers(1, 80)),
                    doc_id=f"s{i}",
                )
            )
        observed = [ex.features.f1_authors for ex in data if ex.features.f1_authors is not None]
        out = impute_f1(data)
        for before, after in zip(data, out):
            if before.features.f1_authors is not None:
                assert after.features.f1_authors == before.features.f1_authors
            else:
                assert min(observed) <= after.features.f1_authors <= max(observed)
                assert float(after.features.f1_authors).is_integer()

    def test_fill_needs_an_observed_f1_of_any_class(self):
        data = [make_example(DocType.SLIDES, f1=None, doc_id="s0")] + [
            make_example(DocType.RESEARCH, f1=3, f3=10 + i, doc_id=f"r{i}") for i in range(3)
        ]
        assert impute_f1(data)[0].features.f1_authors == 3
        with pytest.raises(ImputationError, match="^no observed f1 values"):
            impute_f1(data[:1])

    def test_fit_on_train_apply_to_test(self):
        train = [
            LabeledExample(FeatureVector(1, 0, 10, 0.0), DocType.RESEARCH, "a"),
            LabeledExample(FeatureVector(4, 0, 40, 0.0), DocType.RESEARCH, "b"),
        ]
        test = [LabeledExample(FeatureVector(None, 0, 20, 0.0), DocType.RESEARCH, "c")]
        out = apply_imputer(fit_imputer(dataset_matrix(train)[0]), dataset_matrix(test)[0])
        assert out[0, 0] == 2


# ---------------------------------------------------------------------------
# Oracles for the array forms: the per-row object formulas they replaced.
# ---------------------------------------------------------------------------


def object_imputation(train, test):
    """Per-row imputation over LabeledExample lists, reading no label: each
    test row's f1, observed or filled; an error as (type, text)."""
    observed = [ex.features for ex in train if ex.features.f1_authors is not None]
    if not observed:
        return ImputationError, "no observed f1 values to fit the imputer on"
    design = np.array(
        [[1.0, fv.f2_total_words, fv.f3_pages, fv.f4_words_per_page] for fv in observed],
        dtype=float,
    )
    target = np.array([fv.f1_authors for fv in observed], dtype=float)
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    lo, hi = float(target.min()), float(target.max())
    out = []
    for ex in test:
        fv = ex.features
        if fv.f1_authors is not None:
            out.append(fv.f1_authors)
            continue
        raw = float(
            coef @ np.array([1.0, fv.f2_total_words, fv.f3_pages, fv.f4_words_per_page])
        )
        out.append(max(int(lo), min(int(hi), int(np.rint(raw)))))
    return out


def array_imputation(train, test):
    try:
        imputer = fit_imputer(dataset_matrix(train)[0])
    except ImputationError as exc:
        return ImputationError, str(exc)
    return apply_imputer(imputer, dataset_matrix(test)[0])[:, 0].tolist()


@st.composite
def spread_rows(draw, max_size=30):
    """Rows with realistic counts, about a third missing f1."""
    rows = []
    for i in range(draw(st.integers(0, max_size))):
        f2 = draw(st.integers(0, 10**7))
        f3 = draw(st.integers(0, 600))
        f1 = draw(st.one_of(st.none(), st.integers(1, 12), st.sampled_from([1.5, 2.0, 7.25])))
        rows.append(make_example(DocType(draw(st.integers(0, 2))), f1, f2, f3, f"s{i}"))
    return rows


@st.composite
def tie_rows(draw):
    """f1 = a + f3 / 2 exactly on even f3, missing on odd f3, over rows of
    every class, so every fill lands within rounding error of a half integer."""
    rows = []
    a = draw(st.integers(0, 5))
    for t in DocType:
        for i in range(draw(st.integers(2, 12))):
            f3 = draw(st.integers(1, 300))
            f2 = draw(st.integers(1, 10**6))
            f1 = None if f3 % 2 else a + f3 // 2
            rows.append(make_example(t, f1, f2, f3, f"{t.label}{i}"))
    if all(ex.features.f1_authors is None for ex in rows):
        rows.append(make_example(DocType.RESEARCH, 1, 10, 2, "even"))
    return rows


class TestArrayOracles:
    @settings(max_examples=100, deadline=None)
    @given(train=spread_rows(), test=spread_rows(max_size=15))
    def test_imputer_matches_object_formula(self, train, test):
        assert array_imputation(train, test) == object_imputation(train, test)

    @settings(max_examples=300, deadline=None)
    @given(rows=tie_rows())
    def test_imputer_matches_object_formula_near_ties(self, rows):
        assert array_imputation(rows, rows) == object_imputation(rows, rows)

    @settings(max_examples=60, deadline=None)
    @given(rows=spread_rows())
    def test_impute_f1_fills_ints_and_keeps_observed_rows(self, rows):
        expected = object_imputation(rows, rows)
        if rows and isinstance(expected, tuple):
            with pytest.raises(ImputationError):
                impute_f1(rows)
            return
        out = impute_f1(rows)
        for before, after, f1 in zip(rows, out, expected):
            if before.features.f1_authors is not None:
                assert after is before
            else:
                assert type(after.features.f1_authors) is int
                assert after.features.f1_authors == f1
                assert (after.id, after.label) == (before.id, before.label)

    @settings(max_examples=80, deadline=None)
    @given(
        rows=spread_rows(max_size=40),
        levels=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).filter(lambda q: q[0] < q[1]),
    )
    def test_derive_thresholds_matches_per_cell_lists(self, rows, levels):
        lo, hi = levels
        expected = {}
        for t in DocType:
            for fid in ("f1", "f2", "f3", "f4"):
                values = [
                    v for ex in rows if ex.label == t if (v := ex.features.get(fid)) is not None
                ]
                if values:
                    kept = tukey_filter(values)
                    bounds = [quantile(kept, lo), quantile(kept, hi)]
                # a cell with lower > upper is refused too
                if not values or bounds[0] > bounds[1]:
                    with pytest.raises(ThresholdError):
                        derive_thresholds(*dataset_matrix(rows), lo, hi)
                    return
                expected.setdefault(t.label, {})[fid] = bounds
        table = derive_thresholds(*dataset_matrix(rows), lo, hi)
        assert table == {"format_version": 1, "quantile_lo": lo, "quantile_hi": hi, "bounds": expected}
