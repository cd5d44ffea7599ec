"""Rule labels, the sample-size formula, and stratified machinery."""

import collections
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from doctype.config import DEFAULT_PROPORTIONS
from doctype.errors import ShortageError, SplitError
from doctype.ingest import DocType, DocumentRecord
from doctype.labeling import (
    balanced_sample,
    largest_remainder_counts,
    rule_label,
    sample_size,
    stratified_split,
)
from doctype.synthetic import generate_synthetic

from conftest import make_example

PROPS = {DocType.RESEARCH: 0.55, DocType.SLIDES: 0.10, DocType.THESIS: 0.35}


def record(title="A study", subjects=()):
    return DocumentRecord("r", ("a",), title, tuple(subjects), ())


class TestRuleLabel:
    def test_doctoral_thesis_subject(self):
        rec = record(subjects=["info:eu-repo/semantics/doctoralthesis"])
        assert rule_label(rec) is DocType.THESIS

    def test_presentation_in_title(self):
        rec = record(title="Conference presentation on parsing", subjects=["article"])
        assert rule_label(rec) is DocType.SLIDES

    def test_default_research(self):
        assert rule_label(record(title="A study of compilers")) is DocType.RESEARCH

    def test_thesis_precedes_slides(self):
        rec = record(title="Defense slides", subjects=["masters thesis"])
        assert rule_label(rec) is DocType.THESIS

    def test_case_insensitive_substring(self):
        assert rule_label(record(subjects=["DISSERTATION 2019"])) is DocType.THESIS
        assert rule_label(record(title="SLIDES deck")) is DocType.SLIDES

    def test_total_on_random_inputs(self):
        rng = np.random.default_rng(3)
        words = ["thesis", "slides", "study", "data", "presentation", "dissertation"]
        for _ in range(200):
            title = " ".join(rng.choice(words, size=rng.integers(0, 4)))
            subjects = list(rng.choice(words, size=rng.integers(0, 3)))
            assert rule_label(record(title=title, subjects=subjects)) in DocType


class TestSampleSize:
    def test_reference_value(self):
        assert sample_size(1.96, 0.5, 0.01) == 9604

    def test_zero_variance(self):
        assert sample_size(1.96, 0.0, 0.01) == 0

    def test_wider_interval(self):
        assert sample_size(1.96, 0.5, 0.02) == 2401

    def test_monotone_decreasing_in_c(self):
        sizes = [sample_size(1.96, 0.5, c) for c in (0.005, 0.01, 0.02, 0.05, 0.1)]
        assert sizes == sorted(sizes, reverse=True)

    def test_maximized_at_half(self):
        peak = sample_size(2.0, 0.5, 0.01)
        for p in (0.0, 0.1, 0.3, 0.49, 0.51, 0.9, 1.0):
            assert sample_size(2.0, p, 0.01) <= peak

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            sample_size(1.96, 0.5, 0.0)
        with pytest.raises(ValueError):
            sample_size(1.96, 0.5, -1.0)

    @pytest.mark.parametrize(
        "z, p, c",
        [(math.inf, 0.5, 0.01), (1.96, math.nan, 0.01), (1.96, 0.5, math.inf), (1.96, 0.5, 1e-200)],
    )
    def test_non_finite_input_or_count_rejected(self, z, p, c):
        with pytest.raises(ValueError, match="finite"):
            sample_size(z, p, c)

    @given(z=st.floats(), p=st.floats(), c=st.floats(allow_subnormal=True))
    def test_returns_a_count_or_raises_value_error(self, z, p, c):
        try:
            n = sample_size(z, p, c)
        except ValueError:
            return
        assert type(n) is int and n >= 0


class TestLargestRemainder:
    def test_reference_proportions(self):
        counts = largest_remainder_counts(1000, PROPS)
        assert counts == {DocType.RESEARCH: 550, DocType.SLIDES: 100, DocType.THESIS: 350}

    def test_always_hits_total(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            raw = rng.random(3)
            props = dict(zip(DocType, raw / raw.sum()))
            total = int(rng.integers(0, 500))
            counts = largest_remainder_counts(total, props)
            assert sum(counts.values()) == total
            for t in DocType:
                assert abs(counts[t] - total * props[t]) <= 1.0


class TestBalancedSample:
    def _pool(self, per_class=600):
        return [
            make_example(t, doc_id=f"{t.label}-{i}")
            for t in DocType
            for i in range(per_class)
        ]

    def test_reference_counts(self):
        picked = balanced_sample(self._pool(), 1000, PROPS, seed=1)
        counts = collections.Counter(ex.label for ex in picked)
        assert counts[DocType.RESEARCH] == 550
        assert counts[DocType.SLIDES] == 100
        assert counts[DocType.THESIS] == 350

    def test_target_zero(self):
        assert balanced_sample(self._pool(), 0, PROPS, seed=1) == []

    def test_deterministic(self):
        a = balanced_sample(self._pool(), 500, PROPS, seed=42)
        b = balanced_sample(self._pool(), 500, PROPS, seed=42)
        assert [ex.id for ex in a] == [ex.id for ex in b]

    def test_shortage_names_class(self):
        pool = self._pool(per_class=600)
        pool = [ex for ex in pool if ex.label is not DocType.SLIDES][:1200]
        pool += [make_example(DocType.SLIDES, doc_id="only-slide")]
        with pytest.raises(ShortageError) as err:
            balanced_sample(pool, 1000, PROPS, seed=0)
        assert "Slides" in str(err.value)

    def test_bad_proportions(self):
        with pytest.raises(ValueError):
            balanced_sample(self._pool(), 10, {DocType.RESEARCH: 0.5}, seed=0)

    def test_negative_proportion_rejected(self):
        proportions = {DocType.RESEARCH: -0.5, DocType.SLIDES: 1.0, DocType.THESIS: 0.5}
        with pytest.raises(ValueError, match="proportions must be non-negative"):
            balanced_sample(self._pool(), 20, proportions, seed=0)


class TestStratifiedSplit:
    def _pool(self, n_r=550, n_s=100, n_t=350):
        sizes = {DocType.RESEARCH: n_r, DocType.SLIDES: n_s, DocType.THESIS: n_t}
        return [
            make_example(t, doc_id=f"{t.label}-{i}")
            for t, n in sizes.items()
            for i in range(n)
        ]

    def test_reference_counts(self):
        split = stratified_split(self._pool(), 10, 0.2, seed=5)
        val_counts = collections.Counter(ex.label for ex in split.validation)
        assert val_counts == {DocType.RESEARCH: 110, DocType.SLIDES: 20, DocType.THESIS: 70}
        for fold in split.test_folds:
            fold_counts = collections.Counter(ex.label for ex in fold)
            assert fold_counts == {
                DocType.RESEARCH: 44,
                DocType.SLIDES: 8,
                DocType.THESIS: 28,
            }

    def test_two_disjoint_halves(self):
        pool = self._pool(20, 10, 10)
        split = stratified_split(pool, 2, 0.0, seed=1)
        ids_a = {ex.id for ex in split.test_folds[0]}
        ids_b = {ex.id for ex in split.test_folds[1]}
        assert not ids_a & ids_b
        assert ids_a | ids_b == {ex.id for ex in pool}
        assert split.validation == []

    def test_disjoint_exhaustive_id_multiset(self):
        pool = self._pool(201, 97, 103)
        split = stratified_split(pool, 7, 0.13, seed=9)
        all_ids = sorted(ex.id for ex in pool)
        split_ids = sorted(
            [ex.id for ex in split.validation]
            + [ex.id for fold in split.test_folds for ex in fold]
        )
        assert split_ids == all_ids
        train_ids = sorted(ex.id for ex in split.train)
        fold_ids = sorted(ex.id for fold in split.test_folds for ex in fold)
        assert train_ids == fold_ids

    def test_train_is_fold_rows_when_rows_repeat(self):
        rows = generate_synthetic(60, DEFAULT_PROPORTIONS, seed=1)
        rows[:2] = [dataclasses.replace(ex, id="dup") for ex in rows[:2]]
        rows.append(rows[2])  # the same object twice
        for seed in range(5):
            split = stratified_split(rows, 3, 0.2, seed)
            fold_rows = [ex for fold in split.test_folds for ex in fold]
            assert collections.Counter(map(id, split.train)) == collections.Counter(map(id, fold_rows))
            assert len(split.validation) + len(split.train) == len(rows)

    def test_fold_proportions_within_one(self):
        pool = self._pool(549, 99, 349)  # 997 examples, imbalanced
        for seed in (0, 1, 2, 3, 4):
            split = stratified_split(pool, 10, 0.0, seed=seed)
            totals = collections.Counter(ex.label for ex in pool)
            for fold in split.test_folds:
                counts = collections.Counter(ex.label for ex in fold)
                for t in DocType:
                    expected = totals[t] * len(fold) / len(pool)
                    assert abs(counts[t] - expected) <= 1.0 + 1e-9

    def test_class_smaller_than_k(self):
        pool = self._pool(50, 3, 50)
        with pytest.raises(SplitError) as err:
            stratified_split(pool, 10, 0.0, seed=0)
        assert "Slides" in str(err.value)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            stratified_split(self._pool(), 1, 0.0, seed=0)
        with pytest.raises(ValueError):
            stratified_split(self._pool(), 10, 1.0, seed=0)

    def test_deterministic(self):
        a = stratified_split(self._pool(), 10, 0.2, seed=3)
        b = stratified_split(self._pool(), 10, 0.2, seed=3)
        assert [ex.id for ex in a.validation] == [ex.id for ex in b.validation]
        for fa, fb in zip(a.test_folds, b.test_folds):
            assert [ex.id for ex in fa] == [ex.id for ex in fb]
