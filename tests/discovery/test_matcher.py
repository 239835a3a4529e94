"""Schema matcher tests: semantic (coherent groups) vs syntactic."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import Table
from repro.discovery import (
    SemanticMatcher,
    SyntacticMatcher,
    evaluate_links,
    name_word_group,
)


class TestNameWordGroup:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("biopsy_site", ["biopsy", "site"]),
            ("biopsySite", ["biopsy", "site"]),
            ("biopsy-site", ["biopsy", "site"]),
            ("Biopsy Site ID", ["biopsy", "site", "id"]),
            ("simple", ["simple"]),
            ("dept.name", ["dept", "name"]),
        ],
    )
    def test_splitting(self, name, expected):
        assert name_word_group(name) == expected


@pytest.fixture(scope="module")
def vector_space():
    """Hand-built embedding space with a medical and a location cluster."""
    vectors = {
        "biopsy": np.array([1.0, 0.1, 0.0]),
        "site": np.array([0.9, 0.2, 0.0]),
        "tissue": np.array([0.95, 0.15, 0.0]),
        "sample": np.array([0.85, 0.2, 0.1]),
        "city": np.array([0.0, 1.0, 0.1]),
        "location": np.array([0.1, 0.95, 0.1]),
        "town": np.array([0.05, 0.9, 0.2]),
        "lung": np.array([0.8, 0.0, 0.3]),
        "paris": np.array([0.0, 0.8, 0.3]),
        "berlin": np.array([0.05, 0.85, 0.25]),
    }
    return lambda w: vectors.get(w, np.zeros(3)), 3


class TestSemanticMatcher:
    def test_semantically_related_columns_score_higher(self, vector_space):
        fn, dim = vector_space
        table_a = Table("a", ["biopsy_site"], rows=[["lung"]])
        table_b = Table("b", ["tissue_sample"], rows=[["lung"]])
        table_c = Table("c", ["city_location"], rows=[["paris"]])
        matcher = SemanticMatcher(fn, dim)
        related = matcher.score_columns(table_a, "biopsy_site", table_b, "tissue_sample")
        unrelated = matcher.score_columns(table_a, "biopsy_site", table_c, "city_location")
        assert related.score > unrelated.score

    def test_value_similarity_component(self, vector_space):
        fn, dim = vector_space
        cities_a = Table("a", ["place"], rows=[["paris"], ["berlin"]])
        cities_b = Table("b", ["spot"], rows=[["berlin"], ["paris"]])
        medical = Table("c", ["spot"], rows=[["lung"], ["lung"]])
        matcher = SemanticMatcher(fn, dim, name_weight=0.0)
        same_values = matcher.score_columns(cities_a, "place", cities_b, "spot")
        different = matcher.score_columns(cities_a, "place", medical, "spot")
        assert same_values.value_score > different.value_score

    def test_match_tables_threshold(self, vector_space):
        fn, dim = vector_space
        table_a = Table("a", ["biopsy_site", "city"], rows=[["lung", "paris"]])
        table_b = Table("b", ["tissue_sample", "town"], rows=[["lung", "berlin"]])
        matcher = SemanticMatcher(fn, dim)
        links = matcher.match_tables(table_a, table_b, threshold=0.55)
        keys = {(l.column_a, l.column_b) for l in links}
        assert ("biopsy_site", "tissue_sample") in keys
        assert ("biopsy_site", "town") not in keys

    def test_invalid_name_weight(self, vector_space):
        fn, dim = vector_space
        with pytest.raises(ValueError):
            SemanticMatcher(fn, dim, name_weight=1.5)


class TestSyntacticMatcher:
    def test_spurious_string_match_scores_high(self):
        """[21]'s example: 'biopsy site' vs 'site_components' look alike
        syntactically even though they are semantically unrelated."""
        table_a = Table("a", ["biopsy_site"], rows=[["alpha"]])
        table_b = Table("b", ["site_components"], rows=[["beta"]])
        matcher = SyntacticMatcher(name_weight=1.0)
        link = matcher.score_columns(table_a, "biopsy_site", table_b, "site_components")
        assert link.name_score >= 0.3  # shares 'site'

    def test_value_overlap(self):
        table_a = Table("a", ["c"], rows=[["x"], ["y"]])
        table_b = Table("b", ["c"], rows=[["x"], ["z"]])
        matcher = SyntacticMatcher(name_weight=0.0)
        link = matcher.score_columns(table_a, "c", table_b, "c")
        assert link.value_score == 0.5

    @pytest.mark.parametrize("name_weight", [float("nan"), 1.5, -0.2])
    def test_invalid_name_weight(self, name_weight):
        with pytest.raises(ValueError, match="name_weight"):
            SyntacticMatcher(name_weight=name_weight)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_match_tables_equals_per_pair_scoring(self, jobs):
        """``match_tables`` makes each column's value set once; its links
        equal scoring every pair alone with ``score_columns``."""
        table_a = Table(
            "a", ["full_name", "City", "dept_id"],
            rows=[["Ann Lee", "Paris", 1], ["bob", None, 2], ["Cy", "paris", float("nan")]],
        )
        table_b = Table(
            "b", ["name", "town", "dept"],
            rows=[["ann lee", "PARIS", "1"], ["BOB", "Rome", None], ["eve", "", 2]],
        )
        matcher = SyntacticMatcher(name_weight=0.4)
        every_pair = [
            matcher.score_columns(table_a, column_a, table_b, column_b)
            for column_a in table_a.columns
            for column_b in table_b.columns
        ]
        want = sorted((l for l in every_pair if l.score >= 0.2), key=lambda l: -l.score)
        got = matcher.match_tables(table_a, table_b, threshold=0.2, jobs=jobs)
        assert got == want
        assert any(0.0 < link.value_score < 1.0 for link in got)


class TestEvaluateLinks:
    def test_order_insensitive(self, vector_space):
        fn, dim = vector_space
        table_a = Table("a", ["biopsy_site"], rows=[["lung"]])
        table_b = Table("b", ["tissue_sample"], rows=[["lung"]])
        link = SemanticMatcher(fn, dim).score_columns(
            table_a, "biopsy_site", table_b, "tissue_sample"
        )
        gold = {("b", "tissue_sample", "a", "biopsy_site")}
        metrics = evaluate_links([link], gold)
        assert metrics["precision"] == 1.0
        assert metrics["recall"] == 1.0

    def test_empty_prediction(self):
        metrics = evaluate_links([], {("a", "x", "b", "y")})
        assert metrics["f1"] == 0.0
