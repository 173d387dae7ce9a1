"""Unit tests for feature vectorisation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import FeatureError
from repro.authenticity.prevalence import prevalence_matrix
from repro.authenticity.relative import relative_prevalence
from repro.features.vectorize import (
    authenticity_feature_matrix,
    coordinate_feature_matrix,
    pattern_membership_matrix,
)
from repro.mining.eclat import EclatMiner


@pytest.fixture()
def mining_results(toy_db):
    return {
        region: EclatMiner(0.6).mine(toy_db.transactions_for_region(region))
        for region in toy_db.region_names()
    }


class TestPatternMembershipMatrix:
    def test_binary_membership(self, mining_results):
        matrix, encoder = pattern_membership_matrix(mining_results, weighting="binary")
        assert matrix.row_labels == ("Italian", "Japanese", "UK")
        assert matrix.n_columns == len(encoder)
        assert set(np.unique(matrix.values)) <= {0.0, 1.0}
        # The Japanese row must flag exactly its own patterns.
        japanese_row = matrix.row("Japanese")
        expected = set(mining_results["Japanese"].string_patterns())
        flagged = {
            matrix.column_labels[i] for i, value in enumerate(japanese_row) if value == 1.0
        }
        assert flagged == expected

    def test_support_weighting(self, mining_results):
        matrix, _encoder = pattern_membership_matrix(mining_results, weighting="support")
        japanese = mining_results["Japanese"]
        for pattern in japanese:
            column = pattern.as_string()
            assert matrix.values[
                matrix.row_labels.index("Japanese"),
                matrix.column_labels.index(column),
            ] == pytest.approx(pattern.support)

    def test_row_sums_equal_pattern_counts(self, mining_results):
        matrix, _ = pattern_membership_matrix(mining_results, weighting="binary")
        for region, result in mining_results.items():
            assert matrix.row(region).sum() == pytest.approx(len(result))

    def test_unknown_weighting_rejected(self, mining_results):
        with pytest.raises(FeatureError):
            pattern_membership_matrix(mining_results, weighting="tfidf")


class TestAuthenticityFeatureMatrix:
    def test_wraps_authenticity(self, toy_db):
        authenticity = relative_prevalence(prevalence_matrix(toy_db))
        matrix = authenticity_feature_matrix(authenticity)
        assert matrix.row_labels == authenticity.cuisines
        assert matrix.column_labels == authenticity.items
        np.testing.assert_allclose(matrix.values, authenticity.values)

    def test_is_a_copy(self, toy_db):
        authenticity = relative_prevalence(prevalence_matrix(toy_db))
        matrix = authenticity_feature_matrix(authenticity)
        matrix.values[0, 0] = 42.0
        assert authenticity.values[0, 0] != 42.0


class TestCoordinateFeatureMatrix:
    def test_basic(self):
        matrix = coordinate_feature_matrix({"B": (1.0, 2.0), "A": (3.0, 4.0)})
        assert matrix.row_labels == ("A", "B")
        assert matrix.column_labels == ("latitude", "longitude")
        np.testing.assert_allclose(matrix.row("A"), [3.0, 4.0])

    def test_validation(self):
        with pytest.raises(FeatureError):
            coordinate_feature_matrix({})
        with pytest.raises(FeatureError):
            coordinate_feature_matrix({"A": (1.0, 2.0, 3.0)})

    def test_custom_columns(self):
        matrix = coordinate_feature_matrix(
            {"A": (1.0, 2.0, 3.0)}, column_labels=("x", "y", "z")
        )
        assert matrix.column_labels == ("x", "y", "z")
