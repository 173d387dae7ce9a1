"""Unit tests for the prevalence matrix (equation 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import FeatureError
from repro.authenticity.prevalence import PrevalenceMatrix, prevalence_matrix
from repro.recipedb.models import EntityKind
from tests.oracles.prevalence import prevalence_from_transactions


class TestPrevalenceFromTransactions:
    def test_known_values(self):
        transactions = {
            "Japan": [{"soy", "rice"}, {"soy"}, {"rice"}],
            "Italy": [{"olive"}, {"olive", "rice"}],
        }
        matrix = prevalence_from_transactions(transactions)
        assert matrix.prevalence("Japan", "soy") == pytest.approx(2 / 3)
        assert matrix.prevalence("Japan", "olive") == 0.0
        assert matrix.prevalence("Italy", "olive") == pytest.approx(1.0)
        assert matrix.prevalence("Italy", "rice") == pytest.approx(0.5)

    def test_duplicate_items_in_one_recipe_count_once(self):
        transactions = {"X": [["soy", "soy", "rice"]]}
        matrix = prevalence_from_transactions(transactions)
        assert matrix.prevalence("X", "soy") == 1.0

    def test_document_frequency_filter(self):
        transactions = {
            "A": [{"common", "rare"}],
            "B": [{"common"}],
        }
        matrix = prevalence_from_transactions(transactions, min_document_frequency=2)
        assert "rare" not in matrix.items
        assert "common" in matrix.items

    def test_empty_input_rejected(self):
        with pytest.raises(FeatureError):
            prevalence_from_transactions({})
        with pytest.raises(FeatureError):
            prevalence_from_transactions({"A": [{"x"}]}, min_document_frequency=0)

    def test_filter_removing_everything_rejected(self):
        with pytest.raises(FeatureError):
            prevalence_from_transactions({"A": [{"x"}]}, min_document_frequency=5)


class TestPrevalenceMatrix:
    def _matrix(self) -> PrevalenceMatrix:
        return PrevalenceMatrix(
            cuisines=("A", "B"),
            items=("x", "y", "z"),
            values=np.array([[1.0, 0.5, 0.0], [0.2, 0.0, 0.8]]),
        )

    def test_shape_validation(self):
        with pytest.raises(FeatureError):
            PrevalenceMatrix(("A",), ("x",), np.zeros((2, 1)))
        with pytest.raises(FeatureError):
            PrevalenceMatrix(("A",), ("x",), np.array([[1.5]]))

    def test_lookups(self):
        matrix = self._matrix()
        assert matrix.prevalence("A", "y") == 0.5
        np.testing.assert_allclose(matrix.cuisine_vector("B"), [0.2, 0.0, 0.8])
        np.testing.assert_allclose(matrix.item_vector("x"), [1.0, 0.2])
        with pytest.raises(FeatureError):
            matrix.prevalence("C", "x")
        with pytest.raises(FeatureError):
            matrix.prevalence("A", "q")

    def test_mean_and_top_items(self):
        matrix = self._matrix()
        np.testing.assert_allclose(matrix.mean_item_prevalence(), [0.6, 0.25, 0.4])
        assert matrix.top_items("A", 2) == [("x", 1.0), ("y", 0.5)]
        with pytest.raises(FeatureError):
            matrix.top_items("A", 0)

    def test_restrict_items(self):
        restricted = self._matrix().restrict_items(["z", "x"])
        assert restricted.items == ("z", "x")
        assert restricted.prevalence("B", "z") == 0.8

    def test_to_dict(self):
        payload = self._matrix().to_dict()
        assert payload["cuisines"] == ["A", "B"]
        assert len(payload["values"]) == 2


class TestPrevalenceFromDatabase:
    def test_ingredient_only_by_default(self, toy_db):
        matrix = prevalence_matrix(toy_db)
        assert "soy sauce" in matrix.items
        assert "heat" not in matrix.items  # processes excluded by default
        assert matrix.prevalence("Japanese", "soy sauce") == pytest.approx(1.0)
        assert matrix.prevalence("UK", "butter") == pytest.approx(1.0)
        assert matrix.prevalence("UK", "soy sauce") == 0.0

    def test_all_kinds_when_requested(self, toy_db):
        matrix = prevalence_matrix(toy_db, kinds=None)
        assert "heat" in matrix.items
        assert "oven" in matrix.items

    def test_prevalence_values_are_probabilities(self, toy_db):
        matrix = prevalence_matrix(toy_db, kinds=(EntityKind.INGREDIENT,))
        assert np.all(matrix.values >= 0.0)
        assert np.all(matrix.values <= 1.0)
