"""Unit tests for the vectorized recipe → cuisine classifier."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ServeError
from repro.serve.classify import CuisineClassifier
from tests.oracles.classify import classify_batch_naive


@pytest.fixture(scope="module")
def classifier(full_results) -> CuisineClassifier:
    return CuisineClassifier.from_results(full_results)


def signature_recipe(full_results, cuisine: str, k: int = 6) -> list[str]:
    """An ingredient list stacked with a cuisine's most authentic items."""
    return [item for item, _ in full_results.fingerprints[cuisine].most_authentic[:k]]


class TestConstruction:
    def test_cuisines_and_vocabulary_compiled(self, classifier, full_results):
        assert classifier.cuisines == tuple(full_results.regions())
        assert len(classifier.vocabulary) > 0
        # Every fingerprint item is scoreable.
        fingerprint = full_results.fingerprints["Japanese"]
        for item, _ in fingerprint.most_authentic:
            assert item in classifier.vocabulary

    def test_invalid_weights_rejected(self, full_results):
        with pytest.raises(ServeError):
            CuisineClassifier.from_results(full_results, pattern_weight=-1.0)
        with pytest.raises(ServeError):
            CuisineClassifier.from_results(
                full_results, pattern_weight=0.0, authenticity_weight=0.0
            )


class TestClassification:
    def test_signature_recipes_classify_home(self, classifier, full_results):
        """Fingerprint-stacked recipes must land on their own cuisine mostly."""
        correct = 0
        cuisines = full_results.regions()
        for cuisine in cuisines:
            recipe = signature_recipe(full_results, cuisine)
            if classifier.classify(recipe).best == cuisine:
                correct += 1
        assert correct >= int(0.8 * len(cuisines))

    def test_batch_matches_single(self, classifier, full_results):
        recipes = [
            signature_recipe(full_results, cuisine)
            for cuisine in list(full_results.regions())[:5]
        ]
        batch = classifier.classify_batch(recipes)
        singles = [classifier.classify(recipe) for recipe in recipes]
        assert [c.best for c in batch] == [s.best for s in singles]
        for batched, single in zip(batch, singles):
            assert batched.scores == pytest.approx(single.scores)

    def test_large_batch_single_pass(self, classifier, full_results):
        """Thousands of recipes classify without issue (one numpy pass)."""
        base = [
            signature_recipe(full_results, cuisine)
            for cuisine in full_results.regions()
        ]
        recipes = [base[i % len(base)] for i in range(2000)]
        classifications = classifier.classify_batch(recipes)
        assert len(classifications) == 2000
        # Identical recipes classify identically.
        assert classifications[0].best == classifications[len(base)].best

    def test_unknown_items_reported_not_fatal(self, classifier):
        result = classifier.classify(["unobtainium", "vibranium"])
        assert result.known_items == 0
        assert set(result.unknown_items) == {"unobtainium", "vibranium"}
        assert result.matched_patterns == 0
        assert result.best in classifier.cuisines  # deterministic fallback

    def test_empty_batch(self, classifier):
        assert classifier.classify_batch([]) == []

    def test_deterministic_tie_breaking(self, classifier):
        # All-unknown recipes give all-zero scores for both evidence families,
        # so the winner must be the alphabetically first cuisine.
        result = classifier.classify(["unobtainium"])
        assert result.best == min(classifier.cuisines)

    def test_ranked_orders_scores(self, classifier, full_results):
        result = classifier.classify(signature_recipe(full_results, "Japanese"))
        ranked = result.ranked()
        values = [score for _, score in ranked]
        assert values == sorted(values, reverse=True)
        assert ranked[0][0] == result.best

    def test_matched_patterns_counts_containment(self, classifier, full_results):
        top = full_results.mining_results["Japanese"].top_pattern()
        result = classifier.classify(list(top.items))
        assert result.matched_patterns >= 1

    def test_to_dict_is_json_friendly(self, classifier, full_results):
        import json

        result = classifier.classify(signature_recipe(full_results, "Japanese"))
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["best"] == result.best


class TestEvidenceFamilies:
    def test_negative_authenticity_votes_against(self, classifier, full_results):
        """Avoided items must lower a cuisine's score."""
        fingerprints = full_results.fingerprints["Japanese"]
        avoided = [item for item, value in fingerprints.least_authentic if value < 0]
        if not avoided:
            pytest.skip("no negatively-authentic items for Japanese in this corpus")
        base = signature_recipe(full_results, "Japanese")
        with_avoided = base + avoided[:3]
        base_score = classifier.classify(base).scores["Japanese"]
        worse_score = classifier.classify(with_avoided).scores["Japanese"]
        assert worse_score < base_score

    def test_pattern_only_classifier(self, full_results):
        classifier = CuisineClassifier.from_results(full_results, authenticity_weight=0.0)
        top = full_results.mining_results["Japanese"].top_pattern()
        result = classifier.classify(list(top.items))
        assert result.scores["Japanese"] > 0

    def test_authenticity_only_classifier(self, full_results):
        classifier = CuisineClassifier.from_results(full_results, pattern_weight=0.0)
        recipe = signature_recipe(full_results, "Japanese")
        result = classifier.classify(recipe)
        assert result.best == "Japanese"
        assert np.isfinite(list(result.scores.values())).all()


class TestTopK:
    def test_top_k_truncates_to_best(self, classifier, full_results):
        recipe = signature_recipe(full_results, "Japanese")
        full = classifier.classify(recipe)
        top = classifier.classify(recipe, top_k=3)
        assert top.ranked() == full.ranked()[:3]
        assert top.best == full.best
        assert len(top.scores) == 3

    def test_top_k_none_keeps_every_cuisine(self, classifier, full_results):
        recipe = signature_recipe(full_results, "Japanese")
        result = classifier.classify(recipe, top_k=None)
        assert set(result.scores) == set(classifier.cuisines)

    def test_top_k_beyond_cuisine_count_is_full(self, classifier, full_results):
        recipe = signature_recipe(full_results, "Japanese")
        result = classifier.classify(recipe, top_k=10_000)
        assert set(result.scores) == set(classifier.cuisines)

    def test_top_k_must_be_positive(self, classifier):
        with pytest.raises(ServeError):
            classifier.classify(["rice"], top_k=0)
        with pytest.raises(ServeError):
            classifier.classify(["rice"]).top_k(0)


class TestNaiveParity:
    def test_vectorized_matches_naive_baseline(self, classifier, full_results):
        """The matmul path agrees with the per-recipe Python reference."""
        recipes = [
            signature_recipe(full_results, cuisine)
            for cuisine in list(full_results.regions())[:8]
        ]
        recipes.append(["unobtainium"])
        recipes.append([])
        fast = classifier.classify_batch(recipes)
        slow = classify_batch_naive(classifier, recipes)
        for a, b in zip(fast, slow):
            assert a.matched_patterns == b.matched_patterns
            assert a.known_items == b.known_items
            assert a.unknown_items == b.unknown_items
            assert a.scores == pytest.approx(b.scores, abs=1e-5)
            assert a.best == b.best
