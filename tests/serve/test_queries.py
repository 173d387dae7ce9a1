"""Unit tests for the read-path query engine."""

from __future__ import annotations

import pytest

from repro.errors import ServeError
from repro.serve.queries import QueryEngine


@pytest.fixture(scope="module")
def engine(full_results) -> QueryEngine:
    return QueryEngine(full_results)


class TestNearestCuisines:
    def test_returns_k_sorted_neighbours(self, engine):
        nearest = engine.nearest_cuisines("Japanese", k=5)
        assert len(nearest) == 5
        distances = [distance for _, distance in nearest]
        assert distances == sorted(distances)
        assert all(name != "Japanese" for name, _ in nearest)

    def test_matches_distance_matrix(self, engine, full_results):
        run = full_results.run_for("figure2")
        (name, distance), *_ = engine.nearest_cuisines("Japanese", k=1)
        assert distance == pytest.approx(run.distances.distance("Japanese", name))
        # No other cuisine is strictly closer.
        for other in run.labels:
            if other != "Japanese":
                assert run.distances.distance("Japanese", other) >= distance

    def test_every_figure_view_works(self, engine):
        for figure in QueryEngine.FIGURES:
            run_labels = engine.results.run_for(figure).labels
            nearest = engine.nearest_cuisines(run_labels[0], k=2, figure=figure)
            assert len(nearest) == 2

    def test_unknown_cuisine_rejected(self, engine):
        with pytest.raises(ServeError):
            engine.nearest_cuisines("Atlantis")

    def test_bad_k_rejected(self, engine):
        with pytest.raises(ServeError):
            engine.nearest_cuisines("Japanese", k=0)


class TestPatternSearch:
    def test_single_item_search(self, engine):
        hits = engine.pattern_search("soy sauce")
        assert hits
        assert all("soy sauce" in hit.pattern for hit in hits)
        supports = [hit.support for hit in hits]
        assert supports == sorted(supports, reverse=True)

    def test_region_filter(self, engine):
        hits = engine.pattern_search("soy sauce", region="Japanese")
        assert hits
        assert {hit.region for hit in hits} == {"Japanese"}

    def test_min_support_and_limit(self, engine):
        all_hits = engine.pattern_search("soy sauce")
        filtered = engine.pattern_search("soy sauce", min_support=0.5)
        assert len(filtered) <= len(all_hits)
        assert all(hit.support >= 0.5 for hit in filtered)
        assert len(engine.pattern_search("soy sauce", limit=2)) <= 2

    @pytest.mark.parametrize("limit", [0, -1])
    def test_limit_below_one_is_rejected(self, engine, limit):
        # A negative limit used to slice from the end: -1 dropped one hit.
        with pytest.raises(ServeError):
            engine.pattern_search("soy sauce", limit=limit)

    def test_multi_item_conjunction(self, engine, full_results):
        # Find a real compound pattern to query for.
        compound = None
        for region, result in full_results.mining_results.items():
            for pattern in result.non_singletons():
                compound = (region, pattern)
                break
            if compound:
                break
        assert compound is not None, "corpus must mine at least one compound pattern"
        region, pattern = compound
        hits = engine.pattern_search(pattern.items, region=region)
        assert any(hit.pattern == pattern.as_string() for hit in hits)

    def test_empty_query_rejected(self, engine):
        with pytest.raises(ServeError):
            engine.pattern_search([])

    def test_unknown_region_rejected(self, engine):
        with pytest.raises(ServeError):
            engine.pattern_search("soy sauce", region="Atlantis")


class TestAuthenticityAndProfiles:
    def test_authenticity_profile_sorted_descending(self, engine, full_results):
        fingerprint = full_results.fingerprints["Japanese"]
        item, value = fingerprint.most_authentic[0]
        profile = engine.authenticity_profile(item)
        assert profile["Japanese"] == pytest.approx(value)
        values = list(profile.values())
        assert values == sorted(values, reverse=True)

    def test_unknown_item_gives_empty_profile(self, engine):
        assert engine.authenticity_profile("unobtainium") == {}

    def test_signature_items(self, engine, full_results):
        items = engine.signature_items("Japanese", k=3)
        assert items == list(full_results.fingerprints["Japanese"].most_authentic[:3])
        with pytest.raises(ServeError):
            engine.signature_items("Atlantis")

    def test_top_patterns(self, engine, full_results):
        hits = engine.top_patterns("Japanese", k=3)
        expected = full_results.mining_results["Japanese"].top(3)
        assert [hit.pattern for hit in hits] == [p.as_string() for p in expected]
        assert all(hit.region == "Japanese" for hit in hits)

    def test_cuisine_profile_card(self, engine):
        card = engine.cuisine_profile("Japanese", k=3)
        assert card["cuisine"] == "Japanese"
        assert card["n_recipes"] > 0
        assert len(card["top_patterns"]) == 3
        assert len(card["nearest_by_patterns"]) == 3
        assert len(card["nearest_by_authenticity"]) == 3
        assert all("item" in row for row in card["signature_items"])
