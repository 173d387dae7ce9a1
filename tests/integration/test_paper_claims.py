"""Integration tests asserting the paper's qualitative findings (E8).

These tests check the *shape* of the paper's results on the synthetic corpus:

* Table I supports live in the paper's band and the headline items mostly
  agree;
* Figure 1 shows no pronounced elbow;
* the cuisine trees reproduce the Section VII claims (Canada ~ France rather
  than Canada ~ US; Indian Subcontinent ~ Northern Africa) on at least the
  pattern-based trees where the paper reports them;
* the authenticity tree agrees with geography at least as well as the
  pattern-based trees (the paper: "similar yet better results");
* East-Asian cuisines cluster together in the cuisine trees.
"""

from __future__ import annotations

from repro.core.table1 import compare_with_paper


class TestTable1Shape:
    def test_supports_in_paper_band(self, full_results):
        for row in full_results.table1.rows:
            assert 0.20 <= row.support <= 0.70, row.region

    def test_pattern_counts_order_of_magnitude(self, full_results):
        for row in full_results.table1.rows:
            assert 5 <= row.n_patterns <= 400, row.region

    def test_headline_items_mostly_match_paper(self, full_results):
        comparison = compare_with_paper(full_results.table1)
        overlap = sum(1 for row in comparison if row["headline_item_overlap"])
        # >= 14 of 26 at the tiny test scale (0.02); the scale-0.05 benchmark
        # asserts >= 20.  The paper's own table has odd rows (e.g. French: skillet).
        assert overlap >= 14

    def test_recipe_counts_proportional_to_paper(self, full_results):
        comparison = compare_with_paper(full_results.table1)
        for row in comparison:
            ratio = row["measured_n_recipes"] / row["paper_n_recipes"]
            assert 0.01 <= ratio <= 0.1  # scale 0.02 with a floor of 20 recipes


class TestFigure1Shape:
    def test_no_pronounced_elbow(self, full_results):
        assert not full_results.elbow.has_clear_elbow

    def test_wcss_trends_downward(self, full_results):
        wcss = full_results.elbow.wcss_values()
        # K-means is a local optimiser; allow small upticks between adjacent k
        # but require a clear overall decrease.
        assert all(later <= earlier * 1.05 + 1e-9 for earlier, later in zip(wcss, wcss[1:]))
        assert wcss[-1] < wcss[0]


class TestSectionVIIClaims:
    def test_canada_france_claim_on_cuisine_trees(self, full_results):
        """Both techniques predict Canadian closer to French than to US."""
        holding = [
            checks[0].holds
            for name, checks in full_results.claim_checks.items()
            if name != "geography" and checks
        ]
        assert sum(holding) >= 3  # at least 3 of the 4 cuisine trees

    def test_canada_france_claim_fails_on_geography(self, full_results):
        geography_checks = full_results.claim_checks["geography"]
        assert not geography_checks[0].holds

    def test_india_northern_africa_affinity(self, full_results):
        holding = [
            checks[1].holds
            for name, checks in full_results.claim_checks.items()
            if name != "geography" and len(checks) > 1
        ]
        assert sum(holding) >= 2

    def test_east_asian_cuisines_cluster_together(self, full_results):
        cophenetic = full_results.figure3_cosine.dendrogram.cophenetic_distances()
        within = cophenetic.distance("Japanese", "Korean")
        across = cophenetic.distance("Japanese", "UK")
        assert within < across
        within2 = cophenetic.distance("Chinese and Mongolian", "Korean")
        across2 = cophenetic.distance("Chinese and Mongolian", "Scandinavian")
        assert within2 < across2


class TestGeographyValidation:
    def test_cuisine_trees_positively_related_to_geography(self, full_results):
        gammas = {
            name: comparison.bakers_gamma
            for name, comparison in full_results.geography_validation.items()
        }
        assert max(gammas.values()) > 0.3

    def test_authenticity_among_best_matches(self, full_results):
        """The paper reports the authenticity tree matching geography at least
        as well as the best pattern-based tree."""
        gammas = full_results.geography_validation
        authenticity = gammas["authenticity"].bakers_gamma
        pattern_best = max(
            gammas[name].bakers_gamma
            for name in ("patterns-euclidean", "patterns-cosine", "patterns-jaccard")
        )
        assert authenticity >= pattern_best - 0.15

    def test_fingerprints_contain_signature_ingredients(self, full_results):
        assert "soy sauce" in full_results.fingerprints["Japanese"].positive_items()
        assert "olive oil" in full_results.fingerprints["Greek"].positive_items()
        assert "cumin" in full_results.fingerprints["Northern Africa"].positive_items()
