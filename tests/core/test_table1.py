"""Unit tests for the Table I reproduction."""

from __future__ import annotations

import pytest

from repro.errors import PipelineError
from repro.core.table1 import build_table1, compare_with_paper
from repro.mining.eclat import EclatMiner


@pytest.fixture()
def mining_results(toy_db):
    return {
        region: EclatMiner(0.6).mine(toy_db.transactions_for_region(region))
        for region in toy_db.region_names()
    }


class TestBuildTable1:
    def test_rows_cover_all_regions(self, toy_db, mining_results):
        table = build_table1(toy_db, mining_results)
        assert table.regions() == ["Italian", "Japanese", "UK"]
        assert table.min_support == 0.6

    def test_row_values(self, toy_db, mining_results):
        table = build_table1(toy_db, mining_results)
        japan = table.row_for("Japanese")
        assert japan.n_recipes == 3
        assert "soy sauce" in japan.top_pattern
        assert japan.support == pytest.approx(1.0)
        assert japan.n_patterns == len(mining_results["Japanese"])

    def test_prefer_compound(self, toy_db, mining_results):
        table = build_table1(toy_db, mining_results, prefer_compound=True)
        uk = table.row_for("UK")
        assert "+" in uk.top_pattern

    def test_row_for_unknown_region(self, toy_db, mining_results):
        table = build_table1(toy_db, mining_results)
        with pytest.raises(PipelineError):
            table.row_for("Atlantis")

    def test_empty_results_rejected(self, toy_db):
        with pytest.raises(PipelineError):
            build_table1(toy_db, {})

    def test_to_dicts(self, toy_db, mining_results):
        table = build_table1(toy_db, mining_results)
        rows = table.to_dicts()
        assert len(rows) == 3
        assert set(rows[0]) == {"region", "n_recipes", "top_pattern", "support", "n_patterns"}


class TestCompareWithPaper:
    def test_only_paper_regions_compared(self, toy_db, mining_results):
        table = build_table1(toy_db, mining_results)
        comparison = compare_with_paper(table)
        # Japanese, Italian and UK are all paper regions.
        assert {row["region"] for row in comparison} == {"Italian", "Japanese", "UK"}
        for row in comparison:
            assert set(row) >= {
                "paper_top_pattern", "measured_top_pattern",
                "paper_support", "measured_support", "headline_item_overlap",
            }

    def test_headline_overlap_flags(self, toy_db, mining_results):
        table = build_table1(toy_db, mining_results)
        comparison = {row["region"]: row for row in compare_with_paper(table)}
        assert comparison["Japanese"]["headline_item_overlap"]  # soy sauce matches
        assert comparison["UK"]["headline_item_overlap"]  # butter matches

    def test_full_pipeline_table_matches_paper_shape(self, full_results):
        """On the generated 26-cuisine corpus the reproduced Table I should
        agree with the paper on most headline items and stay within the
        paper's support range."""
        comparison = compare_with_paper(full_results.table1)
        assert len(comparison) == 26
        overlap = sum(1 for row in comparison if row["headline_item_overlap"])
        # the test corpus is tiny (scale 0.02, ~2.4k recipes) so small cuisines
        # are noisy; the scale-0.05 benchmark asserts >= 20 of 26
        assert overlap >= 14
        for row in full_results.table1.rows:
            assert 0.2 <= row.support <= 0.70
            assert row.n_patterns >= 1
