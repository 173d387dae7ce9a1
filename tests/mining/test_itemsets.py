"""Unit tests for the support-count rule, patterns and mining results."""

from __future__ import annotations

import pytest

from repro.errors import MiningError
from repro.mining.itemsets import MiningResult, Pattern, minimum_support_count


def test_minimum_support_count():
    assert minimum_support_count(0.5, 4) == 2
    assert minimum_support_count(0.2, 4) == 1
    assert minimum_support_count(1.0, 4) == 4
    with pytest.raises(MiningError):
        minimum_support_count(0.0, 4)
    with pytest.raises(MiningError):
        minimum_support_count(1.5, 4)


class TestPattern:
    def test_basic_properties(self):
        pattern = Pattern(frozenset({"soy sauce", "heat"}), support=0.5, absolute_support=2)
        assert pattern.length == 2
        assert not pattern.is_singleton
        assert pattern.sorted_items() == ("heat", "soy sauce")
        assert pattern.as_string() == "heat + soy sauce"
        assert pattern.contains("heat")
        assert "support=0.500" in str(pattern)

    def test_validation(self):
        with pytest.raises(MiningError):
            Pattern(frozenset(), support=0.5, absolute_support=1)
        with pytest.raises(MiningError):
            Pattern(frozenset({"a"}), support=0.0, absolute_support=1)
        with pytest.raises(MiningError):
            Pattern(frozenset({"a"}), support=0.5, absolute_support=0)

    def test_subpattern(self):
        small = Pattern(frozenset({"a"}), 0.5, 1)
        large = Pattern(frozenset({"a", "b"}), 0.4, 1)
        assert small.is_subpattern_of(large)
        assert not large.is_subpattern_of(small)

    def test_to_dict(self):
        pattern = Pattern(frozenset({"b", "a"}), 0.25, 1)
        assert pattern.to_dict() == {
            "items": ["a", "b"], "support": 0.25, "absolute_support": 1
        }


class TestMiningResult:
    def _result(self) -> MiningResult:
        patterns = [
            Pattern(frozenset({"soy sauce"}), 0.75, 3),
            Pattern(frozenset({"mirin"}), 0.5, 2),
            Pattern(frozenset({"soy sauce", "mirin"}), 0.5, 2),
            Pattern(frozenset({"heat"}), 0.5, 2),
        ]
        return MiningResult(patterns, n_transactions=4, min_support=0.4, algorithm="test")

    def test_ordering_is_support_then_length_then_lexicographic(self):
        result = self._result()
        assert result[0].items == frozenset({"soy sauce"})
        # Among the 0.5-support patterns the 2-item pattern comes first.
        assert result[1].items == frozenset({"soy sauce", "mirin"})
        assert [p.items for p in result][2:] == [frozenset({"heat"}), frozenset({"mirin"})]

    def test_top_and_top_pattern(self):
        result = self._result()
        assert result.top(2)[0].support == 0.75
        assert result.top_pattern().items == frozenset({"soy sauce"})
        assert result.top_pattern(prefer_compound=True).items == frozenset({"soy sauce", "mirin"})
        with pytest.raises(MiningError):
            result.top(0)

    def test_top_pattern_empty_result(self):
        empty = MiningResult([], n_transactions=4, min_support=0.5)
        assert empty.top_pattern() is None
        assert empty.top_pattern(prefer_compound=True) is None

    def test_filters(self):
        result = self._result()
        assert len(result.non_singletons()) == 1
        assert len(result.with_min_length(2)) == 1
        assert len(result.containing("mirin")) == 2
        with pytest.raises(MiningError):
            result.with_min_length(0)

    def test_views(self):
        result = self._result()
        assert frozenset({"soy sauce", "mirin"}) in result.itemsets()
        assert result.support_map()[frozenset({"heat"})] == 0.5
        assert "mirin + soy sauce" in result.string_patterns()
        assert len(result.to_dicts()) == 4

    def test_validation(self):
        with pytest.raises(MiningError):
            MiningResult([], n_transactions=-1, min_support=0.5)
        with pytest.raises(MiningError):
            MiningResult([], n_transactions=1, min_support=0.0)
