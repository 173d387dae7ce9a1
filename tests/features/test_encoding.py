"""Unit and property tests for label encoding and string patterns."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import FeatureError
from repro.features.encoding import LabelEncoder, encode_cuisine_patterns, string_patterns
from repro.mining.eclat import EclatMiner


class TestLabelEncoder:
    def test_fit_transform_roundtrip(self):
        encoder = LabelEncoder()
        codes = encoder.fit_transform(["b", "a", "b", "c"])
        assert encoder.classes == ("a", "b", "c")
        assert codes == [1, 0, 1, 2]
        assert encoder.inverse_transform(codes) == ["b", "a", "b", "c"]

    def test_unfitted_rejected(self):
        with pytest.raises(FeatureError):
            LabelEncoder().transform(["a"])
        with pytest.raises(FeatureError):
            LabelEncoder().inverse_transform([0])

    def test_unknown_value_rejected(self):
        encoder = LabelEncoder().fit(["a", "b"])
        with pytest.raises(FeatureError):
            encoder.transform(["z"])

    def test_out_of_range_code_rejected(self):
        encoder = LabelEncoder().fit(["a", "b"])
        with pytest.raises(FeatureError):
            encoder.inverse_transform([5])

    def test_empty_fit_rejected(self):
        with pytest.raises(FeatureError):
            LabelEncoder().fit([])

    def test_contains_len_iter(self):
        encoder = LabelEncoder().fit(["x", "y"])
        assert "x" in encoder
        assert "q" not in encoder
        assert len(encoder) == 2
        assert list(encoder) == ["x", "y"]

    @given(st.lists(st.text(alphabet="abcdef", min_size=1, max_size=5), min_size=1, max_size=40))
    def test_property_roundtrip(self, values):
        encoder = LabelEncoder().fit(values)
        assert encoder.inverse_transform(encoder.transform(values)) == [str(v) for v in values]

    @given(st.sets(st.text(alphabet="abcdef", min_size=1, max_size=5), min_size=1, max_size=30))
    def test_property_codes_are_dense_and_sorted(self, values):
        encoder = LabelEncoder().fit(values)
        codes = encoder.transform(sorted(values))
        assert codes == list(range(len(values)))


class TestStringPatterns:
    def test_sorted_join(self):
        result = EclatMiner(0.5, max_length=None).mine([{"b", "a"}, {"a", "b"}, {"a"}])
        strings = string_patterns(result)
        assert "a + b" in strings
        assert all("b + a" != s for s in strings)

    def test_custom_separator(self):
        result = EclatMiner(0.5, max_length=None).mine([{"x", "y"}] * 3)
        assert "x|y" in string_patterns(result, separator="|")


class TestEncodeCuisinePatterns:
    def test_union_is_encoded(self, toy_db):
        results = {
            region: EclatMiner(0.6).mine(toy_db.transactions_for_region(region))
            for region in toy_db.region_names()
        }
        encoder, encoded = encode_cuisine_patterns(results)
        assert set(encoded) == set(results)
        # Every code decodes to a pattern string of the right cuisine.
        for cuisine, codes in encoded.items():
            strings = set(results[cuisine].string_patterns())
            decoded = set(encoder.inverse_transform(codes))
            assert decoded == strings

    def test_empty_inputs_rejected(self):
        with pytest.raises(FeatureError):
            encode_cuisine_patterns({})

    def test_no_patterns_anywhere_rejected(self):
        empty = EclatMiner(0.99).mine([{"a"}, {"b"}, {"c"}, {"d"}, {"e"}])
        with pytest.raises(FeatureError):
            encode_cuisine_patterns({"X": empty})
