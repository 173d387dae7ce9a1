"""Unit tests for the analysis configuration."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.core.config import DEFAULT_CONFIG, MAX_SCALE, AnalysisConfig


class TestAnalysisConfig:
    def test_defaults_match_paper_parameters(self):
        config = AnalysisConfig()
        assert config.min_support == 0.20  # the paper's support threshold
        assert config.seed == 2020
        assert set(config.distance_metrics) == {"euclidean", "cosine", "jaccard"}

    @pytest.mark.parametrize(
        "field,value",
        [
            ("seed", -1),
            ("scale", 0),
            ("min_support", 0.0),
            ("min_support", 1.5),
            ("max_pattern_length", 0),
            ("pattern_weighting", "tfidf"),
            ("linkage_method", "centroid"),
            ("distance_metrics", ()),
            ("elbow_k_min", 0),
            ("elbow_k_max", 0),
            ("authenticity_min_document_frequency", 0),
            ("validation_k_values", (1,)),
            ("fingerprint_top_k", 0),
            # Integer fields take only ints: no fractions, no booleans.
            ("seed", 1.5),
            ("seed", True),
            ("max_pattern_length", 2.5),
            ("elbow_k_min", 1.5),
            ("elbow_k_max", 15.0),
            ("authenticity_min_document_frequency", 2.5),
            ("fingerprint_top_k", True),
            ("validation_k_values", (3, 5.5)),
            ("validation_k_values", (3, True)),
            # Real fields take finite ints or floats, not booleans.
            ("scale", float("inf")),
            ("scale", float("nan")),
            # Above the paper's full corpus: scale 50 would be 5.9M recipes.
            ("scale", 1.5),
            ("scale", 50),
            ("scale", True),
            ("scale", "0.1"),
            ("min_support", float("nan")),
            ("min_support", True),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            AnalysisConfig(**{field: value})

    def test_scale_bound_is_inclusive(self):
        assert AnalysisConfig(scale=MAX_SCALE).scale == 1.0
        with pytest.raises(ConfigurationError, match="scale must be in"):
            AnalysisConfig(scale=1.0000001)

    def test_with_overrides(self):
        config = AnalysisConfig().with_overrides(scale=0.1, min_support=0.3)
        assert config.scale == 0.1
        assert config.min_support == 0.3
        assert config.seed == DEFAULT_CONFIG.seed
        with pytest.raises(ConfigurationError):
            AnalysisConfig().with_overrides(min_support=2.0)

    def test_to_dict_roundtrip_fields(self):
        payload = AnalysisConfig().to_dict()
        assert payload["min_support"] == 0.2
        assert payload["distance_metrics"] == ["euclidean", "cosine", "jaccard"]

    def test_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.4")
        monkeypatch.setenv("REPRO_SEED", "77")
        config = AnalysisConfig.from_environment()
        assert config.scale == 0.4
        assert config.seed == 77

    def test_from_environment_overrides_win(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.4")
        config = AnalysisConfig.from_environment(scale=0.9)
        assert config.scale == 0.9

    def test_from_environment_invalid_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "not-a-number")
        with pytest.raises(ConfigurationError):
            AnalysisConfig.from_environment()
        monkeypatch.delenv("REPRO_SCALE")
        monkeypatch.setenv("REPRO_SEED", "x")
        with pytest.raises(ConfigurationError):
            AnalysisConfig.from_environment()

    def test_from_environment_without_variables(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        monkeypatch.delenv("REPRO_SEED", raising=False)
        assert AnalysisConfig.from_environment() == AnalysisConfig()
