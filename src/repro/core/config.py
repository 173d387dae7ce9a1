"""Analysis configuration shared by the pipeline, benchmarks and CLI.

:class:`AnalysisConfig` collects every tunable of the paper's analysis in one
validated, immutable object:

* corpus generation (seed, scale);
* pattern mining (support threshold 0.20, maximum pattern length);
* feature construction (binary vs support weighting);
* clustering (linkage method, the three distance metrics of Figures 2-4);
* the elbow sweep range (Figure 1);
* the flat-cut sizes used when scoring trees against geography.

``from_environment`` allows the benchmark harness to scale up to the paper's
full corpus via ``REPRO_SCALE=1.0`` without touching code.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace
from typing import Mapping

from repro.errors import ConfigurationError

__all__ = ["AnalysisConfig", "DEFAULT_CONFIG", "MAX_SCALE"]

#: The largest corpus scale: 1.0 is the paper's full 118k-recipe corpus.
MAX_SCALE = 1.0
_VALID_WEIGHTINGS = ("binary", "support")
_VALID_LINKAGES = ("single", "complete", "average", "weighted", "ward")
_INT_FIELDS = (
    "seed",
    "elbow_k_min",
    "elbow_k_max",
    "authenticity_min_document_frequency",
    "fingerprint_top_k",
)


@dataclass(frozen=True, slots=True)
class AnalysisConfig:
    """End-to-end configuration of the cuisine-clustering analysis."""

    seed: int = 2020
    scale: float = 0.05
    min_support: float = 0.20
    max_pattern_length: int | None = 3
    pattern_weighting: str = "binary"
    linkage_method: str = "average"
    distance_metrics: tuple[str, ...] = ("euclidean", "cosine", "jaccard")
    elbow_k_min: int = 1
    elbow_k_max: int = 15
    authenticity_min_document_frequency: int = 2
    validation_k_values: tuple[int, ...] = (3, 5, 8)
    fingerprint_top_k: int = 10

    def __post_init__(self) -> None:
        # Types first: a fractional seed, a boolean or a non-finite scale
        # would otherwise pass the range checks and then fail deep in the
        # run, or alias another config's analysis under a second cache key.
        integers = [(name, getattr(self, name)) for name in _INT_FIELDS]
        if self.max_pattern_length is not None:
            integers.append(("max_pattern_length", self.max_pattern_length))
        integers += [("validation_k_values", k) for k in self.validation_k_values]
        for name, value in integers:
            if type(value) is not int:  # rejects bool, an int subclass
                raise ConfigurationError(f"invalid {name}: {value!r} is not an integer")
        for name in ("scale", "min_support"):
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not math.isfinite(value)
            ):
                raise ConfigurationError(
                    f"invalid {name}: {value!r} is not a finite number"
                )
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")
        if not 0.0 < self.scale <= MAX_SCALE:
            raise ConfigurationError(f"scale must be in (0, {MAX_SCALE:g}]")
        if not 0.0 < self.min_support <= 1.0:
            raise ConfigurationError("min_support must be in (0, 1]")
        if self.max_pattern_length is not None and self.max_pattern_length < 1:
            raise ConfigurationError("max_pattern_length must be at least 1 when set")
        if self.pattern_weighting not in _VALID_WEIGHTINGS:
            raise ConfigurationError(
                f"pattern_weighting must be one of {_VALID_WEIGHTINGS}"
            )
        if self.linkage_method not in _VALID_LINKAGES:
            raise ConfigurationError(f"linkage_method must be one of {_VALID_LINKAGES}")
        if not self.distance_metrics:
            raise ConfigurationError("at least one distance metric is required")
        if self.elbow_k_min < 1:
            raise ConfigurationError("elbow_k_min must be at least 1")
        if self.elbow_k_max < self.elbow_k_min:
            raise ConfigurationError("elbow_k_max must be >= elbow_k_min")
        if self.authenticity_min_document_frequency < 1:
            raise ConfigurationError(
                "authenticity_min_document_frequency must be at least 1"
            )
        if any(k < 2 for k in self.validation_k_values):
            raise ConfigurationError("validation_k_values must all be >= 2")
        if self.fingerprint_top_k < 1:
            raise ConfigurationError("fingerprint_top_k must be at least 1")

    # -- convenience ---------------------------------------------------------------

    def with_overrides(self, **overrides: object) -> "AnalysisConfig":
        """Return a copy with selected fields replaced (validated again)."""
        return replace(self, **overrides)  # type: ignore[arg-type]

    @classmethod
    def from_environment(cls, **overrides: object) -> "AnalysisConfig":
        """Build a config honouring ``REPRO_SCALE`` / ``REPRO_SEED`` env vars."""
        env_overrides: dict[str, object] = {}
        scale = os.environ.get("REPRO_SCALE")
        if scale:
            try:
                env_overrides["scale"] = float(scale)
            except ValueError as exc:
                raise ConfigurationError(f"invalid REPRO_SCALE value: {scale!r}") from exc
        seed = os.environ.get("REPRO_SEED")
        if seed:
            try:
                env_overrides["seed"] = int(seed)
            except ValueError as exc:
                raise ConfigurationError(f"invalid REPRO_SEED value: {seed!r}") from exc
        env_overrides.update(overrides)
        return cls(**env_overrides)  # type: ignore[arg-type]

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "AnalysisConfig":
        """Rebuild a config from :meth:`to_dict` output (validated again)."""
        data = dict(payload)
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigurationError(f"unknown config fields: {sorted(unknown)}")
        for key in ("distance_metrics", "validation_k_values"):
            if key in data:
                data[key] = tuple(data[key])  # type: ignore[arg-type]
        return cls(**data)  # type: ignore[arg-type]

    def to_dict(self) -> dict[str, object]:
        return {
            "seed": self.seed,
            "scale": self.scale,
            "min_support": self.min_support,
            "max_pattern_length": self.max_pattern_length,
            "pattern_weighting": self.pattern_weighting,
            "linkage_method": self.linkage_method,
            "distance_metrics": list(self.distance_metrics),
            "elbow_k_min": self.elbow_k_min,
            "elbow_k_max": self.elbow_k_max,
            "authenticity_min_document_frequency": self.authenticity_min_document_frequency,
            "validation_k_values": list(self.validation_k_values),
            "fingerprint_top_k": self.fingerprint_top_k,
        }


DEFAULT_CONFIG = AnalysisConfig()
