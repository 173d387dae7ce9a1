"""Mined-pattern containers and the support-threshold rule.

The mining layer works on *transactions*: each recipe is an unordered set of
item names (ingredients + processes + utensils, Section V-A of the paper).
This module provides:

* :func:`minimum_support_count` -- the one rule turning a relative support
  threshold into an absolute count;
* :class:`Pattern` -- one mined frequent itemset with its support;
* :class:`MiningResult` -- the ordered collection of patterns a miner returns,
  with the filtering / ranking helpers the paper's Table I needs (top pattern,
  pattern count, non-singleton patterns, ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.errors import MiningError

__all__ = ["minimum_support_count", "Pattern", "MiningResult"]


def minimum_support_count(min_support: float, n_transactions: int) -> int:
    """Convert a relative support threshold to an absolute count (≥ 1).

    The single source of the miners' threshold rule; the serve layer's
    incremental re-thresholding must apply exactly the same rounding to stay
    indistinguishable from a fresh mine.
    """
    if not 0.0 < min_support <= 1.0:
        raise MiningError(f"min_support must be in (0, 1], got {min_support}")
    return max(1, math.ceil(min_support * n_transactions))


@dataclass(frozen=True, slots=True, order=False)
class Pattern:
    """A frequent itemset together with its support."""

    items: frozenset[str]
    support: float
    absolute_support: int

    def __post_init__(self) -> None:
        if not self.items:
            raise MiningError("a pattern must contain at least one item")
        if not 0.0 < self.support <= 1.0:
            raise MiningError(f"pattern support must be in (0, 1], got {self.support}")
        if self.absolute_support <= 0:
            raise MiningError("absolute_support must be positive")
        object.__setattr__(self, "items", frozenset(str(i) for i in self.items))

    @property
    def length(self) -> int:
        return len(self.items)

    @property
    def is_singleton(self) -> bool:
        return len(self.items) == 1

    def sorted_items(self) -> tuple[str, ...]:
        return tuple(sorted(self.items))

    def as_string(self, separator: str = " + ") -> str:
        """The paper's "string pattern" form: sorted items joined together."""
        return separator.join(self.sorted_items())

    def contains(self, item: str) -> bool:
        return item in self.items

    def is_subpattern_of(self, other: "Pattern") -> bool:
        return self.items <= other.items

    def to_dict(self) -> dict[str, object]:
        return {
            "items": list(self.sorted_items()),
            "support": self.support,
            "absolute_support": self.absolute_support,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "Pattern":
        """Rebuild a pattern from :meth:`to_dict` output."""
        return cls(
            items=frozenset(str(item) for item in payload["items"]),  # type: ignore[union-attr]
            support=float(payload["support"]),  # type: ignore[arg-type]
            absolute_support=int(payload["absolute_support"]),  # type: ignore[arg-type]
        )

    def __str__(self) -> str:
        return f"{self.as_string()} (support={self.support:.3f})"


class MiningResult:
    """Ordered collection of mined patterns for one transaction database."""

    def __init__(
        self,
        patterns: Iterable[Pattern],
        *,
        n_transactions: int,
        min_support: float,
        algorithm: str = "unknown",
    ) -> None:
        if n_transactions < 0:
            raise MiningError("n_transactions must be non-negative")
        if not 0.0 < min_support <= 1.0:
            raise MiningError("min_support must be in (0, 1]")
        # Deterministic ordering: by support descending, then length descending,
        # then lexicographically -- this is the ordering Table I relies on when
        # picking "the" top pattern of a cuisine.
        self._patterns: tuple[Pattern, ...] = tuple(
            sorted(
                patterns,
                key=lambda p: (-p.support, -p.length, p.sorted_items()),
            )
        )
        self.n_transactions = n_transactions
        self.min_support = min_support
        self.algorithm = algorithm

    # -- container protocol -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._patterns)

    def __iter__(self) -> Iterator[Pattern]:
        return iter(self._patterns)

    def __getitem__(self, index: int) -> Pattern:
        return self._patterns[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MiningResult):
            return NotImplemented
        return (
            self._patterns == other._patterns
            and self.n_transactions == other.n_transactions
            and self.min_support == other.min_support
            and self.algorithm == other.algorithm
        )

    @property
    def patterns(self) -> tuple[Pattern, ...]:
        return self._patterns

    # -- views ------------------------------------------------------------------

    def itemsets(self) -> set[frozenset[str]]:
        """The mined itemsets as a set (ignores support values)."""
        return {pattern.items for pattern in self._patterns}

    def support_map(self) -> dict[frozenset[str], float]:
        """Mapping itemset -> support."""
        return {pattern.items: pattern.support for pattern in self._patterns}

    def string_patterns(self, separator: str = " + ") -> list[str]:
        """The paper's sorted "string pattern" representation of every itemset."""
        return [pattern.as_string(separator) for pattern in self._patterns]

    def filter(self, predicate: Callable[[Pattern], bool]) -> "MiningResult":
        """Return a new result keeping only patterns satisfying *predicate*."""
        return MiningResult(
            (p for p in self._patterns if predicate(p)),
            n_transactions=self.n_transactions,
            min_support=self.min_support,
            algorithm=self.algorithm,
        )

    def non_singletons(self) -> "MiningResult":
        """Patterns with at least two items (compound patterns)."""
        return self.filter(lambda p: not p.is_singleton)

    def with_min_length(self, length: int) -> "MiningResult":
        if length < 1:
            raise MiningError("length must be at least 1")
        return self.filter(lambda p: p.length >= length)

    def top(self, k: int = 1) -> list[Pattern]:
        """The *k* highest-support patterns (deterministic tie-breaking)."""
        if k <= 0:
            raise MiningError("k must be positive")
        return list(self._patterns[:k])

    def top_pattern(self, *, prefer_compound: bool = False) -> Pattern | None:
        """The single most significant pattern, or ``None`` when empty.

        With ``prefer_compound=True`` the highest-support *multi-item* pattern
        is preferred when one exists; Table I reports compound patterns for
        several cuisines (e.g. "soy sauce + sesame oil" for Korean).
        """
        if not self._patterns:
            return None
        if prefer_compound:
            for pattern in self._patterns:
                if not pattern.is_singleton:
                    return pattern
        return self._patterns[0]

    def containing(self, item: str) -> "MiningResult":
        """Patterns that include a specific item."""
        return self.filter(lambda p: p.contains(item))

    def to_dicts(self) -> list[dict[str, object]]:
        return [pattern.to_dict() for pattern in self._patterns]

    def to_dict(self) -> dict[str, object]:
        """Lossless dictionary form (inverse of :meth:`from_dict`)."""
        return {
            "patterns": self.to_dicts(),
            "n_transactions": self.n_transactions,
            "min_support": self.min_support,
            "algorithm": self.algorithm,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "MiningResult":
        """Rebuild a mining result from :meth:`to_dict` output."""
        return cls(
            (Pattern.from_dict(row) for row in payload["patterns"]),  # type: ignore[union-attr]
            n_transactions=int(payload["n_transactions"]),  # type: ignore[arg-type]
            min_support=float(payload["min_support"]),  # type: ignore[arg-type]
            algorithm=str(payload.get("algorithm", "unknown")),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MiningResult(algorithm={self.algorithm!r}, "
            f"patterns={len(self)}, min_support={self.min_support})"
        )
