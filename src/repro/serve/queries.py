"""Read-path queries against a finished (usually cached) analysis.

:class:`QueryEngine` answers the cheap questions a serving deployment sees
constantly, none of which should ever re-run the pipeline:

* :meth:`nearest_cuisines` -- which cuisines are closest to a given one under
  any of the five clustering views (Figures 2-6);
* :meth:`pattern_search` -- which mined patterns contain the given items, in
  which cuisines, at what support;
* :meth:`top_patterns` -- a cuisine's strongest patterns;
* :meth:`authenticity_profile` -- how (in)authentic one ingredient is across
  every cuisine fingerprint;
* :meth:`cuisine_profile` -- the one-stop summary card for a cuisine.

All lookups run against the precomputed artifacts (distance matrices, mined
patterns, fingerprints); nothing here touches the corpus or the miners.
Batched recipe classification lives in :mod:`repro.serve.classify` and is
surfaced here through :meth:`QueryEngine.classify` / ``classify_batch``
(backed by one lazily-built -- or injected, typically sidecar-loaded --
:class:`~repro.serve.classify.CuisineClassifier`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.results import AnalysisResults
from repro.errors import ServeError
from repro.serve.classify import Classification, CuisineClassifier

__all__ = ["PatternHit", "QueryEngine"]


@dataclass(frozen=True, slots=True)
class PatternHit:
    """One pattern matched by :meth:`QueryEngine.pattern_search`."""

    region: str
    pattern: str
    support: float
    length: int

    def to_dict(self) -> dict[str, object]:
        """The hit as one JSON-ready dict (CLI tables, HTTP responses)."""
        return {
            "region": self.region,
            "pattern": self.pattern,
            "support": self.support,
            "length": self.length,
        }


class QueryEngine:
    """Cheap read-path operations over one :class:`AnalysisResults` bundle."""

    FIGURES = ("figure2", "figure3", "figure4", "figure5", "figure6")

    def __init__(
        self,
        results: AnalysisResults,
        *,
        classifier: CuisineClassifier | None = None,
    ) -> None:
        self.results = results
        # Injected by the serve layer when a sidecar-loaded classifier is
        # available; otherwise compiled lazily on the first classify call.
        self._classifier = classifier

    # -- classification ---------------------------------------------------------------

    def classifier(self) -> CuisineClassifier:
        """The engine's classifier, compiled on first use when not injected."""
        if self._classifier is None:
            self._classifier = CuisineClassifier.from_results(self.results)
        return self._classifier

    def classify_batch(
        self, recipes: Sequence[Iterable[str]], *, top_k: int | None = None
    ) -> list[Classification]:
        """Score a batch of ingredient lists (``top_k`` keeps the k best)."""
        return self.classifier().classify_batch(recipes, top_k=top_k)

    def classify(
        self, recipe: Iterable[str], *, top_k: int | None = None
    ) -> Classification:
        """Score one ingredient list against every analysed cuisine."""
        return self.classifier().classify(recipe, top_k=top_k)

    # -- cuisine neighbourhoods -------------------------------------------------------

    def regions(self) -> list[str]:
        """Every cuisine the analysed corpus contains (sorted)."""
        return self.results.regions()

    def nearest_cuisines(
        self, cuisine: str, *, k: int = 5, figure: str = "figure2"
    ) -> list[tuple[str, float]]:
        """The *k* nearest cuisines under one clustering view's metric.

        Ties are broken by label so results are deterministic across runs.
        """
        if k < 1:
            raise ServeError("k must be positive")
        run = self.results.run_for(figure)
        labels = run.labels
        if cuisine not in labels:
            raise ServeError(
                f"unknown cuisine {cuisine!r} for {figure}; known: {sorted(labels)}"
            )
        index = labels.index(cuisine)
        row = run.distances.to_square()[index]
        order = sorted(
            (i for i in range(len(labels)) if i != index),
            key=lambda i: (row[i], labels[i]),
        )
        return [(labels[i], float(row[i])) for i in order[:k]]

    # -- pattern lookups --------------------------------------------------------------

    def pattern_search(
        self,
        items: Iterable[str] | str,
        *,
        region: str | None = None,
        min_support: float = 0.0,
        limit: int | None = None,
    ) -> list[PatternHit]:
        """Patterns containing every requested item, best-supported first."""
        wanted = frozenset([items] if isinstance(items, str) else items)
        if not wanted:
            raise ServeError("pattern_search requires at least one item")
        if limit is not None and limit < 1:
            raise ServeError("limit must be positive")
        regions = [region] if region is not None else self.regions()
        hits: list[PatternHit] = []
        for name in regions:
            result = self._mining_for(name)
            for pattern in result:
                if pattern.support >= min_support and wanted <= pattern.items:
                    hits.append(
                        PatternHit(
                            region=name,
                            pattern=pattern.as_string(),
                            support=pattern.support,
                            length=pattern.length,
                        )
                    )
        hits.sort(key=lambda hit: (-hit.support, hit.region, hit.pattern))
        return hits if limit is None else hits[:limit]

    def top_patterns(self, region: str, *, k: int = 5) -> list[PatternHit]:
        """The *k* highest-support patterns of one cuisine."""
        result = self._mining_for(region)
        return [
            PatternHit(
                region=region,
                pattern=pattern.as_string(),
                support=pattern.support,
                length=pattern.length,
            )
            for pattern in result.top(k)
        ]

    # -- authenticity lookups ---------------------------------------------------------

    def authenticity_profile(self, item: str) -> dict[str, float]:
        """Fingerprint authenticity of *item* per cuisine (absent = no signal).

        Only the fingerprint tails are cached (top/bottom ``fingerprint_top_k``
        items per cuisine), so a cuisine appears here exactly when *item* is
        distinctly embraced or avoided there.
        """
        profile: dict[str, float] = {}
        for cuisine, fingerprint in self.results.fingerprints.items():
            for name, value in (*fingerprint.most_authentic, *fingerprint.least_authentic):
                if name == item:
                    profile[cuisine] = value
        return dict(sorted(profile.items(), key=lambda kv: (-kv[1], kv[0])))

    def signature_items(self, cuisine: str, *, k: int | None = None) -> list[tuple[str, float]]:
        """The most authentic items of one cuisine (from its fingerprint)."""
        fingerprint = self.results.fingerprints.get(cuisine)
        if fingerprint is None:
            raise ServeError(
                f"unknown cuisine {cuisine!r}; known: {sorted(self.results.fingerprints)}"
            )
        tail = list(fingerprint.most_authentic)
        return tail if k is None else tail[:k]

    # -- aggregate views --------------------------------------------------------------

    def cuisine_profile(self, cuisine: str, *, k: int = 5) -> dict[str, object]:
        """Summary card for one cuisine: patterns, signature items, neighbours."""
        return {
            "cuisine": cuisine,
            "n_recipes": self.results.corpus_stats.region_recipe_counts.get(cuisine, 0),
            "top_patterns": [hit.to_dict() for hit in self.top_patterns(cuisine, k=k)],
            "signature_items": [
                {"item": item, "authenticity": value}
                for item, value in self.signature_items(cuisine, k=k)
            ],
            "nearest_by_patterns": self.nearest_cuisines(cuisine, k=k, figure="figure2"),
            "nearest_by_authenticity": self.nearest_cuisines(cuisine, k=k, figure="figure5"),
        }

    # -- internals --------------------------------------------------------------------

    def _mining_for(self, region: str):
        try:
            return self.results.mining_results[region]
        except KeyError as exc:
            raise ServeError(
                f"unknown cuisine {region!r}; known: {self.regions()}"
            ) from exc
