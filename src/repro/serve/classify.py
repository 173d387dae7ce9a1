"""Vectorized recipe → cuisine classification against a cached analysis.

Given an arbitrary ingredient list, which of the analysed cuisines does it
belong to?  The classifier scores a recipe against two cached artifact
families at once:

* **pattern evidence** -- every mined frequent pattern a recipe *contains*
  (all of the pattern's items present) contributes its per-cuisine support;
* **authenticity evidence** -- every recipe item that appears in a cuisine's
  fingerprint contributes its signed authenticity (so conspicuously-avoided
  items vote *against* a cuisine).

Both signals are precompiled once per analysis:

* the pattern/item incidence matrix is a **packed bitset** (one bit per
  item, ``uint8`` words), so containment is a popcount over ``AND``-ed
  words -- ``contains[b, p] = popcount(recipe_bits & pattern_bits) ==
  pattern_length`` -- run in cache-sized batch chunks;
* the per-cuisine pattern supports and signed authenticities are dense
  ``float32`` matrices, so both evidence families reduce to one BLAS
  matmul each; the weighted combination happens in ``float64``.

The compiled form is also the **sidecar layout**: :meth:`CuisineClassifier.save`
persists exactly these arrays (meta JSON written last, fingerprint-keyed),
and :meth:`CuisineClassifier.load` memory-maps them back without ever
rebuilding a dense matrix -- N serving workers share one page-cached copy,
and a sidecar-loaded classifier scores byte-identically to a fresh
:meth:`CuisineClassifier.from_results` compile because both run the same
arithmetic over the same float32/bitset representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.core.results import AnalysisResults
from repro.errors import ServeError, SidecarError
from repro.features.matrix import pack_rows
from repro.files import load_sidecar, save_sidecar
from repro.mining.bitmatrix import popcount
from repro.obs import get_registry

__all__ = [
    "CLASSIFIER_SIDECAR_VERSION",
    "Classification",
    "CuisineClassifier",
    "rank_scores",
]

#: Bump when the classifier sidecar layout changes; loaders reject others.
CLASSIFIER_SIDECAR_VERSION = 1

#: Obs counter incremented on every dense matrix compile (``__init__`` /
#: ``from_results``); sidecar loads leave it untouched, which is what the
#: zero-compile warm-path tests assert.
COMPILE_COUNTER = "repro_classifier_compiles_total"

#: Byte budget for one containment chunk (recipes × patterns × words); keeps
#: the AND/popcount temporaries cache-resident for any batch size.
_CONTAINMENT_BUDGET = 1 << 23


def rank_scores(
    scores: dict[str, float], k: int | None = None
) -> list[tuple[str, float]]:
    """Cuisines best-first under the canonical ``(-score, name)`` tie-break.

    The single source of truth for classification ordering: ``ranked()``,
    ``best`` and every top-k surface (engine, HTTP, CLI) all order through
    this helper, so ties always resolve lexically everywhere.
    """
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked if k is None else ranked[: max(0, k)]


@dataclass(frozen=True, slots=True)
class Classification:
    """The scored outcome for one recipe.

    ``scores`` holds one entry per requested cuisine -- every analysed
    cuisine by default, only the k best when the classifier ran with
    ``top_k`` -- in best-first insertion order.
    """

    best: str
    scores: dict[str, float]
    matched_patterns: int
    known_items: int
    unknown_items: tuple[str, ...]

    def ranked(self) -> list[tuple[str, float]]:
        """Cuisines best-first (ties broken by name)."""
        return rank_scores(self.scores)

    def top_k(self, k: int) -> list[tuple[str, float]]:
        """The ``k`` best cuisines -- the first ``k`` entries of :meth:`ranked`."""
        if k < 1:
            raise ServeError("top_k requires k >= 1")
        return rank_scores(self.scores, k)

    def to_dict(self) -> dict[str, object]:
        """The classification as one JSON-ready dict (scores best-first)."""
        return {
            "best": self.best,
            "scores": dict(self.scores),
            "matched_patterns": self.matched_patterns,
            "known_items": self.known_items,
            "unknown_items": list(self.unknown_items),
        }


class CuisineClassifier:
    """Batched nearest-cuisine scoring compiled from an analysis bundle.

    Parameters
    ----------
    pattern_weight / authenticity_weight:
        Relative weight of the two evidence families.  Pattern supports live
        in [0, 1] and per-recipe pattern counts vary, so each family's
        contribution is normalised by the recipe's own evidence mass before
        weighting.  The weights are scoring-time scalars -- they are *not*
        part of the persisted sidecar, so one sidecar serves any weighting.
    """

    #: The sidecar's arrays, each a ``<prefix>.<role>.npy`` file.
    SIDECAR_ROLES = ("patterns", "supports", "authenticity")

    def __init__(
        self,
        cuisines: Sequence[str],
        vocabulary: Sequence[str],
        pattern_items: np.ndarray,
        pattern_supports: np.ndarray,
        authenticity: np.ndarray,
        *,
        pattern_weight: float = 1.0,
        authenticity_weight: float = 1.0,
    ) -> None:
        pattern_items = np.asarray(pattern_items)
        if pattern_items.ndim != 2:
            raise ServeError("pattern_items must be a 2-D pattern×item matrix")
        self._finish(
            cuisines,
            vocabulary,
            pack_rows(pattern_items),
            np.ascontiguousarray(pattern_supports, dtype=np.float32),
            np.ascontiguousarray(authenticity, dtype=np.float32),
            pattern_weight,
            authenticity_weight,
        )
        get_registry().counter(
            COMPILE_COUNTER,
            "Dense classifier matrix compiles (sidecar loads stay at zero).",
        ).inc()

    def _finish(
        self,
        cuisines: Sequence[str],
        vocabulary: Sequence[str],
        pattern_bits: np.ndarray,
        pattern_supports: np.ndarray,
        authenticity: np.ndarray,
        pattern_weight: float,
        authenticity_weight: float,
    ) -> None:
        """Shared field setup for both the dense and the sidecar path."""
        pattern_weight = float(pattern_weight)
        authenticity_weight = float(authenticity_weight)
        if pattern_weight < 0 or authenticity_weight < 0:
            raise ServeError("classifier weights must be non-negative")
        if pattern_weight == 0 and authenticity_weight == 0:
            raise ServeError("at least one classifier weight must be positive")
        self.cuisines = tuple(cuisines)
        if not self.cuisines:
            raise ServeError("the classifier needs at least one cuisine")
        self.vocabulary = tuple(vocabulary)
        self._item_index = {item: i for i, item in enumerate(self.vocabulary)}
        self._pattern_bits = pattern_bits  # P×W packed item incidence
        self._pattern_lengths = popcount(pattern_bits).sum(axis=1, dtype=np.int64)
        self._pattern_supports = pattern_supports  # P×C float32
        self._authenticity = authenticity  # V×C float32, signed
        self.pattern_weight = pattern_weight
        self.authenticity_weight = authenticity_weight
        # Column permutation into lexical cuisine order: a *stable* descending
        # argsort over the permuted scores then realises the canonical
        # (-score, name) order of rank_scores() without any per-row sort key.
        lex = sorted(range(len(self.cuisines)), key=lambda c: self.cuisines[c])
        self._lex_order = np.asarray(lex, dtype=np.int64)
        self._lex_names = tuple(self.cuisines[c] for c in lex)

    # -- construction -----------------------------------------------------------------

    @classmethod
    def from_results(
        cls,
        results: AnalysisResults,
        *,
        pattern_weight: float = 1.0,
        authenticity_weight: float = 1.0,
    ) -> "CuisineClassifier":
        """Compile the scoring matrices from a finished analysis."""
        cuisines = tuple(results.regions())
        if not cuisines:
            raise ServeError("the analysis contains no cuisines to classify against")

        # Deduplicate patterns across cuisines: one row per distinct itemset,
        # one column of supports per cuisine.
        pattern_rows: dict[frozenset[str], int] = {}
        supports: list[dict[int, float]] = []  # per cuisine: row -> support
        for cuisine in cuisines:
            per_cuisine: dict[int, float] = {}
            for pattern in results.mining_results[cuisine]:
                row = pattern_rows.setdefault(pattern.items, len(pattern_rows))
                per_cuisine[row] = pattern.support
            supports.append(per_cuisine)

        vocabulary: set[str] = set()
        for items in pattern_rows:
            vocabulary |= items
        for fingerprint in results.fingerprints.values():
            vocabulary |= fingerprint.positive_items()
            vocabulary |= fingerprint.negative_items()
        ordered_vocabulary = tuple(sorted(vocabulary))
        item_index = {item: i for i, item in enumerate(ordered_vocabulary)}

        n_patterns = len(pattern_rows)
        n_items = len(ordered_vocabulary)
        pattern_items = np.zeros((n_patterns, n_items), dtype=bool)
        for items, row in pattern_rows.items():
            for item in items:
                pattern_items[row, item_index[item]] = True

        pattern_supports = np.zeros((n_patterns, len(cuisines)), dtype=np.float32)
        for cuisine_index, per_cuisine in enumerate(supports):
            for row, support in per_cuisine.items():
                pattern_supports[row, cuisine_index] = support

        authenticity = np.zeros((n_items, len(cuisines)), dtype=np.float32)
        for cuisine_index, cuisine in enumerate(cuisines):
            fingerprint = results.fingerprints.get(cuisine)
            if fingerprint is None:
                continue
            for item, value in (*fingerprint.most_authentic, *fingerprint.least_authentic):
                index = item_index.get(item)
                if index is not None:
                    authenticity[index, cuisine_index] = value

        return cls(
            cuisines=cuisines,
            vocabulary=ordered_vocabulary,
            pattern_items=pattern_items,
            pattern_supports=pattern_supports,
            authenticity=authenticity,
            pattern_weight=pattern_weight,
            authenticity_weight=authenticity_weight,
        )

    # -- persistence ------------------------------------------------------------------

    def save(self, prefix: Path | str, *, fingerprint: str = "") -> Path:
        """Persist as one memory-mappable sidecar (see :mod:`repro.files`)."""
        return save_sidecar(
            prefix,
            kind="classifier",
            version=CLASSIFIER_SIDECAR_VERSION,
            fingerprint=fingerprint,
            arrays={
                "patterns": self._pattern_bits,
                "supports": self._pattern_supports,
                "authenticity": self._authenticity,
            },
            meta={
                "cuisines": list(self.cuisines),
                "vocabulary": list(self.vocabulary),
                "n_patterns": int(self._pattern_bits.shape[0]),
                "n_words": int(self._pattern_bits.shape[1]),
            },
        )

    @classmethod
    def load(
        cls,
        prefix: Path | str,
        *,
        mmap: bool = True,
        expected_fingerprint: str | None = None,
        pattern_weight: float = 1.0,
        authenticity_weight: float = 1.0,
    ) -> "CuisineClassifier":
        """Load a classifier sidecar without any dense matrix build.

        Raises :class:`~repro.errors.SidecarError` when the sidecar is
        missing, corrupt, the wrong layout version, stale (fingerprint
        mismatch) or inconsistent; callers fall back to :meth:`from_results`.
        """
        meta, arrays = load_sidecar(
            prefix,
            kind="classifier",
            version=CLASSIFIER_SIDECAR_VERSION,
            roles=cls.SIDECAR_ROLES,
            mapped=cls.SIDECAR_ROLES if mmap else (),
            expected_fingerprint=expected_fingerprint,
        )
        try:
            cuisines = tuple(str(name) for name in meta.get("cuisines", ()))
            vocabulary = tuple(str(item) for item in meta.get("vocabulary", ()))
            n_patterns = int(meta.get("n_patterns", -1))
            n_words = int(meta.get("n_words", -1))
        except (TypeError, ValueError) as exc:
            raise SidecarError(f"malformed classifier sidecar meta at {prefix}") from exc
        pattern_bits = arrays["patterns"]
        pattern_supports = arrays["supports"]
        authenticity = arrays["authenticity"]
        if (
            not cuisines
            or len(set(vocabulary)) != len(vocabulary)
            or pattern_bits.ndim != 2
            or pattern_bits.dtype != np.uint8
            or pattern_bits.shape != (n_patterns, n_words)
            or n_words != (len(vocabulary) + 7) // 8
            or pattern_supports.shape != (n_patterns, len(cuisines))
            or pattern_supports.dtype != np.float32
            or authenticity.shape != (len(vocabulary), len(cuisines))
            or authenticity.dtype != np.float32
        ):
            raise SidecarError(f"inconsistent classifier sidecar shapes at {prefix}")
        used = len(vocabulary) - 8 * (n_words - 1)
        if n_patterns and n_words and used < 8:
            # Bits beyond the vocabulary must be zero; a set pad bit means the
            # file does not match its meta (torn write, wrong array).
            pad_mask = np.uint8((1 << (8 - used)) - 1)
            if bool(np.any(pattern_bits[:, -1] & pad_mask)):
                raise SidecarError(
                    f"corrupt classifier sidecar at {prefix}: pad bits set"
                )
        # Adopt the (typically memory-mapped) arrays as they are.
        self = cls.__new__(cls)
        self._finish(
            cuisines,
            vocabulary,
            pattern_bits,
            pattern_supports,
            authenticity,
            pattern_weight,
            authenticity_weight,
        )
        return self

    # -- classification ---------------------------------------------------------------

    def _encode_batch(
        self, recipes: Sequence[Iterable[str]]
    ) -> tuple[np.ndarray, list[tuple[str, ...]]]:
        """Recipes → boolean batch matrix plus per-recipe unknown items.

        One index-array scatter fills the whole matrix; unknown items fall
        out of a set difference against the vocabulary instead of a
        per-item lookup loop.
        """
        batch = np.zeros((len(recipes), len(self.vocabulary)), dtype=bool)
        unknown: list[tuple[str, ...]] = []
        index = self._item_index
        row_ids: list[int] = []
        column_ids: list[int] = []
        for row, recipe in enumerate(recipes):
            present = {str(item) for item in recipe}
            missing = present.difference(index)
            if missing:
                present.difference_update(missing)
            unknown.append(tuple(sorted(missing)))
            row_ids.extend([row] * len(present))
            column_ids.extend(map(index.__getitem__, present))
        if column_ids:
            batch[
                np.asarray(row_ids, dtype=np.int64),
                np.asarray(column_ids, dtype=np.int64),
            ] = True
        return batch, unknown

    def _containment(self, batch_bits: np.ndarray) -> np.ndarray:
        """B×P boolean containment via chunked AND + popcount over bit words."""
        n_recipes = batch_bits.shape[0]
        n_patterns, n_words = self._pattern_bits.shape
        contains = np.zeros((n_recipes, n_patterns), dtype=bool)
        if n_patterns == 0 or n_words == 0:
            # No patterns, or an empty vocabulary: zero-length patterns are
            # vacuously contained.
            contains[:] = self._pattern_lengths[np.newaxis, :] == 0
            return contains
        chunk = max(1, _CONTAINMENT_BUDGET // (n_patterns * n_words))
        pattern_bits = self._pattern_bits[np.newaxis, :, :]
        for start in range(0, n_recipes, chunk):
            stop = min(start + chunk, n_recipes)
            both = batch_bits[start:stop, np.newaxis, :] & pattern_bits
            # Containment is pure equality -- (recipe AND pattern) == pattern
            # word for word -- so no popcount or integer reduction is needed.
            contains[start:stop] = (both == pattern_bits).all(axis=2)
        return contains

    def _score(
        self, batch: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Scores (B×C float64), matched pattern counts, known item counts."""
        batch_bits = np.packbits(batch, axis=1)
        contains = self._containment(batch_bits)
        matched = contains.sum(axis=1, dtype=np.int64)
        known_counts = batch.sum(axis=1, dtype=np.int64)

        pattern_scores = contains.astype(np.float32) @ self._pattern_supports
        authenticity_scores = batch.astype(np.float32) @ self._authenticity

        # Normalise each evidence family by the recipe's own evidence mass so
        # long ingredient lists do not dominate purely by size; the weighted
        # combination runs in float64 (the float32/float64 precision contract
        # documented in docs/compute-core.md).
        pattern_norm = np.maximum(matched, 1).astype(np.float64)[:, np.newaxis]
        item_counts = np.maximum(known_counts, 1).astype(np.float64)[:, np.newaxis]
        scores = (
            self.pattern_weight * pattern_scores.astype(np.float64) / pattern_norm
            + self.authenticity_weight
            * authenticity_scores.astype(np.float64)
            / item_counts
        )
        return scores, matched, known_counts

    def classify_batch(
        self, recipes: Sequence[Iterable[str]], *, top_k: int | None = None
    ) -> list[Classification]:
        """Score a batch of ingredient lists in one numpy pass.

        With ``top_k=k`` each classification carries only the k best
        cuisines (deterministic lexical tie-break); ``top_k=None`` keeps
        every cuisine, preserving the full-output behaviour.
        """
        if top_k is not None and top_k < 1:
            raise ServeError("top_k requires k >= 1")
        if len(recipes) == 0:
            return []
        batch, unknown = self._encode_batch(recipes)
        scores, matched, known_counts = self._score(batch)

        # Rank every row at once: permute columns into lexical order, then a
        # stable descending argsort realises the (-score, name) tie-break.
        n_cuisines = len(self.cuisines)
        limit = n_cuisines if top_k is None else min(top_k, n_cuisines)
        lex_scores = scores[:, self._lex_order]
        order = np.argsort(-lex_scores, axis=1, kind="stable")[:, :limit]

        # Bulk-convert to Python objects once; per-element numpy scalar
        # access would dominate the whole batch at serving batch sizes.
        order_rows = order.tolist()
        score_rows = lex_scores.tolist()
        matched_list = matched.tolist()
        known_list = known_counts.tolist()

        names = self._lex_names
        classifications: list[Classification] = []
        for row, picked in enumerate(order_rows):
            row_values = score_rows[row]
            classifications.append(
                Classification(
                    best=names[picked[0]],
                    scores={names[column]: row_values[column] for column in picked},
                    matched_patterns=matched_list[row],
                    known_items=known_list[row],
                    unknown_items=unknown[row],
                )
            )
        return classifications

    def classify(
        self, recipe: Iterable[str], *, top_k: int | None = None
    ) -> Classification:
        """Score a single ingredient list."""
        return self.classify_batch([list(recipe)], top_k=top_k)[0]
