"""Per-recipe classification scored with Python loops over patterns and items.

The equality oracle and benchmark baseline for
:meth:`repro.serve.classify.CuisineClassifier.classify_batch`, which scores
a whole batch with packed-bitset containment and two float32 matmuls.  Here
each recipe's patterns are matched as Python sets and its evidence summed
one float at a time, over the classifier's own arrays.  The accumulation
order differs from the matmul path, so scores agree to float32 round-off,
not bit for bit (``tests/serve/test_classify.py`` and
``benchmarks/test_bench_classify.py`` compare within 1e-5).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.serve.classify import Classification, CuisineClassifier, rank_scores

__all__ = ["classify_batch_naive"]


def classify_batch_naive(
    classifier: CuisineClassifier, recipes: Sequence[Iterable[str]]
) -> list[Classification]:
    """Score each recipe against *classifier*, one Python pass per recipe."""
    vocabulary = classifier.vocabulary
    cuisines = classifier.cuisines
    item_index = {item: index for index, item in enumerate(vocabulary)}
    dense = np.unpackbits(classifier._pattern_bits, axis=1, count=len(vocabulary))
    pattern_sets = [
        frozenset(vocabulary[i] for i in np.flatnonzero(row)) for row in dense
    ]
    pattern_supports = classifier._pattern_supports
    authenticity = classifier._authenticity
    classifications: list[Classification] = []
    for recipe in recipes:
        items = {str(item) for item in recipe}
        missing = items.difference(item_index)
        known = items - missing
        matched = 0
        pattern_totals = [0.0] * len(cuisines)
        for row, pattern in enumerate(pattern_sets):
            if pattern <= known:
                matched += 1
                for column in range(len(cuisines)):
                    pattern_totals[column] += float(pattern_supports[row, column])
        authenticity_totals = [0.0] * len(cuisines)
        for item in known:
            index = item_index[item]
            for column in range(len(cuisines)):
                authenticity_totals[column] += float(authenticity[index, column])
        pattern_norm = float(max(matched, 1))
        item_norm = float(max(len(known), 1))
        scores = {
            cuisine: (
                classifier.pattern_weight * pattern_totals[column] / pattern_norm
                + classifier.authenticity_weight * authenticity_totals[column] / item_norm
            )
            for column, cuisine in enumerate(cuisines)
        }
        classifications.append(
            Classification(
                best=rank_scores(scores)[0][0],
                scores=scores,
                matched_patterns=matched,
                known_items=len(known),
                unknown_items=tuple(sorted(missing)),
            )
        )
    return classifications
