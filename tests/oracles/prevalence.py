"""Item prevalence (equation 1 of the paper) counted over frozensets.

``P_i^c = n_i^c / N_c``: the share of cuisine *c*'s recipes that hold item
*i*.  This is the equality oracle for
:func:`repro.authenticity.prevalence.prevalence_matrix`, which counts every
``(cuisine, item)`` pair with one ``np.bincount`` over the corpus's integer
ids.  Here each cuisine's transactions are counted as Python sets and each
value is one Python division, so the two share no counting, filtering or
division code; only the :class:`~repro.authenticity.prevalence.PrevalenceMatrix`
they return, and the error each raises for the same bad input, are common.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.authenticity.prevalence import PrevalenceMatrix
from repro.errors import FeatureError

__all__ = ["prevalence_from_transactions"]


def prevalence_from_transactions(
    transactions_by_cuisine: Mapping[str, Sequence[Iterable[str]]],
    *,
    min_document_frequency: int = 1,
) -> PrevalenceMatrix:
    """The prevalence matrix of per-cuisine transactions.

    A repeated item counts once per transaction; ``N_c`` counts every
    transaction, empty ones included.  ``min_document_frequency`` drops the
    items held by fewer recipes than that across the whole corpus.
    """
    cuisines = tuple(sorted(transactions_by_cuisine))
    if not cuisines:
        raise FeatureError("at least one cuisine is required")
    if min_document_frequency < 1:
        raise FeatureError("min_document_frequency must be at least 1")
    counts: dict[str, Counter] = {}
    for cuisine in cuisines:
        counts[cuisine] = Counter()
        for transaction in transactions_by_cuisine[cuisine]:
            counts[cuisine].update(set(transaction))
    totals: Counter = Counter()
    for counted in counts.values():
        totals.update(counted)
    items = tuple(
        sorted(item for item, total in totals.items() if total >= min_document_frequency)
    )
    if not items:
        raise FeatureError("no items survive the document-frequency filter")
    values = []
    for cuisine in cuisines:
        size = len(transactions_by_cuisine[cuisine])
        values.append(
            [counts[cuisine][item] / size if size else 0.0 for item in items]
        )
    return PrevalenceMatrix(
        cuisines=cuisines, items=items, values=np.array(values, dtype=np.float64)
    )
