"""The one top-k helper behind the fingerprints and ``top_items``.

``smallest_k(values, k)`` must be ``np.argsort(values, kind="stable")[:k]``
exactly -- the same indices in the same order, ties in index order -- while
sorting only the entries at or below the k-th value.  Rows with heavy ties
(values from a small set, ``-0.0`` beside ``0.0``) are where a partial
sort could drift; a NaN k-th value takes the full sort.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.authenticity.prevalence import PrevalenceMatrix, smallest_k
from repro.authenticity.relative import AuthenticityMatrix

TIED_VALUES = st.sampled_from([-1.5, -0.25, -0.0, 0.0, 0.25, 1.0])


def _reference(values: np.ndarray, k: int) -> np.ndarray:
    return np.argsort(values, kind="stable")[:k]


def _ks(length: int) -> list[int]:
    return sorted({1, max(1, length - 1), length, length + 3})


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 60), elements=TIED_VALUES))
def test_equals_the_full_stable_sort_on_tied_rows(row):
    for k in _ks(len(row)):
        assert np.array_equal(smallest_k(row, k), _reference(row, k))
        assert np.array_equal(smallest_k(-row, k), _reference(-row, k))


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.integers(1, 60),
        elements=st.floats(allow_nan=False, allow_infinity=False, width=64),
    ),
    st.integers(1, 70),
)
def test_equals_the_full_stable_sort_on_any_finite_row(row, k):
    assert np.array_equal(smallest_k(row, k), _reference(row, k))


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.integers(1, 40),
        elements=st.sampled_from([np.nan, -np.inf, np.inf, -0.0, 0.0, 2.0]),
    ),
    st.integers(1, 45),
)
def test_non_finite_rows_equal_the_full_sort(row, k):
    # NaN sorts last; a NaN k-th value falls back to the full sort.
    assert np.array_equal(smallest_k(row, k), _reference(row, k))


def test_signed_zeros_keep_index_order():
    row = np.array([0.0, -0.0, 0.0, -1.0, -0.0])
    assert smallest_k(row, 3).tolist() == [3, 0, 1]
    assert smallest_k(-row, 2).tolist() == [0, 1]


@pytest.mark.parametrize("seed", range(5))
def test_the_matrix_tails_equal_the_full_sorts(seed):
    rng = np.random.default_rng(seed)
    # Quantised values so most of a row ties with its neighbours.
    values = rng.integers(-3, 4, size=(4, 300)).astype(np.float64) / 8
    cuisines = tuple(f"c{i}" for i in range(4))
    items = tuple(f"i{j:03d}" for j in range(300))
    authenticity = AuthenticityMatrix(cuisines, items, values)
    prevalence = PrevalenceMatrix(cuisines, items, np.abs(values))
    for row, cuisine in enumerate(cuisines):
        for k in (1, 10, 299, 300, 500):
            most = np.argsort(-values[row], kind="stable")[:k]
            least = np.argsort(values[row], kind="stable")[:k]
            top = np.argsort(-np.abs(values[row]), kind="stable")[:k]
            assert authenticity.most_authentic(cuisine, k) == [
                (items[i], float(values[row, i])) for i in most
            ]
            assert authenticity.least_authentic(cuisine, k) == [
                (items[i], float(values[row, i])) for i in least
            ]
            assert prevalence.top_items(cuisine, k) == [
                (items[i], float(abs(values[row, i]))) for i in top
            ]
