"""Agglomerative hierarchical clustering (linkage matrix construction).

Implements bottom-up hierarchical agglomerative clustering over a condensed
distance matrix, producing a linkage matrix in the same format scipy uses
(each merge row is ``[left_id, right_id, height, size]``; original
observations are ids ``0..n-1`` and the cluster created by merge *k* gets id
``n + k``).  Keeping the format identical lets the test suite cross-validate
against ``scipy.cluster.hierarchy.linkage`` and lets users hand the result to
scipy's plotting utilities if they have them installed.

Supported linkage methods (Lance–Williams family):

* ``single``  -- minimum pairwise distance between clusters;
* ``complete`` -- maximum pairwise distance;
* ``average`` -- unweighted average (UPGMA), the library default;
* ``weighted`` -- WPGMA;
* ``ward`` -- Ward's minimum-variance criterion (assumes Euclidean input).

:func:`linkage` runs the **nearest-neighbor-chain** algorithm (Murtagh 1983):
follow nearest-neighbor links until a reciprocal pair is found, merge it, and
continue from the remaining chain.  Every supported method satisfies the
Lance–Williams reducibility condition, so the chain never invalidates itself
and the algorithm is O(n²) overall -- each merge costs one vectorized
Lance–Williams row update plus O(1) amortized nearest-neighbor scans, each a
single numpy pass.  The chain only discovers the merge tree; a replay then
re-executes those merges in the historical best-pair-first order, which
reproduces exactly the matrix the greedy O(n³) scan produced (same heights,
same row order, same cluster ids).

:func:`linkage_naive` keeps that historical greedy implementation: it is the
reference for the equivalence tests and the baseline the linkage benchmark
measures the chain algorithm against, and :func:`linkage` itself runs it on
degenerate (ulp-spaced) inputs.

The paper does not state the linkage method it used; ``average`` is the usual
default for cuisine-style categorical data and is what the figure builders
use, with the others exposed for the ablation experiments.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ClusteringError
from repro.distances.pdist import CondensedDistanceMatrix

__all__ = ["LINKAGE_METHODS", "linkage", "linkage_naive", "LinkageMatrix"]

LINKAGE_METHODS = ("single", "complete", "average", "weighted", "ward")


class LinkageMatrix:
    """A labelled linkage matrix (scipy-compatible merge table)."""

    def __init__(self, merges: np.ndarray, labels: tuple[str, ...], method: str, metric: str) -> None:
        merges = np.asarray(merges, dtype=np.float64)
        n = len(labels)
        expected_rows = max(0, n - 1)
        if merges.shape != (expected_rows, 4):
            raise ClusteringError(
                f"linkage matrix must have shape ({expected_rows}, 4), got {merges.shape}"
            )
        self.merges = merges
        self.labels = labels
        self.method = method
        self.metric = metric

    @property
    def n_observations(self) -> int:
        return len(self.labels)

    @property
    def heights(self) -> np.ndarray:
        """Merge heights in merge order (monotone for the supported methods)."""
        return self.merges[:, 2].copy()

    def to_array(self) -> np.ndarray:
        """Return a copy of the raw scipy-format merge table."""
        return self.merges.copy()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinkageMatrix):
            return NotImplemented
        return (
            self.labels == other.labels
            and self.method == other.method
            and self.metric == other.metric
            and np.array_equal(self.merges, other.merges)
        )

    def to_dict(self) -> dict[str, object]:
        """Lossless dictionary form (inverse of :meth:`from_dict`)."""
        return {
            "labels": list(self.labels),
            "method": self.method,
            "metric": self.metric,
            "merges": self.merges.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "LinkageMatrix":
        """Rebuild a linkage matrix from :meth:`to_dict` output."""
        labels = tuple(str(label) for label in payload["labels"])  # type: ignore[union-attr]
        merges = np.asarray(payload["merges"], dtype=np.float64)
        if merges.size == 0:
            merges = merges.reshape(max(0, len(labels) - 1), 4)
        return cls(
            merges=merges,
            labels=labels,
            method=str(payload["method"]),
            metric=str(payload["metric"]),
        )

    def __len__(self) -> int:
        return self.merges.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LinkageMatrix(n={self.n_observations}, method={self.method!r}, "
            f"metric={self.metric!r})"
        )


def _new_distance(
    method: str,
    d_ki: float,
    d_kj: float,
    d_ij: float,
    size_i: int,
    size_j: int,
    size_k: int,
) -> float:
    """Distance between cluster k and the new cluster i ∪ j (scalar form)."""
    if method == "single":
        return min(d_ki, d_kj)
    if method == "complete":
        return max(d_ki, d_kj)
    if method == "average":
        total = size_i + size_j
        return (size_i * d_ki + size_j * d_kj) / total
    if method == "weighted":
        return 0.5 * (d_ki + d_kj)
    if method == "ward":
        total = size_i + size_j + size_k
        value = (
            (size_i + size_k) * d_ki * d_ki
            + (size_j + size_k) * d_kj * d_kj
            - size_k * d_ij * d_ij
        ) / total
        return math.sqrt(max(0.0, value))
    raise ClusteringError(f"unknown linkage method: {method!r}")


def _new_distances_vector(
    method: str,
    d_ki: np.ndarray,
    d_kj: np.ndarray,
    d_ij: float,
    size_i: int,
    size_j: int,
    sizes_k: np.ndarray,
) -> np.ndarray:
    """Vectorized :func:`_new_distance` over every other active cluster k.

    Every expression mirrors the scalar form operation for operation (same
    association order), so the two produce bit-identical float64 results.
    """
    if method == "single":
        return np.minimum(d_ki, d_kj)
    if method == "complete":
        return np.maximum(d_ki, d_kj)
    if method == "average":
        total = size_i + size_j
        return (size_i * d_ki + size_j * d_kj) / total
    if method == "weighted":
        return 0.5 * (d_ki + d_kj)
    if method == "ward":
        total = size_i + size_j + sizes_k
        value = (
            (size_i + sizes_k) * d_ki * d_ki
            + (size_j + sizes_k) * d_kj * d_kj
            - sizes_k * d_ij * d_ij
        ) / total
        return np.sqrt(np.maximum(0.0, value))
    raise ClusteringError(f"unknown linkage method: {method!r}")


def _merge_into_slot(
    working: np.ndarray,
    active: np.ndarray,
    sizes: np.ndarray,
    method: str,
    i: int,
    j: int,
) -> float:
    """Execute one merge on the working state; returns the merge distance.

    Shared by all three passes so their arithmetic stays in lockstep (the
    bit-identical guarantee depends on every pass writing exactly the same
    floats): vectorized Lance–Williams update of slot *i* against every
    other active slot, then retirement of slot *j* (rows/columns to +inf,
    size folded into slot *i*).
    """
    d_ij = float(working[i, j])
    update_mask = active.copy()
    update_mask[i] = False
    update_mask[j] = False
    ks = np.flatnonzero(update_mask)
    if ks.size:
        updated = _new_distances_vector(
            method,
            working[ks, i],
            working[ks, j],
            d_ij,
            int(sizes[i]),
            int(sizes[j]),
            sizes[ks],
        )
        working[ks, i] = updated
        working[i, ks] = updated
    active[j] = False
    working[j, :] = math.inf
    working[:, j] = math.inf
    sizes[i] += sizes[j]
    return d_ij


def _validate(distances: CondensedDistanceMatrix, method: str) -> tuple[str, int]:
    method = method.strip().lower()
    if method not in LINKAGE_METHODS:
        raise ClusteringError(
            f"unknown linkage method {method!r}; available: {LINKAGE_METHODS}"
        )
    n = distances.n_observations
    if n < 2:
        raise ClusteringError("clustering requires at least two observations")
    return method, n


def linkage(
    distances: CondensedDistanceMatrix,
    method: str = "average",
) -> LinkageMatrix:
    """Run agglomerative clustering and return the linkage matrix.

    Two O(n²) passes:

    1. :func:`_nn_chain_tree` discovers the merge tree with the
       nearest-neighbor-chain algorithm (vectorized Lance–Williams updates);
    2. :func:`_replay_merges` re-executes those merges in the greedy
       best-pair-first order with the same update arithmetic and the same
       deterministic tie-breaking the historical O(n³) scan used.

    The replay is what makes the output **bit-identical** to
    :func:`linkage_naive`: Lance–Williams updates are order-sensitive at the
    last float64 ulp, so heights are only reproducible by running the updates
    in the same sequence -- the chain pass cheaply supplies the candidate
    merges, the replay restricted to those candidates costs O(n) per step.

    Inputs containing exactly tied distances (common for binary feature
    matrices, where many pairs share e.g. the same jaccard value) can make
    the chain discover a *different* -- equally valid, but not identical --
    tie tree than the greedy scan.  Ties can also arise *mid-run* between
    derived Lance–Williams values, but only when the arithmetic is exact,
    i.e. when the inputs sit on a coarse dyadic lattice (quantized data);
    for generic floats the updates round and exact collisions have
    probability ~2⁻⁵².  Both risk classes are detected up front (one sort
    plus one lattice test over the condensed vector) and routed to
    :func:`_greedy_rowcache`, an exact greedy pass over cached per-row
    minima that reproduces the historical tie-breaking unconditionally and
    costs O(n²) expected.
    """
    method, n = _validate(distances, method)
    values = np.sort(distances.distances)
    gaps = np.diff(values)
    if bool(np.any((gaps > 0.0) & (gaps <= 4e-15))):
        # Distinct distances inside (or hugging) the scan's 1e-15 tie band:
        # the fold's "blocking chains" (a pair shielding slightly-smaller
        # pairs, transitively) can reach arbitrarily far above the minimum,
        # so no restricted selection reproduces them.  Such inputs are
        # degenerate (ulp-spaced near-duplicates); run the historical scan
        # itself, which is correct by definition.
        return linkage_naive(distances, method)
    if _tie_prone(values):
        merges = _greedy_rowcache(distances.to_square(), method, n)
    else:
        pairs = _nn_chain_tree(distances.to_square(), method, n)
        merges = _replay_merges(distances.to_square(), pairs, method, n)
    return LinkageMatrix(merges, distances.labels, method=method, metric=distances.metric)


def _tie_prone(values: np.ndarray) -> bool:
    """Whether (near-)ties can plausibly occur during a clustering run.

    *values* is the **sorted** condensed distance vector.  True when the
    input contains distances within the naive scan's 1e-15 tie band of each
    other (exact duplicates or near-duplicate points), or when the
    distances are grid-structured -- quantized inputs keep Lance–Williams
    combinations on the grid, so distinct inputs can still produce
    colliding *derived* heights (e.g. averages of quarter-integer grids).
    """
    if values.size <= 1:
        return False
    # Apply the naive scan's own comparison to adjacent sorted values: two
    # distances it cannot tell apart (including the rounding slop of the
    # float subtraction) make the input tie-prone.
    if not bool(np.all(values[:-1] < values[1:] - 1e-15)):
        return True
    # Grid-structured spacing: when every gap is a near-integer multiple of
    # the smallest gap, the distances live on an arithmetic lattice (dyadic
    # grids, decimal-rounded data, ulp-level clusters), where Lance–Williams
    # combinations can land back inside the tie band.  Ratios too large to
    # test at float precision are treated as compatible with the grid.
    gaps = np.diff(values)
    ratios = gaps / float(gaps.min())
    testable = ratios <= 1e12
    return bool(
        np.all(np.abs(ratios[testable] - np.round(ratios[testable])) <= 1e-3)
    )


def _nn_chain_tree(
    working: np.ndarray, method: str, n: int
) -> list[tuple[int, int]]:
    """Merge tree via nearest-neighbor chains: ``n - 1`` slot pairs in chain order.

    Follows nearest-neighbor links until a reciprocal pair appears, merges
    it (into the smaller slot, retiring the larger), and continues from the
    remaining chain.  Reducibility of the supported methods guarantees chain
    validity, so the total work is O(n²).  Heights computed here are
    discarded -- the replay pass recomputes them in greedy order.
    """
    np.fill_diagonal(working, math.inf)
    sizes = np.ones(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    pairs: list[tuple[int, int]] = []
    chain: list[int] = []

    for _step in range(n - 1):
        if not chain:
            # Slot 0 is always active (merges retire the larger slot), so the
            # chain can always restart from the first slot.
            chain.append(0)
        while True:
            x = chain[-1]
            row = working[x]
            # Prefer the previous chain element on exact ties so reciprocal
            # nearest neighbors are detected deterministically.
            if len(chain) > 1:
                y = chain[-2]
                best = row[y]
            else:
                y = -1
                best = math.inf
            candidate = int(np.argmin(row))
            value = row[candidate]
            if value < best:
                best = value
                y = candidate
            if len(chain) > 1 and y == chain[-2]:
                break
            chain.append(y)
        chain.pop()
        chain.pop()
        i, j = (x, y) if x < y else (y, x)
        _merge_into_slot(working, active, sizes, method, i, j)
        pairs.append((i, j))

    return pairs


def _replay_merges(
    working: np.ndarray, pairs: list[tuple[int, int]], method: str, n: int
) -> np.ndarray:
    """Execute a known merge tree in greedy order; bit-identical to the naive scan.

    At every step the candidates are the tree merges whose operand clusters
    already exist ("ready" merges, at most one per chain, so O(n) of them).
    The pick uses the historical tie rule (a later pair must be smaller by
    more than 1e-15 to win; scan order is ascending slot pairs) and the
    Lance–Williams update runs as one vectorized row operation whose
    arithmetic mirrors the scalar form, so every float written -- and hence
    every height read -- matches the naive implementation exactly.
    """
    np.fill_diagonal(working, math.inf)

    # Dependency graph: a merge waits on the previous merge touching either
    # of its slots (slot contents are clusters built by earlier merges).
    n_merges = len(pairs)
    blockers: list[int] = [0] * n_merges
    dependents: list[list[int]] = [[] for _ in range(n_merges)]
    last_touch: dict[int, int] = {}
    for index, (i, j) in enumerate(pairs):
        for slot in (i, j):
            previous = last_touch.get(slot)
            if previous is not None:
                dependents[previous].append(index)
                blockers[index] += 1
            last_touch[slot] = index
    ready = {index for index in range(n_merges) if blockers[index] == 0}

    cluster_ids = list(range(n))
    sizes = np.ones(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    merges = np.zeros((n_merges, 4), dtype=np.float64)

    for step in range(n_merges):
        # Greedy pick among ready merges, scanning in ascending (i, j) order
        # with the historical fuzzy tie rule.
        best = math.inf
        best_index = -1
        for index in sorted(ready, key=lambda r: pairs[r]):
            i, j = pairs[index]
            value = working[i, j]
            if value < best - 1e-15:
                best = value
                best_index = index
        if best_index < 0:
            raise ClusteringError("internal error: no ready merge found")
        ready.discard(best_index)
        for index in dependents[best_index]:
            blockers[index] -= 1
            if blockers[index] == 0:
                ready.add(index)
        i, j = pairs[best_index]

        left_id, right_id = cluster_ids[i], cluster_ids[j]
        if left_id > right_id:
            left_id, right_id = right_id, left_id
        merges[step] = (left_id, right_id, best, int(sizes[i] + sizes[j]))
        _merge_into_slot(working, active, sizes, method, i, j)
        cluster_ids[i] = n + step

    return merges


def _greedy_rowcache(working: np.ndarray, method: str, n: int) -> np.ndarray:
    """Exact greedy clustering over cached per-row minima (tie-laden inputs).

    Semantically identical to the naive scan -- including its tie-breaking,
    which picks the earliest pair in ascending ``(i, j)`` order among exact
    minima -- but each step costs O(n) plus cache repairs instead of a full
    O(n²) pair sweep: every row caches its minimum over the columns to its
    right, the global pick is one ``argmin`` over those caches, and a merge
    only recomputes the rows whose cached minimum referenced a touched slot
    (O(n²) expected overall, degrading gracefully when ties cluster).
    """
    np.fill_diagonal(working, math.inf)
    rowmin_val = np.full(n, math.inf, dtype=np.float64)
    rowmin_idx = np.full(n, -1, dtype=np.int64)

    def recompute(row: int) -> None:
        segment = working[row, row + 1 :]
        if segment.size == 0:
            rowmin_val[row] = math.inf
            rowmin_idx[row] = -1
            return
        position = int(np.argmin(segment))  # first occurrence on exact ties
        value = segment[position]
        rowmin_val[row] = value
        rowmin_idx[row] = row + 1 + position if math.isfinite(value) else -1

    for row in range(n):
        recompute(row)

    cluster_ids = list(range(n))
    sizes = np.ones(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    merges = np.zeros((n - 1, 4), dtype=np.float64)

    for step in range(n - 1):
        # Reproduce the historical scan's fold exactly: it keeps the earliest
        # pair unless a later one is smaller by more than 1e-15.  Only pairs
        # within ~2e-15 of the global minimum can influence that fold (a
        # pair can only block candidates at most 1e-15 below it, and the
        # final pick is itself within 1e-15 of the minimum; the extra
        # spacing pads the float subtraction's rounding slop).  Collect
        # those few pairs via the row caches and run the naive comparison
        # over them in scan order.
        minimum = float(rowmin_val.min())
        if not math.isfinite(minimum):
            raise ClusteringError("internal error: no active pair found")
        threshold = minimum + 2e-15
        threshold += 4 * np.spacing(threshold)
        best = math.inf
        i = j = -1
        for row in np.flatnonzero(rowmin_val <= threshold).tolist():
            segment = working[row, row + 1 :]
            for offset in np.flatnonzero(segment <= threshold).tolist():
                value = segment[offset]
                if value < best - 1e-15:
                    best = float(value)
                    i, j = row, row + 1 + offset

        left_id, right_id = cluster_ids[i], cluster_ids[j]
        if left_id > right_id:
            left_id, right_id = right_id, left_id
        merges[step] = (left_id, right_id, best, int(sizes[i] + sizes[j]))
        _merge_into_slot(working, active, sizes, method, i, j)
        cluster_ids[i] = n + step
        rowmin_val[j] = math.inf
        rowmin_idx[j] = -1

        # Repair the caches.  Row i changed wholesale; a row k < i sees one
        # changed entry (k, i); every row k < j lost entry (k, j).
        recompute(i)
        others = np.flatnonzero(active)
        for k in others.tolist():
            if k == i:
                continue
            if k < i:
                value = working[k, i]
                cached_idx = rowmin_idx[k]
                if cached_idx == i or cached_idx == j:
                    # The cached minimum referenced a rewritten / retired
                    # entry: the new (k, i) value wins outright if it is no
                    # larger (any other equal minimum sits at a later
                    # column), otherwise the row needs a fresh scan.
                    if value <= rowmin_val[k]:
                        rowmin_val[k] = value
                        rowmin_idx[k] = i
                    else:
                        recompute(k)
                elif value < rowmin_val[k] or (
                    value == rowmin_val[k] and i < cached_idx
                ):
                    rowmin_val[k] = value
                    rowmin_idx[k] = i
            elif k < j and rowmin_idx[k] == j:
                recompute(k)
    return merges


def linkage_naive(
    distances: CondensedDistanceMatrix,
    method: str = "average",
) -> LinkageMatrix:
    """Greedy O(n³) agglomerative clustering (the historical implementation).

    Kept as the reference for the chain-equivalence tests and as the baseline
    the linkage benchmark compares :func:`linkage` against; with 26 cuisines
    (the paper's n) either implementation is instantaneous.
    """
    method, n = _validate(distances, method)

    # Working square matrix of current cluster-to-cluster distances.
    working = distances.to_square()
    np.fill_diagonal(working, math.inf)

    # Active cluster bookkeeping: position -> (cluster id, size).
    cluster_ids = list(range(n))
    sizes = [1] * n
    active = [True] * n
    merges = np.zeros((n - 1, 4), dtype=np.float64)

    for step in range(n - 1):
        # Find the closest active pair (deterministic tie-break by index).
        best = math.inf
        best_pair = (-1, -1)
        for i in range(n):
            if not active[i]:
                continue
            row = working[i]
            for j in range(i + 1, n):
                if not active[j]:
                    continue
                value = row[j]
                if value < best - 1e-15:
                    best = value
                    best_pair = (i, j)
        i, j = best_pair
        if i < 0:
            raise ClusteringError("internal error: no active pair found")

        left_id, right_id = cluster_ids[i], cluster_ids[j]
        if left_id > right_id:
            left_id, right_id = right_id, left_id
        new_size = sizes[i] + sizes[j]
        merges[step] = (left_id, right_id, best, new_size)

        # Update distances from every other active cluster to the new cluster,
        # stored in slot i; slot j is retired.
        d_ij = working[i, j]
        for k in range(n):
            if not active[k] or k == i or k == j:
                continue
            d_ki = working[k, i]
            d_kj = working[k, j]
            updated = _new_distance(method, d_ki, d_kj, d_ij, sizes[i], sizes[j], sizes[k])
            working[k, i] = updated
            working[i, k] = updated
        active[j] = False
        working[j, :] = math.inf
        working[:, j] = math.inf
        working[i, i] = math.inf
        sizes[i] = new_size
        cluster_ids[i] = n + step

    return LinkageMatrix(merges, distances.labels, method=method, metric=distances.metric)
