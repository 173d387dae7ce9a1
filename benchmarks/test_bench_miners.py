"""E10 — miner ablation: Eclat (production) vs FP-Growth (the paper's miner).

The paper chooses FP-Growth "as it is an efficient and scalable method".
Production mines with Eclat over packed bitsets instead.  This benchmark
verifies both return identical pattern sets on the same cuisine, with the
FP-Growth oracle as the reference, and compares their runtimes.
"""

from __future__ import annotations

import pytest

from repro.mining.eclat import EclatMiner
from tests.oracles.fpgrowth import FPGrowthMiner

_REGION = "Italian"  # the largest cuisine in Table I


@pytest.fixture(scope="module")
def italian_transactions(corpus):
    return corpus.transactions_for_region(_REGION)


@pytest.fixture(scope="module")
def reference_patterns(italian_transactions, config):
    miner = FPGrowthMiner(config.min_support, max_length=config.max_pattern_length)
    return miner.mine(italian_transactions).support_map()


@pytest.mark.parametrize(
    "name,miner_cls",
    [("fp-growth", FPGrowthMiner), ("eclat", EclatMiner)],
)
def test_miner_runtime_and_parity(
    benchmark, italian_transactions, reference_patterns, config, name, miner_cls
):
    miner = miner_cls(config.min_support, max_length=config.max_pattern_length)
    result = benchmark(miner.mine, italian_transactions)
    assert result.support_map() == reference_patterns
    print(f"\n{name}: {len(result)} patterns over {len(italian_transactions)} recipes")
