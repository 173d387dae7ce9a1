"""Frequent-pattern mining: one Eclat miner over packed bitsets.

The paper mines with FP-Growth (Section V-A).  Any exact miner returns the
same frequent itemsets, so production runs :class:`EclatMiner` over each
region's :class:`TransactionMatrix`, packed on demand from the corpus's
integer-id :class:`CorpusMatrix` CSR, and the paper's FP-Growth is kept as
the test oracle in ``tests/oracles/``.
"""

from repro.mining.bitmatrix import TransactionMatrix
from repro.mining.eclat import EclatMiner
from repro.mining.itemsets import MiningResult, Pattern, TransactionDatabase
from repro.mining.regions import (
    MiningReport,
    mine_corpus_with_report,
    mine_regions_with_report,
)
from repro.mining.shm import CorpusMatrix

__all__ = [
    "TransactionMatrix",
    "CorpusMatrix",
    "EclatMiner",
    "MiningReport",
    "mine_corpus_with_report",
    "mine_regions_with_report",
    "MiningResult",
    "Pattern",
    "TransactionDatabase",
]
