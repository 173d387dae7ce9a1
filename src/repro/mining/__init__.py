"""Frequent-pattern mining: one Eclat miner over packed bitsets.

The paper mines with FP-Growth (Section V-A).  Any exact miner returns the
same frequent itemsets, so production runs :class:`EclatMiner` over the
compiled :class:`TransactionMatrix` (or a region of the :class:`CorpusMatrix`
arena), and the paper's FP-Growth is kept as the test oracle in
``tests/oracles/``.
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
