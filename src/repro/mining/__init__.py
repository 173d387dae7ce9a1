"""Frequent-pattern mining: FP-Growth (primary), Apriori and Eclat baselines."""

from repro.mining.apriori import AprioriMiner, apriori
from repro.mining.bitmatrix import TransactionMatrix
from repro.mining.closed import (
    closed_patterns,
    closed_patterns_naive,
    maximal_patterns,
    maximal_patterns_naive,
    redundancy_ratio,
)
from repro.mining.eclat import EclatMiner, eclat
from repro.mining.fpgrowth import FPGrowthMiner, fpgrowth
from repro.mining.fptree import FPNode, FPTree
from repro.mining.itemsets import MiningResult, Pattern, TransactionDatabase
from repro.mining.regions import (
    MiningReport,
    mine_corpus_with_report,
    mine_regions_with_report,
)
from repro.mining.rules import AssociationRule, generate_rules
from repro.mining.shm import CorpusMatrix

__all__ = [
    "AprioriMiner",
    "apriori",
    "TransactionMatrix",
    "closed_patterns",
    "closed_patterns_naive",
    "maximal_patterns",
    "maximal_patterns_naive",
    "redundancy_ratio",
    "CorpusMatrix",
    "EclatMiner",
    "eclat",
    "MiningReport",
    "mine_corpus_with_report",
    "mine_regions_with_report",
    "FPGrowthMiner",
    "fpgrowth",
    "FPNode",
    "FPTree",
    "MiningResult",
    "Pattern",
    "TransactionDatabase",
    "AssociationRule",
    "generate_rules",
]
