"""Per-region frequent-pattern mining: one serial loop in sorted region order.

The paper mines every cuisine's patterns independently (Section V-A).  This
module runs that loop in-process, one region after another:

* :func:`mine_corpus_with_report` mines every region of a
  :class:`~repro.mining.shm.CorpusMatrix` CSR, packing from it on demand
  only the region's items that can be frequent -- the one production path:
  the pipeline mines the CSR it just built, the serve layer the one it
  built or memory-mapped;
* :func:`mine_regions_with_report` mines a mapping of per-region raw
  transactions by building their CSR first.

Both return the results keyed in sorted region order plus a
:class:`MiningReport`, so either entry point is byte-identical (through
:mod:`repro.serve.codec`) to mining each region directly.  Each region runs
inside a ``mining.region`` span and feeds the
``repro_mining_regions_total`` counter and the ``repro_mining_region_seconds``
histogram.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.mining.itemsets import MiningResult, minimum_support_count
from repro.mining.shm import CorpusMatrix
from repro.obs import get_registry, span

__all__ = [
    "RegionOutcome",
    "MiningReport",
    "mine_regions_with_report",
    "mine_corpus_with_report",
]


@dataclass(frozen=True, slots=True)
class RegionOutcome:
    """How one region was mined: pattern count and wall seconds."""

    region: str
    n_patterns: int
    seconds: float


@dataclass(frozen=True, slots=True)
class MiningReport:
    """Per-region outcomes of one mining pass, in sorted region order."""

    outcomes: tuple[RegionOutcome, ...]

    #: Always ``None``: regions are mined serially, so no dispatch decision
    #: exists.  The traced benchmark launcher (``perfbench/launch.py``) reads
    #: it to tag every mining call as serial.
    dispatch = None

    def to_dict(self) -> dict[str, object]:
        return {"regions": len(self.outcomes)}


def mine_regions_with_report(
    transactions: Mapping[str, Iterable[Iterable[str]]], miner
) -> tuple[dict[str, MiningResult], MiningReport]:
    """Mine every region's raw transactions, in sorted region order.

    The transactions are built into one CSR
    (:meth:`~repro.mining.shm.CorpusMatrix.from_transactions`) and mined as
    :func:`mine_corpus_with_report` mines it.
    """
    return mine_corpus_with_report(CorpusMatrix.from_transactions(transactions), miner)


def mine_corpus_with_report(
    corpus: CorpusMatrix, miner
) -> tuple[dict[str, MiningResult], MiningReport]:
    """Mine every region of a corpus CSR, in sorted region order.

    *miner* has ``min_support`` and ``mine(matrix)``, as
    :class:`~repro.mining.eclat.EclatMiner` does.  Each region is packed
    from the CSR, whether it was just built or memory-mapped from its
    sidecar, keeping only the items whose region support reaches the
    miner's own :func:`minimum_support_count`: no other item can be in a
    frequent itemset.  No per-transaction id array or frozenset is built,
    and the packed matrix stays inside this loop.
    """
    registry = get_registry()
    mined = registry.counter("repro_mining_regions_total", "Regions mined.")
    region_seconds = registry.histogram(
        "repro_mining_region_seconds", "Wall seconds spent mining one region."
    )
    regions = sorted(corpus.regions)
    results: dict[str, MiningResult] = {}
    outcomes: list[RegionOutcome] = []
    with span("mining.regions", regions=len(regions)):
        for region in regions:
            with span("mining.region", region=region):
                started = time.perf_counter()
                min_count = minimum_support_count(
                    miner.min_support, corpus.span_of(region).n_transactions
                )
                result = miner.mine(corpus.pack(region, min_count))
                seconds = time.perf_counter() - started
            results[region] = result
            outcomes.append(RegionOutcome(region, len(result), seconds))
            mined.inc()
            region_seconds.observe(seconds)
    return results, MiningReport(tuple(outcomes))
