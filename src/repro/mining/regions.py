"""Per-region frequent-pattern mining: one serial loop in sorted region order.

The paper mines every cuisine's patterns independently (Section V-A).  This
module runs that loop in-process, one region after another:

* :func:`mine_corpus_with_report` mines every region of a
  :class:`~repro.mining.shm.CorpusMatrix` CSR, packing from it on demand
  only the region's items that can be frequent -- the one production path:
  the pipeline mines the CSR it just built, the serve layer the one it
  built or memory-mapped;
* :func:`mine_regions_with_report` mines a mapping of per-region
  :class:`~repro.mining.itemsets.TransactionDatabase` objects (each compiles
  its bit matrix on first use); the tests use it as the direct reference.

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
from typing import Callable, Mapping, Sequence

from repro.mining.itemsets import MiningResult, TransactionDatabase, minimum_support_count
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
    """How one region was mined: pattern count, compile flag, wall seconds."""

    region: str
    n_patterns: int
    compiled: bool  # True when this run compiled a fresh matrix for the region
    seconds: float


@dataclass(frozen=True, slots=True)
class MiningReport:
    """Per-region outcomes of one mining pass, in sorted region order."""

    outcomes: tuple[RegionOutcome, ...]

    #: Always ``None``: regions are mined serially, so no dispatch decision
    #: exists.  The traced benchmark launcher (``perfbench/launch.py``) reads
    #: it to tag every mining call as serial.
    dispatch = None

    @property
    def compiles(self) -> int:
        """How many regions compiled a matrix during this pass."""
        return sum(1 for outcome in self.outcomes if outcome.compiled)

    def to_dict(self) -> dict[str, object]:
        return {"regions": len(self.outcomes), "matrix_compiles": self.compiles}


def _mine(
    regions: Sequence[str],
    database_of: Callable[[str], TransactionDatabase],
    miner,
) -> tuple[dict[str, MiningResult], MiningReport]:
    """Mine *regions* in the given order; *miner* has ``mine(database)``."""
    registry = get_registry()
    mined = registry.counter("repro_mining_regions_total", "Regions mined.")
    region_seconds = registry.histogram(
        "repro_mining_region_seconds", "Wall seconds spent mining one region."
    )
    compiles = registry.counter(
        "repro_mining_matrix_compiles_total",
        "Transaction matrices compiled during mining runs.",
    )
    results: dict[str, MiningResult] = {}
    outcomes: list[RegionOutcome] = []
    with span("mining.regions", regions=len(regions)):
        for region in regions:
            with span("mining.region", region=region):
                started = time.perf_counter()
                database = database_of(region)
                had_matrix = database.has_matrix
                result = miner.mine(database)
                seconds = time.perf_counter() - started
            compiled = not had_matrix and database.has_matrix
            results[region] = result
            outcomes.append(RegionOutcome(region, len(result), compiled, seconds))
            mined.inc()
            region_seconds.observe(seconds)
            if compiled:
                compiles.inc()
    return results, MiningReport(tuple(outcomes))


def mine_regions_with_report(
    transactions: Mapping[str, TransactionDatabase], miner
) -> tuple[dict[str, MiningResult], MiningReport]:
    """Mine every region's transaction database, in sorted region order."""
    return _mine(sorted(transactions), transactions.__getitem__, miner)


def mine_corpus_with_report(
    corpus: CorpusMatrix, miner
) -> tuple[dict[str, MiningResult], MiningReport]:
    """Mine every region of a corpus CSR, in sorted region order.

    *miner* has ``min_support`` and ``mine(database)`` and reads nothing
    but the database's matrix, as :class:`~repro.mining.eclat.EclatMiner`
    does.  Each region is packed from the CSR, whether it was just built or
    memory-mapped from its sidecar, keeping only the items whose region
    support reaches the miner's own :func:`minimum_support_count`: no other
    item can be in a frequent itemset, so the result is the one
    :meth:`~repro.mining.shm.CorpusMatrix.region_database` would give.  No
    per-transaction id array or frozenset is built, the packed database
    stays inside this loop, and it raises on anything that would need a
    dropped item.  Every region arrives with its matrix, so none counts as
    a compile.
    """

    def frequent_part(region: str) -> TransactionDatabase:
        min_count = minimum_support_count(
            miner.min_support, corpus.span_of(region).n_transactions
        )
        return TransactionDatabase.from_matrix(corpus._pack(region, min_count))

    return _mine(sorted(corpus.regions), frequent_part, miner)
