"""The corpus in one integer-id form: a CSR of every recipe's item ids.

:class:`CorpusMatrix` holds a whole corpus as one compressed sparse row
(CSR) structure over a global sorted vocabulary: ``tids`` is every
transaction's sorted, de-duplicated item ids flattened in region order, and
``offsets`` delimits the transactions.  Its size is the number of non-zeros,
the same order as the corpus itself.  Mining needs only these ids in a
vertical layout (Eclat, Zaki 2000), so each region is packed into its own
:class:`~repro.mining.bitmatrix.TransactionMatrix` on demand by
:meth:`CorpusMatrix.pack`, the one routine that builds a bit matrix.  It
keeps only the items whose region support reaches the miner's support
count, which finds every frequent itemset.  Raw transactions enter through
:meth:`CorpusMatrix.from_transactions`.

A corpus matrix persists as a single memory-mappable sidecar (a JSON meta
file plus two ``.npy`` arrays), which is the serve layer's warm-start
artifact: a restarted service maps it read-only and mines every region
without rebuilding the CSR.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from repro.errors import MiningError, SidecarError
from repro.files import load_sidecar, save_sidecar
from repro.mining.bitmatrix import TransactionMatrix

__all__ = [
    "CORPUS_SIDECAR_VERSION",
    "RegionSpan",
    "CorpusMatrix",
]

#: Bump when the corpus-sidecar layout changes; loaders reject other versions.
CORPUS_SIDECAR_VERSION = 2

#: The version-1 dense arena, deleted by :meth:`CorpusMatrix.save`.
_LEGACY_ROWS_SUFFIX = ".rows.npy"


@dataclass(frozen=True, slots=True)
class RegionSpan:
    """Where one region lives in the corpus CSR.

    ``tx_start:tx_stop`` index the corpus-wide transaction sequence, and
    thereby ``offsets``.
    """

    region: str
    tx_start: int
    tx_stop: int

    @property
    def n_transactions(self) -> int:
        return self.tx_stop - self.tx_start

    def to_dict(self) -> dict[str, object]:
        return {"region": self.region, "tx_start": self.tx_start, "tx_stop": self.tx_stop}

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "RegionSpan":
        return cls(
            region=str(payload["region"]),
            tx_start=int(payload["tx_start"]),  # type: ignore[arg-type]
            tx_stop=int(payload["tx_stop"]),  # type: ignore[arg-type]
        )


class CorpusMatrix:
    """Every transaction's global item ids as one CSR, region-packable.

    * ``items`` -- the sorted global vocabulary; an item's position is its id;
    * ``spans`` -- one :class:`RegionSpan` per region, sorted by name;
    * ``tids`` -- int32, each transaction's sorted distinct ids, flattened
      in region order;
    * ``offsets`` -- int64, transaction ``t`` is ``tids[offsets[t]:offsets[t + 1]]``.
    """

    __slots__ = ("items", "spans", "_span_index", "tids", "offsets")

    #: The sidecar's arrays, each a ``<prefix>.<role>.npy`` file.
    SIDECAR_ROLES = ("tids", "offsets")

    def __init__(
        self,
        items: tuple[str, ...],
        spans: tuple[RegionSpan, ...],
        tids: np.ndarray,
        offsets: np.ndarray,
    ) -> None:
        self.items = items
        self.spans = spans
        self._span_index = {span.region: span for span in spans}
        self.tids = tids
        self.offsets = offsets

    @classmethod
    def from_transactions(
        cls, transactions: Mapping[str, Iterable[Iterable[str]]]
    ) -> "CorpusMatrix":
        """Build the CSR from per-region transactions.

        Each region maps to an iterable of item iterables, in which an item
        may repeat; items are taken as strings.  Names map to ids in one
        pass; one sort of the ``(row, id)`` keys then sorts every row, and
        equal neighbouring keys are a row's repeats.  Empty transactions
        are dropped; a region without transactions keeps an empty span.
        """
        names: list[str] = []
        lengths: list[int] = []
        spans: list[RegionSpan] = []
        for region in sorted(transactions):
            start = len(lengths)
            for transaction in transactions[region]:
                before = len(names)
                names.extend(transaction)
                if len(names) > before:
                    lengths.append(len(names) - before)
            spans.append(RegionSpan(region, start, len(lengths)))

        unique = set(names)
        if not all(isinstance(name, str) for name in unique):
            names = list(map(str, names))
            unique = set(names)
        items = tuple(sorted(unique))
        item_index = {item: index for index, item in enumerate(items)}
        ids = np.fromiter(
            map(item_index.__getitem__, names), dtype=np.int32, count=len(names)
        )
        rows = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
        # The rows are already in order, so sorting the keys only moves ids
        # within their row: key - row * n_items is the sorted id.
        keys = rows * len(items) + ids
        keys.sort()
        keep = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows[keep], minlength=len(lengths)), out=offsets[1:])
        tids = (keys - rows * len(items))[keep].astype(np.int32)
        return cls(items, tuple(spans), tids, offsets)

    # -- introspection ---------------------------------------------------------------

    @property
    def regions(self) -> tuple[str, ...]:
        return tuple(span.region for span in self.spans)

    @property
    def n_transactions(self) -> int:
        return len(self.offsets) - 1

    def span_of(self, region: str) -> RegionSpan:
        try:
            return self._span_index[region]
        except KeyError:
            raise MiningError(f"unknown region {region!r} in corpus matrix") from None

    # -- region packing --------------------------------------------------------------

    def pack(self, region: str, min_count: int) -> TransactionMatrix:
        """Pack the region's items whose support reaches *min_count*.

        ``np.bincount`` over the region's slice gives every item's support
        in the region; the items reaching *min_count* become the packed
        rows, in global id (= sorted name) order, and each of their
        ``(item, transaction)`` pairs is set as one bit.  Time and memory
        are linear in the slice's size plus the packed rows.

        Mining at a support count of *min_count* needs no other row: an
        itemset is at most as frequent as each of its items (the
        anti-monotone property Eclat's tid-set search rests on), so a
        dropped item is in no frequent itemset.  The matrix records
        *min_count* (at least 1) as its ``floor`` and answers nothing that
        would need a dropped item (see :class:`TransactionMatrix`).
        """
        span = self.span_of(region)
        n = span.n_transactions
        floor = max(1, min_count)
        lo = int(self.offsets[span.tx_start])
        rel = np.asarray(self.offsets[span.tx_start : span.tx_stop + 1]) - lo
        flat = np.asarray(self.tids[lo : lo + int(rel[-1])])
        counts = np.bincount(flat, minlength=len(self.items))
        keep = np.flatnonzero(counts >= floor)
        lookup = np.full(len(self.items), -1, dtype=np.int64)
        lookup[keep] = np.arange(len(keep), dtype=np.int64)
        local = lookup[flat]
        tx = np.repeat(np.arange(n, dtype=np.int64), np.diff(rel))
        if floor > 1:
            kept = local >= 0
            local, tx = local[kept], tx[kept]
        # Set each (item, transaction) bit straight into the packed rows, in
        # np.packbits' layout (first transaction in a byte's high bit), so
        # no dense items x transactions presence matrix is ever made.
        n_words = (max(1, n) + 7) // 8
        packed = np.zeros(len(keep) * n_words, dtype=np.uint8)
        np.bitwise_or.at(
            packed, local * n_words + (tx >> 3), (0x80 >> (tx & 7)).astype(np.uint8)
        )
        return TransactionMatrix(
            tuple(map(self.items.__getitem__, keep.tolist())),
            n,
            packed.reshape(len(keep), n_words),
            counts[keep],
            floor=floor,
        )

    # -- persistence -----------------------------------------------------------------

    def save(self, prefix: Path | str, *, fingerprint: str = "") -> Path:
        """Persist as one memory-mappable sidecar (see :mod:`repro.files`).

        A version-1 dense ``.rows.npy`` left at *prefix* is deleted.
        """
        meta_path = save_sidecar(
            prefix,
            kind="corpus",
            version=CORPUS_SIDECAR_VERSION,
            fingerprint=fingerprint,
            arrays={"tids": self.tids, "offsets": self.offsets},
            meta={
                "items": list(self.items),
                "regions": [span.to_dict() for span in self.spans],
                "n_transactions": self.n_transactions,
            },
        )
        prefix = Path(prefix)
        prefix.with_name(prefix.name + _LEGACY_ROWS_SUFFIX).unlink(missing_ok=True)
        return meta_path

    @classmethod
    def load(
        cls,
        prefix: Path | str,
        *,
        mmap: bool = True,
        expected_fingerprint: str | None = None,
    ) -> "CorpusMatrix":
        """Load a corpus sidecar, memory-mapping ``tids`` if *mmap*; raises
        :class:`SidecarError` when missing, corrupt, the wrong layout
        version, stale (fingerprint mismatch) or inconsistent."""
        meta, arrays = load_sidecar(
            prefix,
            kind="corpus",
            version=CORPUS_SIDECAR_VERSION,
            roles=cls.SIDECAR_ROLES,
            mapped=("tids",) if mmap else (),
            expected_fingerprint=expected_fingerprint,
        )
        try:
            spans = tuple(RegionSpan.from_dict(row) for row in meta.get("regions", ()))
            items = tuple(str(item) for item in meta.get("items", ()))
            n_transactions = int(meta.get("n_transactions", -1))
        except (KeyError, TypeError, ValueError) as exc:
            raise SidecarError(f"malformed corpus sidecar meta at {prefix}") from exc
        tids, offsets = arrays["tids"], arrays["offsets"]
        if (
            n_transactions < 0
            or tids.ndim != 1
            or tids.dtype != np.int32
            or offsets.ndim != 1
            or offsets.dtype != np.int64
            or len(offsets) != n_transactions + 1
            or offsets[0] != 0
            or offsets[-1] != len(tids)
            or np.any(np.diff(offsets) < 0)
            or (len(tids) and (tids.min() < 0 or tids.max() >= len(items)))
            or not all(
                0 <= span.tx_start <= span.tx_stop <= n_transactions for span in spans
            )
            or sum(span.n_transactions for span in spans) != n_transactions
        ):
            raise SidecarError(f"inconsistent corpus sidecar shapes at {prefix}")
        return cls(items, spans, tids, offsets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CorpusMatrix(regions={len(self.spans)}, items={len(self.items)}, "
            f"transactions={self.n_transactions}, ids={len(self.tids)})"
        )
