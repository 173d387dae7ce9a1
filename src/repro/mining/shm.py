"""The corpus in one integer-id form: a CSR of every recipe's item ids.

:class:`CorpusMatrix` holds a whole corpus as one compressed sparse row
(CSR) structure over a global sorted vocabulary: ``tids`` is every
transaction's sorted, de-duplicated item ids flattened in region order, and
``offsets`` delimits the transactions.  Its size is the number of non-zeros,
the same order as the corpus itself.  Mining needs only these ids in a
vertical layout (Eclat, Zaki 2000), so each region is packed into its own
:class:`~repro.mining.bitmatrix.TransactionMatrix` on demand, and that
matrix equals a fresh compile of the region's transactions byte for byte
-- mining a region of the CSR is indistinguishable from mining the region
database directly.

A corpus matrix persists as a single memory-mappable sidecar (a JSON meta
file plus two ``.npy`` arrays), which is the serve layer's warm-start
artifact: a restarted service maps it read-only and mines every region
without rebuilding the CSR.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Iterable, Mapping

import numpy as np

from repro.errors import MiningError, SidecarError
from repro.mining.bitmatrix import TransactionMatrix, _replace_with
from repro.mining.itemsets import TransactionDatabase

__all__ = [
    "CORPUS_SIDECAR_VERSION",
    "RegionSpan",
    "CorpusMatrix",
    "sidecar_paths",
]

#: Bump when the corpus-sidecar layout changes; loaders reject other versions.
CORPUS_SIDECAR_VERSION = 2

_SIDECAR_SUFFIXES = {
    "meta": ".meta.json",
    "tids": ".tids.npy",
    "offsets": ".offsets.npy",
}
#: The version-1 dense arena, deleted by :meth:`CorpusMatrix.save`.
_LEGACY_ROWS_SUFFIX = ".rows.npy"


def sidecar_paths(prefix: Path | str) -> dict[str, Path]:
    """The three files one persisted corpus matrix occupies, keyed by role."""
    prefix = Path(prefix)
    return {
        role: prefix.with_name(prefix.name + suffix)
        for role, suffix in _SIDECAR_SUFFIXES.items()
    }


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
        cls, transactions: Mapping[str, Iterable[Collection[str]]]
    ) -> "CorpusMatrix":
        """Build the CSR from per-region transactions.

        Each region maps to an iterable of item collections: a
        :class:`~repro.mining.itemsets.TransactionDatabase`, or plain tuples
        of names in which a name may repeat.  Names map to ids in one pass;
        one sort of the ``(row, id)`` keys then sorts every row, and equal
        neighbouring keys are a row's repeats.  Empty transactions are
        dropped, as ``TransactionDatabase`` drops them; a region without
        transactions keeps an empty span.
        """
        names: list[str] = []
        lengths: list[int] = []
        spans: list[RegionSpan] = []
        for region in sorted(transactions):
            start = len(lengths)
            for transaction in transactions[region]:
                if transaction:
                    names.extend(transaction)
                    lengths.append(len(transaction))
            spans.append(RegionSpan(region, start, len(lengths)))

        items = tuple(sorted(set(names)))
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

    def region_matrix(self, region: str) -> TransactionMatrix:
        """The region's own :class:`TransactionMatrix`, packed from its CSR slice.

        ``np.bincount`` over the slice gives the region's vocabulary (every
        id it uses); each id is then set as one bit of the packed rows.
        Equal to a fresh compile of the region's transactions byte for byte:
        the same vocabulary, the same packed rows and the same
        per-transaction id arrays.  Time and memory are linear in the
        slice's size plus the packed rows.
        """
        span = self.span_of(region)
        n = span.n_transactions
        lo = int(self.offsets[span.tx_start])
        rel = np.asarray(self.offsets[span.tx_start : span.tx_stop + 1]) - lo
        flat = np.asarray(self.tids[lo : lo + int(rel[-1])])
        counts = np.bincount(flat, minlength=len(self.items))
        keep = np.flatnonzero(counts)
        lookup = np.zeros(len(self.items), dtype=np.int64)
        lookup[keep] = np.arange(len(keep), dtype=np.int64)
        local = lookup[flat]
        # Set each (item, transaction) bit straight into the packed rows, in
        # np.packbits' layout (first transaction in a byte's high bit), so
        # no dense items x transactions presence matrix is ever made.
        n_words = (max(1, n) + 7) // 8
        tx = np.repeat(np.arange(n, dtype=np.int64), np.diff(rel))
        packed = np.zeros(len(keep) * n_words, dtype=np.uint8)
        np.bitwise_or.at(
            packed, local * n_words + (tx >> 3), (0x80 >> (tx & 7)).astype(np.uint8)
        )
        return TransactionMatrix._from_arrays(
            tuple(map(self.items.__getitem__, keep.tolist())),
            n,
            packed.reshape(len(keep), n_words),
            counts[keep],
            tuple(local[rel[i] : rel[i + 1]] for i in range(n)),
        )

    def region_database(self, region: str) -> TransactionDatabase:
        """The region as a matrix-backed database, ready for any miner."""
        return TransactionDatabase.from_matrix(self.region_matrix(region))

    # -- persistence -----------------------------------------------------------------

    def save(self, prefix: Path | str, *, fingerprint: str = "") -> Path:
        """Persist as one memory-mappable sidecar (meta written last).

        A version-1 dense ``.rows.npy`` left at *prefix* is deleted.
        """
        paths = sidecar_paths(prefix)
        paths["meta"].parent.mkdir(parents=True, exist_ok=True)
        _replace_with(paths["tids"], np.ascontiguousarray(self.tids))
        _replace_with(paths["offsets"], np.ascontiguousarray(self.offsets))
        meta = {
            "version": CORPUS_SIDECAR_VERSION,
            "kind": "corpus",
            "fingerprint": fingerprint,
            "items": list(self.items),
            "regions": [span.to_dict() for span in self.spans],
            "n_transactions": self.n_transactions,
        }
        temp = paths["meta"].with_name(paths["meta"].name + ".tmp")
        temp.write_text(json.dumps(meta, sort_keys=True), encoding="utf-8")
        temp.replace(paths["meta"])
        prefix = Path(prefix)
        prefix.with_name(prefix.name + _LEGACY_ROWS_SUFFIX).unlink(missing_ok=True)
        return paths["meta"]

    @classmethod
    def load(
        cls,
        prefix: Path | str,
        *,
        mmap: bool = True,
        expected_fingerprint: str | None = None,
    ) -> "CorpusMatrix":
        """Load a corpus sidecar; raises :class:`SidecarError` when missing,
        corrupt, the wrong layout version, or stale (fingerprint mismatch)."""
        paths = sidecar_paths(prefix)
        try:
            meta = json.loads(paths["meta"].read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            raise SidecarError(f"no corpus matrix sidecar at {prefix}") from exc
        except (OSError, json.JSONDecodeError) as exc:
            raise SidecarError(
                f"unreadable corpus sidecar meta {paths['meta']}: {exc}"
            ) from exc
        if (
            not isinstance(meta, dict)
            or meta.get("version") != CORPUS_SIDECAR_VERSION
            or meta.get("kind") != "corpus"
        ):
            version = meta.get("version") if isinstance(meta, dict) else None
            raise SidecarError(
                f"unsupported corpus sidecar version {version!r} at {prefix}"
            )
        if (
            expected_fingerprint is not None
            and meta.get("fingerprint") != expected_fingerprint
        ):
            raise SidecarError(
                f"stale corpus sidecar at {prefix}: corpus fingerprint changed"
            )
        try:
            spans = tuple(RegionSpan.from_dict(row) for row in meta.get("regions", ()))
        except (KeyError, TypeError, ValueError) as exc:
            raise SidecarError(f"malformed corpus sidecar spans at {prefix}") from exc
        try:
            tids = np.load(
                paths["tids"], mmap_mode="r" if mmap else None, allow_pickle=False
            )
            offsets = np.load(paths["offsets"], allow_pickle=False)
        except (OSError, ValueError) as exc:
            raise SidecarError(
                f"unreadable corpus sidecar arrays at {prefix}: {exc}"
            ) from exc
        items = tuple(str(item) for item in meta.get("items", ()))
        n_transactions = int(meta.get("n_transactions", -1))
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
