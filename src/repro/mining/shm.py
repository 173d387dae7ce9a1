"""One global transaction matrix for the whole corpus.

:class:`CorpusMatrix` holds the per-region packed bitsets of a whole corpus
concatenated into **one** arena.  Every region keeps its own
independently-packed block of byte columns, so extracting a region is a pure
byte-range slice (no bit shifting), and dropping the rows with zero support
inside the region reproduces the region's own
:class:`~repro.mining.bitmatrix.TransactionMatrix` byte-for-byte -- mining
from an extracted region is indistinguishable from mining the region
database directly.

A corpus matrix persists as a single memory-mappable sidecar (a JSON meta
file plus three ``.npy`` arrays), which is the serve layer's warm-start
artifact: a restarted service maps it read-only and mines every region
without compiling anything.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.errors import MiningError, SidecarError
from repro.mining.bitmatrix import TransactionMatrix, _replace_with, popcount, sidecar_paths
from repro.mining.itemsets import TransactionDatabase

__all__ = [
    "CORPUS_SIDECAR_VERSION",
    "RegionSpan",
    "CorpusMatrix",
]

#: Bump when the corpus-sidecar layout changes; loaders reject other versions.
CORPUS_SIDECAR_VERSION = 1


@dataclass(frozen=True, slots=True)
class RegionSpan:
    """Where one region lives inside the corpus arena.

    ``tx_start:tx_stop`` index the corpus-wide transaction sequence (and
    thereby ``offsets``); ``word_start:word_stop`` are the byte columns of
    the region's packed block inside ``rows``.
    """

    region: str
    tx_start: int
    tx_stop: int
    word_start: int
    word_stop: int

    @property
    def n_transactions(self) -> int:
        return self.tx_stop - self.tx_start

    @property
    def n_words(self) -> int:
        return self.word_stop - self.word_start

    def to_dict(self) -> dict[str, object]:
        return {
            "region": self.region,
            "tx_start": self.tx_start,
            "tx_stop": self.tx_stop,
            "word_start": self.word_start,
            "word_stop": self.word_stop,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "RegionSpan":
        return cls(
            region=str(payload["region"]),
            tx_start=int(payload["tx_start"]),  # type: ignore[arg-type]
            tx_stop=int(payload["tx_stop"]),  # type: ignore[arg-type]
            word_start=int(payload["word_start"]),  # type: ignore[arg-type]
            word_stop=int(payload["word_stop"]),  # type: ignore[arg-type]
        )


class CorpusMatrix:
    """All regions' packed bitsets in one arena, region-extractable.

    * ``rows`` -- ``(n_items, total_words)`` uint8: the global sorted
      vocabulary down the rows, each region's independently-packed byte
      block side by side along the columns;
    * ``tids`` + ``offsets`` -- every transaction's sorted **global** item
      ids, flattened, in region order (for FP-tree construction);
    * ``spans`` -- one :class:`RegionSpan` per region, sorted by name.
    """

    __slots__ = ("items", "item_index", "spans", "_span_index", "rows", "tids", "offsets")

    def __init__(
        self,
        items: tuple[str, ...],
        spans: tuple[RegionSpan, ...],
        rows: np.ndarray,
        tids: np.ndarray,
        offsets: np.ndarray,
    ) -> None:
        self.items = items
        self.item_index = {item: index for index, item in enumerate(items)}
        self.spans = spans
        self._span_index = {span.region: span for span in spans}
        self.rows = rows
        self.tids = tids
        self.offsets = offsets

    @classmethod
    def from_transactions(
        cls, transactions: Mapping[str, TransactionDatabase]
    ) -> "CorpusMatrix":
        """Assemble the corpus arena from per-region transaction databases.

        Each region's :meth:`~repro.mining.itemsets.TransactionDatabase.matrix`
        is compiled (or reused when already memoized) and scattered into the
        global-vocabulary rows; its local item ids are remapped to global
        ids.  Both maps are strictly increasing (a sorted sub-vocabulary maps
        into the sorted union), so extraction reverses them exactly.
        """
        regions = sorted(transactions)
        matrices = {region: transactions[region].matrix() for region in regions}
        vocabulary: set[str] = set()
        for matrix in matrices.values():
            vocabulary.update(matrix.items)
        items = tuple(sorted(vocabulary))
        item_index = {item: index for index, item in enumerate(items)}

        total_words = sum(matrix.n_words for matrix in matrices.values())
        rows = np.zeros((len(items), total_words), dtype=np.uint8)
        spans: list[RegionSpan] = []
        tid_chunks: list[np.ndarray] = []
        lengths: list[int] = []
        word_cursor = 0
        tx_cursor = 0
        for region in regions:
            matrix = matrices[region]
            global_ids = np.fromiter(
                (item_index[item] for item in matrix.items),
                dtype=np.int64,
                count=matrix.n_items,
            )
            word_stop = word_cursor + matrix.n_words
            if matrix.n_items:
                rows[global_ids, word_cursor:word_stop] = matrix.packed_rows
            for local in matrix.transaction_id_arrays():
                tid_chunks.append(global_ids[local])
                lengths.append(len(local))
            spans.append(
                RegionSpan(
                    region=region,
                    tx_start=tx_cursor,
                    tx_stop=tx_cursor + matrix.n_transactions,
                    word_start=word_cursor,
                    word_stop=word_stop,
                )
            )
            word_cursor = word_stop
            tx_cursor += matrix.n_transactions

        tids = (
            np.concatenate(tid_chunks) if tid_chunks else np.zeros(0, dtype=np.int64)
        ).astype(np.int64, copy=False)
        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(np.asarray(lengths, dtype=np.int64), out=offsets[1:])
        return cls(items, tuple(spans), rows, tids, offsets)

    # -- introspection ---------------------------------------------------------------

    @property
    def regions(self) -> tuple[str, ...]:
        return tuple(span.region for span in self.spans)

    @property
    def n_transactions(self) -> int:
        return len(self.offsets) - 1

    @property
    def total_words(self) -> int:
        return self.rows.shape[1]

    def span_of(self, region: str) -> RegionSpan:
        try:
            return self._span_index[region]
        except KeyError:
            raise MiningError(f"unknown region {region!r} in corpus matrix") from None

    # -- region extraction -----------------------------------------------------------

    def region_matrix(self, region: str) -> TransactionMatrix:
        """The region's own :class:`TransactionMatrix`, byte-identical to a
        fresh compile of the region database (same vocabulary, same packed
        rows, same tid arrays) -- but produced by slicing the arena with
        zero ``packbits`` passes."""
        span = self.span_of(region)
        block = self.rows[:, span.word_start:span.word_stop]
        keep = np.flatnonzero(popcount(block).sum(axis=1, dtype=np.int64) > 0)
        items = tuple(self.items[index] for index in keep)
        region_rows = np.ascontiguousarray(block[keep])
        lookup = np.full(len(self.items), -1, dtype=np.int64)
        lookup[keep] = np.arange(len(keep), dtype=np.int64)
        lo = int(self.offsets[span.tx_start])
        hi = int(self.offsets[span.tx_stop])
        local_flat = lookup[np.asarray(self.tids[lo:hi])]
        rel = np.asarray(self.offsets[span.tx_start : span.tx_stop + 1]) - lo
        transaction_ids = tuple(
            local_flat[rel[i] : rel[i + 1]] for i in range(span.n_transactions)
        )
        return TransactionMatrix._from_arrays(
            items, span.n_transactions, region_rows, transaction_ids
        )

    def region_database(self, region: str) -> TransactionDatabase:
        """The region as a matrix-backed database, ready for any miner."""
        return TransactionDatabase.from_matrix(self.region_matrix(region))

    # -- persistence -----------------------------------------------------------------

    def save(self, prefix: Path | str, *, fingerprint: str = "") -> Path:
        """Persist as one memory-mappable sidecar (meta written last)."""
        paths = sidecar_paths(prefix)
        paths["meta"].parent.mkdir(parents=True, exist_ok=True)
        _replace_with(paths["rows"], np.ascontiguousarray(self.rows))
        _replace_with(paths["tids"], np.ascontiguousarray(self.tids))
        _replace_with(paths["offsets"], np.ascontiguousarray(self.offsets))
        meta = {
            "version": CORPUS_SIDECAR_VERSION,
            "kind": "corpus",
            "fingerprint": fingerprint,
            "items": list(self.items),
            "regions": [span.to_dict() for span in self.spans],
            "n_transactions": self.n_transactions,
            "total_words": self.total_words,
        }
        temp = paths["meta"].with_name(paths["meta"].name + ".tmp")
        temp.write_text(json.dumps(meta, sort_keys=True), encoding="utf-8")
        temp.replace(paths["meta"])
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
            raise SidecarError(
                f"unsupported corpus sidecar version {meta.get('version')!r} at {prefix}"
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
        mmap_mode = "r" if mmap else None
        try:
            rows = np.load(paths["rows"], mmap_mode=mmap_mode, allow_pickle=False)
            tids = np.load(paths["tids"], mmap_mode=mmap_mode, allow_pickle=False)
            offsets = np.load(paths["offsets"], allow_pickle=False)
        except (OSError, ValueError) as exc:
            raise SidecarError(
                f"unreadable corpus sidecar arrays at {prefix}: {exc}"
            ) from exc
        items = tuple(str(item) for item in meta.get("items", ()))
        n_transactions = int(meta.get("n_transactions", -1))
        spans_ok = (
            all(
                0 <= span.tx_start <= span.tx_stop <= n_transactions
                and 0 <= span.word_start <= span.word_stop <= rows.shape[1]
                for span in spans
            )
            if rows.ndim == 2
            else False
        )
        if (
            rows.ndim != 2
            or rows.dtype != np.uint8
            or rows.shape[0] != len(items)
            or rows.shape[1] != int(meta.get("total_words", -1))
            or offsets.ndim != 1
            or len(offsets) != n_transactions + 1
            or tids.ndim != 1
            or (len(offsets) > 0 and int(offsets[-1]) != len(tids))
            or not spans_ok
            or sum(span.n_transactions for span in spans) != n_transactions
        ):
            raise SidecarError(f"inconsistent corpus sidecar shapes at {prefix}")
        return cls(items, spans, rows, tids.astype(np.int64, copy=False), offsets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CorpusMatrix(regions={len(self.spans)}, items={len(self.items)}, "
            f"transactions={self.n_transactions}, words={self.total_words})"
        )
