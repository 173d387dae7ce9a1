"""Lossless serialization of :class:`~repro.core.results.AnalysisResults`.

The serve layer persists finished analyses as JSON so they can be reloaded
and queried without recomputation.  This module is the single place that
knows how an :class:`AnalysisResults` bundle maps to a JSON document:

* :func:`results_to_dict` / :func:`results_from_dict` -- the full round-trip,
  delegating to each artifact's own ``to_dict`` / ``from_dict`` pair;
* :func:`mining_to_dict` / :func:`mining_from_dict` -- the per-cuisine mining
  results alone (cached separately so a clustering-only config change can
  reuse them);
* :func:`dumps` / :func:`loads` -- canonical JSON text (sorted keys, compact
  separators), which makes byte-identical documents for identical artifacts;
* :func:`pack` / :func:`unpack` -- the stored form of a payload, in which
  every large all-``float`` array is one base64 string of its float64 bytes
  (see :func:`pack`); the artifact store writes ``dumps(pack(payload))``
  and parses with ``json.loads(text, object_hook=unpack)``, so its readers
  get back exactly the payload that was put;
* :func:`config_key` / :func:`analysis_key` / :func:`mining_key` -- the
  deterministic cache keys derived from an :class:`AnalysisConfig`.

Every numeric value is written with full ``repr`` precision (the standard
``json`` module round-trips doubles exactly), so ``results_from_dict``
rebuilds an object that compares equal to the original, field by field.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from itertools import chain
from typing import Iterable, Mapping

import numpy as np

from repro.authenticity.fingerprint import CuisineFingerprint
from repro.cluster.elbow import ElbowAnalysis
from repro.cluster.fihc import FIHCResult
from repro.cluster.hierarchy import ClusteringRun
from repro.core.config import AnalysisConfig
from repro.core.results import AnalysisResults
from repro.core.table1 import Table1
from repro.errors import ServeError
from repro.features.matrix import FeatureMatrix
from repro.geo.comparison import ClaimCheck, TreeComparison
from repro.mining.itemsets import MiningResult
from repro.recipedb.stats import CorpusStatistics

__all__ = [
    "SCHEMA_VERSION",
    "MINING_CONFIG_FIELDS",
    "CORPUS_CONFIG_FIELDS",
    "MINING_GROUP_FIELDS",
    "PACKED_MARKER",
    "PACK_MIN_FLOATS",
    "dumps",
    "loads",
    "pack",
    "unpack",
    "config_key",
    "analysis_key",
    "mining_key",
    "corpus_key",
    "mining_group_key",
    "results_to_dict",
    "results_from_dict",
    "mining_to_dict",
    "mining_from_dict",
]

SCHEMA_VERSION = 1

#: The config fields the corpus + mining stages depend on.  Everything the
#: later stages tune (linkage, elbow range, fingerprint size, ...) is absent,
#: so two configs differing only in clustering parameters share a mining key.
MINING_CONFIG_FIELDS = ("seed", "scale", "min_support", "max_pattern_length")

#: The config fields the synthetic corpus depends on; every ``min_support``
#: sweep entry over one corpus shares this key (and hence the persisted
#: corpus and its CSR sidecar).
CORPUS_CONFIG_FIELDS = ("seed", "scale")

#: The fields a *family* of mining runs shares when only ``min_support``
#: varies.  Runs in one family index into the same downward-closure group:
#: a cached run at a lower support is a superset of any higher-support run.
MINING_GROUP_FIELDS = ("seed", "scale", "max_pattern_length")


# -- canonical JSON ------------------------------------------------------------------


def dumps(payload: Mapping[str, object]) -> str:
    """Canonical JSON text: sorted keys, compact separators, no NaN."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def loads(text: str) -> dict[str, object]:
    """Parse JSON text produced by :func:`dumps` (or any JSON object)."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ServeError(f"expected a JSON object, got {type(payload).__name__}")
    return payload


# -- packed float arrays ---------------------------------------------------------------

#: The key of a packed array node: ``{"$f64le": <base64>, "shape": [n]}`` or
#: ``{"$f64le": <base64>, "shape": [rows, columns]}``.
PACKED_MARKER = "$f64le"

#: The fewest elements an all-``float`` array holds before :func:`pack`
#: packs it.  Smaller arrays stay readable decimals: packing them would
#: save well under a millisecond per artifact, and for integral-valued
#: floats it costs bytes (see ``docs/storage-engine.md``).
PACK_MIN_FLOATS = 256


def pack(payload: dict[str, object]) -> dict[str, object]:
    """*payload* with every large all-``float`` array packed into one string.

    A flat list, or a rectangular list of lists, whose every element is
    exactly a Python ``float`` and which holds at least
    :data:`PACK_MIN_FLOATS` of them becomes a node ``{"$f64le": <base64 of
    its little-endian float64 bytes>, "shape": [...]}``.  Anything else --
    an array holding an int, a bool or ``None``, a ragged or small one --
    stays as it is, so :func:`unpack` gives back lists equal bit for bit,
    ``-0.0`` and subnormals included.  *payload* is not modified: the
    containers on the way to a packed array are copied, the rest shared.

    Raises ``ValueError`` for a non-finite value in an array it packs, as
    :func:`dumps` does for any other, and for a dict that already uses the
    marker key, which :func:`unpack` could not tell from a packed node.
    """
    return _pack(payload)  # type: ignore[return-value]


def unpack(node: dict[str, object]) -> dict[str, object] | list:
    """One parsed JSON object, or the lists it holds when it is a packed node.

    Made for ``json.loads(text, object_hook=unpack)``, which calls it on
    every object of a document, innermost first: each :func:`pack` node
    comes back as the nested lists it was packed from, wherever it sits.
    An object without the ``"$f64le"`` key -- every object of an artifact
    written before packing -- is returned as it is.

    Raises ``ValueError`` for a malformed packed node: other keys beside
    ``"$f64le"`` and ``"shape"``, a shape that is not a list of one or two
    non-negative ints, data that is not base64, a byte length other than
    8 × the shape's product, or a non-finite value.
    """
    if PACKED_MARKER not in node:
        return node
    data, shape = node[PACKED_MARKER], node.get("shape")
    if len(node) != 2 or not isinstance(shape, list) or not 1 <= len(shape) <= 2:
        raise ValueError(f"a packed array needs exactly {PACKED_MARKER!r} and a shape")
    if any(type(size) is not int or size < 0 for size in shape):
        raise ValueError(f"packed array shape {shape!r} is not non-negative ints")
    if not isinstance(data, str):
        raise ValueError("packed array data is not a base64 string")
    raw = base64.b64decode(data, validate=True)
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"packed array holds {len(raw)} bytes, not 8 × {shape}")
    array = np.frombuffer(raw, dtype="<f8")
    if not np.isfinite(array).all():
        raise ValueError("packed array holds a non-finite value")
    return array.reshape(shape).tolist()


_CONTAINERS = (dict, list, tuple)


def _pack(node: dict | list | tuple) -> object:
    """*node* with its large float arrays packed; copied only where it changed."""
    if isinstance(node, dict):
        if PACKED_MARKER in node:
            raise ValueError(f"payload dicts must not use the key {PACKED_MARKER!r}")
        pairs: Iterable[tuple[object, object]] = node.items()
    else:
        packed = _packed_array(node)
        if packed is not None:
            return packed
        pairs = enumerate(node)
    copy: dict | list | None = None
    for key, value in pairs:
        if isinstance(value, _CONTAINERS):
            rewritten = _pack(value)
            if rewritten is not value:
                if copy is None:
                    copy = dict(node) if isinstance(node, dict) else list(node)
                copy[key] = rewritten  # type: ignore[index]
    return node if copy is None else copy


def _packed_array(node: list | tuple) -> dict[str, object] | None:
    """The packed node for *node*, or ``None`` when it is not packed."""
    if type(node) is not list or not node:
        return None
    if type(node[0]) is list:
        shape = [len(node), len(node[0])]
        if shape[0] * shape[1] < PACK_MIN_FLOATS:
            return None
        if set(map(type, node)) != {list} or set(map(len, node)) != {shape[1]}:
            return None
        if set(map(type, chain.from_iterable(node))) != {float}:
            return None
    else:
        shape = [len(node)]
        if shape[0] < PACK_MIN_FLOATS or set(map(type, node)) != {float}:
            return None
    array = np.array(node, dtype="<f8")
    if not np.isfinite(array).all():
        raise ValueError("Out of range float values are not JSON compliant")
    return {PACKED_MARKER: base64.b64encode(array.tobytes()).decode("ascii"), "shape": shape}


# -- cache keys ------------------------------------------------------------------------


def config_key(config: AnalysisConfig, fields: tuple[str, ...] | None = None) -> str:
    """Deterministic hex digest of (a projection of) an analysis config.

    With ``fields=None`` every config field participates; passing a field
    subset yields stage-level keys that ignore parameters the stage does not
    depend on.
    """
    payload = config.to_dict()
    if fields is not None:
        unknown = set(fields) - set(payload)
        if unknown:
            raise ServeError(f"unknown config fields for cache key: {sorted(unknown)}")
        payload = {name: payload[name] for name in fields}
    return hashlib.sha256(dumps(payload).encode("utf-8")).hexdigest()


def analysis_key(config: AnalysisConfig) -> str:
    """Cache key of a full analysis (every config field participates)."""
    return config_key(config)


def mining_key(config: AnalysisConfig) -> str:
    """Cache key of the corpus + mining stages (clustering fields ignored)."""
    return config_key(config, MINING_CONFIG_FIELDS)


def corpus_key(config: AnalysisConfig) -> str:
    """Cache key of the synthetic corpus (seed + scale only)."""
    return config_key(config, CORPUS_CONFIG_FIELDS)


def mining_group_key(config: AnalysisConfig) -> str:
    """Key of the mining family whose members differ only in ``min_support``."""
    return config_key(config, MINING_GROUP_FIELDS)


# -- mining results --------------------------------------------------------------------


def mining_to_dict(mining_results: Mapping[str, MiningResult]) -> dict[str, object]:
    """Serialise per-cuisine mining results."""
    return {
        "schema_version": SCHEMA_VERSION,
        "mining_results": {
            region: mining_results[region].to_dict() for region in sorted(mining_results)
        },
    }


def mining_from_dict(payload: Mapping[str, object]) -> dict[str, MiningResult]:
    """Rebuild per-cuisine mining results from :func:`mining_to_dict` output."""
    _check_schema(payload)
    return {
        str(region): MiningResult.from_dict(entry)
        for region, entry in dict(payload["mining_results"]).items()  # type: ignore[arg-type]
    }


# -- full results ----------------------------------------------------------------------


def results_to_dict(results: AnalysisResults) -> dict[str, object]:
    """Serialise a full analysis to a JSON-compatible dictionary."""
    return {
        "schema_version": SCHEMA_VERSION,
        "config": results.config.to_dict(),
        "corpus_stats": results.corpus_stats.to_dict(),
        "mining_results": {
            region: result.to_dict() for region, result in sorted(results.mining_results.items())
        },
        "table1": results.table1.to_dict(),
        "pattern_features": results.pattern_features.to_dict(),
        "elbow": results.elbow.to_dict(),
        "figure2_euclidean": results.figure2_euclidean.to_dict(),
        "figure3_cosine": results.figure3_cosine.to_dict(),
        "figure4_jaccard": results.figure4_jaccard.to_dict(),
        "figure5_authenticity": results.figure5_authenticity.to_dict(),
        "figure6_geography": results.figure6_geography.to_dict(),
        "fihc": results.fihc.to_dict(),
        "fingerprints": {
            cuisine: fingerprint.to_dict()
            for cuisine, fingerprint in sorted(results.fingerprints.items())
        },
        "geography_validation": {
            name: comparison.to_dict()
            for name, comparison in sorted(results.geography_validation.items())
        },
        "claim_checks": {
            name: [check.to_dict() for check in checks]
            for name, checks in sorted(results.claim_checks.items())
        },
    }


def results_from_dict(payload: Mapping[str, object]) -> AnalysisResults:
    """Rebuild a full analysis from :func:`results_to_dict` output."""
    _check_schema(payload)
    try:
        return AnalysisResults(
            config=AnalysisConfig.from_dict(payload["config"]),  # type: ignore[arg-type]
            corpus_stats=CorpusStatistics.from_dict(payload["corpus_stats"]),  # type: ignore[arg-type]
            mining_results={
                str(region): MiningResult.from_dict(entry)
                for region, entry in dict(payload["mining_results"]).items()  # type: ignore[arg-type]
            },
            table1=Table1.from_dict(payload["table1"]),  # type: ignore[arg-type]
            pattern_features=FeatureMatrix.from_dict(payload["pattern_features"]),  # type: ignore[arg-type]
            elbow=ElbowAnalysis.from_dict(payload["elbow"]),  # type: ignore[arg-type]
            figure2_euclidean=ClusteringRun.from_dict(payload["figure2_euclidean"]),  # type: ignore[arg-type]
            figure3_cosine=ClusteringRun.from_dict(payload["figure3_cosine"]),  # type: ignore[arg-type]
            figure4_jaccard=ClusteringRun.from_dict(payload["figure4_jaccard"]),  # type: ignore[arg-type]
            figure5_authenticity=ClusteringRun.from_dict(payload["figure5_authenticity"]),  # type: ignore[arg-type]
            figure6_geography=ClusteringRun.from_dict(payload["figure6_geography"]),  # type: ignore[arg-type]
            fihc=FIHCResult.from_dict(payload["fihc"]),  # type: ignore[arg-type]
            fingerprints={
                str(cuisine): CuisineFingerprint.from_dict(entry)
                for cuisine, entry in dict(payload["fingerprints"]).items()  # type: ignore[arg-type]
            },
            geography_validation={
                str(name): TreeComparison.from_dict(entry)
                for name, entry in dict(payload["geography_validation"]).items()  # type: ignore[arg-type]
            },
            claim_checks={
                str(name): tuple(ClaimCheck.from_dict(check) for check in checks)
                for name, checks in dict(payload["claim_checks"]).items()  # type: ignore[arg-type]
            },
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ServeError(f"malformed analysis payload: {exc}") from exc


def _check_schema(payload: Mapping[str, object]) -> None:
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ServeError(
            f"unsupported serve schema version {version!r} "
            f"(this build reads version {SCHEMA_VERSION})"
        )
