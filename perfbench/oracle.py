"""Correctness oracle: canonical digests of answers and persisted analyses.

Response bodies are compared as the SHA-256 of their canonical JSON (sorted
keys, compact separators) after volatile fields -- timings, counters and
gauges -- are dropped.  Persisted analyses are read back through
``AnalysisService`` after the server stops and compared as the digest of
their ``repro.serve.codec`` canonical JSON, without the miner's
``algorithm`` label (a switch to another exact miner changes only that).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def digest_json(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _analyze_view(body: dict) -> dict:
    served = body["served"]
    return {"key": served["key"], "summary": body["summary"]}


def _healthz_view(body: dict) -> dict:
    return {name: value for name, value in body.items() if name not in ("inflight", "refreshing")}


def _stats_view(body: dict) -> dict:
    # The backend description ends with the cache path, which differs per run.
    return {"backend": body["backend"].split(" at ", 1)[0], "artifacts": body["artifacts"]}


_VIEWS = {
    "exact": lambda body: body,
    "analyze": _analyze_view,
    "healthz": _healthz_view,
    "stats": _stats_view,
}


def body_digest(check: str, body: bytes) -> str:
    """Digest of a 200 body under one of the named views."""
    return digest_json(_VIEWS[check](json.loads(body)))


def load_references() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


class BodyChecker:
    """Compares response bodies with references, parsing each distinct body once.

    A body byte-identical to one already verified for the same request id
    is accepted without parsing, so checking stays cheap at high request
    rates; volatile views are parsed every time.
    """

    def __init__(self, references: dict[str, str]):
        self.references = references
        self._verified: dict[str, bytes] = {}

    def ok(self, request_id: str, check: str, body: bytes) -> bool:
        if check == "exact" and self._verified.get(request_id) == body:
            return True
        expected = self.references.get(request_id)
        try:
            matches = expected is not None and body_digest(check, body) == expected
        except (ValueError, KeyError, TypeError):
            return False
        if matches and check == "exact":
            self._verified[request_id] = body
        return matches


def analysis_digest(results) -> str:
    """Digest of one analysis's canonical codec JSON, miner label dropped."""
    from repro.serve import codec

    payload = codec.results_to_dict(results)
    for entry in payload["mining_results"].values():
        entry.pop("algorithm", None)
    return hashlib.sha256(codec.dumps(payload).encode("utf-8")).hexdigest()


def persisted_digests(cache_dir: Path) -> dict[str, str]:
    """``analysis key -> digest`` for every analysis persisted in *cache_dir*,
    read back through ``AnalysisService``.

    An artifact that does not decode maps to ``"undecodable"``.
    """
    from repro.errors import ServeError
    from repro.serve import codec
    from repro.serve.service import ANALYSIS_KIND, AnalysisService

    service = AnalysisService(cache_dir, workers=0)
    digests = {}
    try:
        for key in service.cached_keys():
            try:
                results = codec.results_from_dict(service.store.get(ANALYSIS_KIND, key))
                digests[key] = analysis_digest(results)
            except (ServeError, TypeError, AttributeError):
                digests[key] = "undecodable"
    finally:
        service.store.close()
    return digests
