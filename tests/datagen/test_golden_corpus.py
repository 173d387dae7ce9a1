"""Golden digests pinning the synthetic corpus bytes and one full analysis.

The digests were recorded before the corpus stage was optimised (raw-first
vocabulary probes, lazily built inverted indexes, per-profile signature
tables, one-shot JSON encoding).  Those fast paths promise the same RNG
stream, the same corpus JSON bytes and the same ``AnalysisResults``; any
drift in the generator's random draws, the ``save_json`` byte layout or the
analysis output fails here loudly.  A deliberate change must re-record the
digests and say why.

The analysis digest is checked through every producer of mining results:
the pipeline, a cold service that builds and saves the corpus arena, a
second service that re-mines from the memory-mapped arena, and the
per-region fallback that runs when no arena can be built.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.config import AnalysisConfig
from repro.core.pipeline import CuisineClusteringPipeline
from repro.datagen.generator import generate_corpus
from repro.mining.shm import CorpusMatrix
from repro.recipedb.io_json import save_json
from repro.serve import codec
from repro.serve.service import AnalysisService

#: SHA-256 of ``save_json(generate_corpus(seed, scale))``.
CORPUS_DIGESTS = {
    (2020, 0.02): "dd0e51a80ebdeaee81e4dfd8c20b6a001371047bd835938aea217adc8aa39a30",
    (7, 0.05): "a6ab0e786de128dbf32e70b0ac970e5f6445df19f6b59a6049da224d38d082e9",
    (11, 0.01): "855c149eba2a6dde5a719b12d36ffb7a7af397a7aa080db8c0b40ae5f6d57d35",
}

#: SHA-256 of the canonical codec text of the default analysis at scale 0.02.
RESULTS_DIGEST = "beeaceea7e4902053afe2260f9a448b38730763d5b8080e092ae8e06e9b90115"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(("seed", "scale"), sorted(CORPUS_DIGESTS))
def test_corpus_bytes_match_golden_digest(seed, scale, tmp_path):
    path = save_json(generate_corpus(seed, scale), tmp_path / "corpus.json")
    assert _sha256(path.read_bytes()) == CORPUS_DIGESTS[(seed, scale)]


GOLDEN_CONFIG = AnalysisConfig(scale=0.02)


def _from_pipeline(tmp_path, monkeypatch):
    return CuisineClusteringPipeline(GOLDEN_CONFIG).run()


def _from_cold_service(tmp_path, monkeypatch):
    """Generates and saves the corpus, builds and saves the arena, mines it."""
    served = AnalysisService(tmp_path / "cache").get_or_run(GOLDEN_CONFIG)
    assert served.source == "computed"
    return served.results


def _from_mapped_arena(tmp_path, monkeypatch):
    """A second service re-mines from the memory-mapped arena sidecar."""
    AnalysisService(tmp_path / "cache").get_or_run(GOLDEN_CONFIG)
    warm = AnalysisService(tmp_path / "cache")
    warm.invalidate(GOLDEN_CONFIG, mining=True)
    served = warm.get_or_run(GOLDEN_CONFIG)
    assert served.source == "computed" and not served.mining_reused
    assert warm.last_mining_report.compiles == 0
    return served.results


def _from_fallback(tmp_path, monkeypatch):
    """No arena can be built, so the per-region databases are mined directly."""

    def no_arena(transactions):
        raise MemoryError("no room for the corpus arena")

    monkeypatch.setattr(CorpusMatrix, "from_transactions", staticmethod(no_arena))
    service = AnalysisService(tmp_path / "cache")
    served = service.get_or_run(GOLDEN_CONFIG)
    assert served.source == "computed"
    # Only the fallback compiles region matrices inside the mining pass.
    assert service.last_mining_report.compiles == len(served.results.mining_results)
    return served.results


@pytest.mark.parametrize(
    "produce",
    [_from_pipeline, _from_cold_service, _from_mapped_arena, _from_fallback],
    ids=["pipeline", "cold-service", "mapped-arena", "fallback"],
)
def test_analysis_codec_digest_matches_golden(produce, tmp_path, monkeypatch):
    results = produce(tmp_path, monkeypatch)
    text = codec.dumps(codec.results_to_dict(results))
    assert _sha256(text.encode("utf-8")) == RESULTS_DIGEST
